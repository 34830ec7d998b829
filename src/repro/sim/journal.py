"""Crash-safe job journal: a write-ahead log for the scheduler.

The paper's thesis is that a reconfigurable processor must be managed
like any other OS-owned resource; the ROADMAP pushes that one level
further — the *management layer itself* must survive crashes.  Before
this module, ``repro serve`` lost every queued and in-flight job the
moment the daemon died.  Now the scheduler records every job's life in
an append-only journal, ``journal.log`` in the cache directory:

* ``submitted`` — tenant, serialised spec, verify flag (fields an
  older daemon wrote beside them are ignored on replay);
* ``state`` — lifecycle transitions (``running`` / ``done`` /
  ``failed`` / ``cancelled``);
* ``checkpoint`` — a *ref* to the job's latest machine checkpoint, a
  ``job.json`` object in the cache's :class:`~repro.sim.store.Store`
  (the journal itself stays small).

On daemon start :meth:`Journal.replay` reads the log back, tolerating a
torn tail — a record half-written when the process was killed — by
keeping the longest valid prefix, and :func:`recovered_jobs` folds the
records into the set of jobs that never reached a terminal state.
Recovery is idempotent: resubmissions are deduplicated on
``(tenant, spec_key, verify)``, so replaying the same journal twice —
or a client resubmitting a job the daemon already recovered — never
double-runs (or double-completes) a point.

Record framing is one line per record::

    <crc32 of payload, 8 hex digits> <payload JSON>\\n

A record is valid iff its line is newline-terminated, the CRC field
parses, and the CRC matches the payload bytes.  The first invalid
record ends the readable prefix; everything after it is ignored (and
trimmed by ``replay(truncate=True)``), so a torn or bit-flipped tail
can never crash recovery or resurrect garbage.

Durability is deliberately "flush, not fsync" by default: records
survive the *process* dying (``kill -9``), which is the failure mode
the chaos harness injects; pass ``sync=True`` to also survive the
machine dying.  A store root that cannot be written (read-only
volume, permissions) degrades to a warned in-memory mode — submissions
keep working, they are just no longer crash-safe.

Journaling is transparent to results: it never touches spec keys,
results or warm-start checkpoints.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import zlib
from hashlib import sha256
from pathlib import Path

from ..machine import CHECKPOINT_VERSION, decode_checkpoint
from .jobs import TERMINAL_STATES
from .store import JOB_CHECKPOINT, Store

__all__ = [
    "JOURNAL_NAME",
    "Journal",
    "RecoveredJob",
    "recovered_jobs",
]

#: File name of the journal in the store root.
JOURNAL_NAME = "journal.log"


def _encode(record: dict) -> bytes:
    payload = json.dumps(record, sort_keys=True, separators=(",", ":"))
    data = payload.encode("utf-8")
    return b"%08x %s\n" % (zlib.crc32(data) & 0xFFFFFFFF, data)


def _decode(line: bytes) -> dict | None:
    """One framed line back to its record; None when invalid."""
    if len(line) < 10 or line[8:9] != b" ":
        return None
    try:
        crc = int(line[:8], 16)
    except ValueError:
        return None
    data = line[9:]
    if zlib.crc32(data) & 0xFFFFFFFF != crc:
        return None
    try:
        record = json.loads(data)
    except ValueError:
        return None
    return record if isinstance(record, dict) else None


class Journal:
    """Append-only, CRC-framed record log; job checkpoints are objects
    of the :class:`~repro.sim.store.Store` rooted where the log lives.

    Thread safe: the scheduler appends from its dispatcher, watchdog
    and worker-callback threads concurrently.
    """

    def __init__(self, root: Path | str, sync: bool = False) -> None:
        self.disk = Store(root)
        self.root = self.disk.root
        self.path = self.root / JOURNAL_NAME
        self.sync = sync
        self._lock = threading.Lock()
        self._handle = None
        #: True once a write failed and journaling fell back to memory.
        self.degraded = False
        #: Records accepted while degraded (kept for introspection).
        self._memory: list[dict] = []
        #: Records appended since construction (any mode).
        self.appended = 0

    # -- writing -----------------------------------------------------------
    def _warn_degraded(self, error: Exception) -> None:
        if self.degraded:
            return
        self.degraded = True
        print(
            f"repro: journal at {self.path} is not writable "
            f"({type(error).__name__}: {error}); continuing without "
            "crash safety (in-memory journal)",
            file=sys.stderr,
        )

    def append(self, record: dict) -> None:
        """Durably append one record (best effort — see class docs)."""
        line = _encode(record)
        with self._lock:
            self.appended += 1
            if self.degraded:
                self._memory.append(record)
                return
            try:
                if self._handle is None:
                    self.root.mkdir(parents=True, exist_ok=True)
                    self._handle = open(self.path, "ab")
                self._handle.write(line)
                self._handle.flush()
                if self.sync:
                    os.fsync(self._handle.fileno())
            except OSError as error:
                self._warn_degraded(error)
                self._memory.append(record)

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                try:
                    self._handle.close()
                except OSError:
                    pass
                self._handle = None

    # -- job checkpoints -------------------------------------------------
    def store_checkpoint(self, job_key: str, checkpoint: dict) -> str | None:
        """Write a job's latest checkpoint; returns its journal ref.

        ``job_key`` is the job's coalescing key (``spec_key:verify``),
        so there is one slot per live point, and each write atomically
        replaces the slot's previous checkpoint: the journal only ever
        needs the *latest*.  The ref is the object's path relative to
        :attr:`root`.  Returns ``None`` (and degrades quietly) when the
        store cannot be written.
        """
        blob = f"{job_key}:job:v={CHECKPOINT_VERSION}"
        key = sha256(blob.encode("utf-8")).hexdigest()
        try:
            self.disk.write(key, JOB_CHECKPOINT,
                            json.dumps(checkpoint).encode("utf-8"))
        except OSError as error:
            self._warn_degraded(error)
            return None
        return self.disk.relpath(key, JOB_CHECKPOINT)

    def load_checkpoint(self, ref: str) -> dict | None:
        """Resolve a ``checkpoint`` record's ref; None when unusable.

        A missing or corrupt checkpoint, or valid JSON that is not a
        machine checkpoint, is not an error — recovery simply
        cold-starts the job, which is bit-identical anyway.
        """
        if not isinstance(ref, str):
            return None
        key = ref.rpartition("/")[2].partition(".")[0]
        if ref != self.disk.relpath(key, JOB_CHECKPOINT):
            return None  # not a ref this journal wrote
        return self.disk.read(key, JOB_CHECKPOINT, decode_checkpoint)

    # -- reading -----------------------------------------------------------
    def replay(self, truncate: bool = False) -> list[dict]:
        """Read back the longest valid record prefix.

        Stops at the first invalid record (bad CRC, unparseable frame,
        or a final line without its newline — a torn write).  With
        ``truncate`` the file is trimmed to that prefix so the next
        append continues from a clean state.  Never raises on journal
        content: the worst corruption yields an empty list.
        """
        try:
            with open(self.path, "rb") as handle:
                data = handle.read()
        except OSError:
            return []
        records: list[dict] = []
        valid_bytes = 0
        offset = 0
        while offset < len(data):
            end = data.find(b"\n", offset)
            if end < 0:
                break  # torn tail: final record never got its newline
            record = _decode(data[offset:end])
            if record is None:
                break
            records.append(record)
            valid_bytes = end + 1
            offset = end + 1
        if truncate and valid_bytes < len(data):
            try:
                with open(self.path, "r+b") as handle:
                    handle.truncate(valid_bytes)
            except OSError:
                pass
        return records

    def reset(self) -> None:
        """Start a fresh journal (after recovery re-journals live jobs).

        The old log is kept as ``journal.log.old`` for post-mortems;
        job checkpoints stay in place (recovered jobs re-ref them as
        they progress).
        """
        with self._lock:
            if self._handle is not None:
                try:
                    self._handle.close()
                except OSError:
                    pass
                self._handle = None
            try:
                if self.path.exists():
                    os.replace(self.path, self.path.with_suffix(".log.old"))
            except OSError as error:
                self._warn_degraded(error)


class RecoveredJob:
    """One journaled job that never reached a terminal state."""

    def __init__(self, record: dict) -> None:
        self.spec_dict: dict = record["spec"]
        self.tenant: str = record.get("tenant", "default")
        self.verify: bool = bool(record.get("verify", False))
        #: Latest journaled checkpoint ref (None: cold start).
        self.checkpoint_ref: str | None = None


def recovered_jobs(records: list[dict]) -> list[RecoveredJob]:
    """Fold replayed records into the jobs recovery must resubmit.

    A job is recoverable when it was ``submitted`` but never journaled
    ``done`` / ``failed`` / ``cancelled``.  Duplicate submissions of
    the same ``(tenant, spec_key, verify)`` collapse onto the *first*
    one (keeping the newest checkpoint ref seen for any of them), so
    replaying a journal that contains resubmissions — or replaying the
    same journal twice — recovers each point exactly once.

    Malformed records (missing fields, wrong types) are skipped, not
    fatal: the journal may legitimately contain records from a newer
    schema after a downgrade.
    """
    alive: dict[int, RecoveredJob] = {}
    order: list[int] = []
    for record in records:
        kind = record.get("type")
        job_id = record.get("job")
        if kind == "submitted":
            if not isinstance(record.get("spec"), dict):
                continue
            if not isinstance(job_id, int) or job_id in alive:
                continue
            try:
                alive[job_id] = RecoveredJob(record)
            except (KeyError, TypeError, ValueError):
                continue
            order.append(job_id)
        elif kind == "checkpoint":
            job = alive.get(job_id)
            if job is not None and isinstance(record.get("ref"), str):
                job.checkpoint_ref = record["ref"]
        elif kind == "state":
            if record.get("state") in TERMINAL_STATES:
                alive.pop(job_id, None)
    # Dedupe on the submission identity.  spec_key() needs a built
    # config, which recovery computes anyway; here the serialised spec
    # dict is identity enough — it covers every spec field.
    seen: dict[str, RecoveredJob] = {}
    result: list[RecoveredJob] = []
    for job_id in order:
        job = alive.get(job_id)
        if job is None:
            continue
        identity = json.dumps(
            [job.tenant, job.spec_dict, job.verify], sort_keys=True
        )
        first = seen.get(identity)
        if first is not None:
            # Later duplicates only contribute a fresher checkpoint.
            if job.checkpoint_ref is not None:
                first.checkpoint_ref = job.checkpoint_ref
            continue
        seen[identity] = job
        result.append(job)
    return result
