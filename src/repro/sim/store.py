"""The one on-disk store behind the cache directory.

Results, warm-start checkpoints and the journal's job checkpoints are
all *objects*, files named by a sha256 key and a kind suffix.
:class:`Store` alone owns their layout, the atomic write, the read
that evicts a corrupt object, the mtime touch on each use and the
ref-aware stats and prune over every kind; the typed views
(:class:`~repro.sim.runner.ResultCache`,
:class:`~repro.sim.runner.CheckpointStore`,
:class:`~repro.sim.journal.Journal`) keep only key derivation and codec.
Layout under the store root::

    objects/<first two hex digits>/<key>.<kind>
    ns/<tenant>/<key>.ref       # that tenant used result <key>
"""

from __future__ import annotations

import os
import pickle
import re
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path
from typing import Callable, Iterator, TypeVar

from ..errors import ExperimentError

#: Object kinds (the file suffix after the key).
RESULT = "pkl"
CHECKPOINT = "json"
JOB_CHECKPOINT = "job.json"

#: What each kind holds, as the corrupt-entry warning names it.
_KIND_NAMES = {
    RESULT: "result-cache",
    CHECKPOINT: "checkpoint",
    JOB_CHECKPOINT: "job checkpoint",
}

#: Everything a decoder may raise on a damaged or foreign file.
_CORRUPT = (
    OSError, ValueError, EOFError, AttributeError, ImportError, TypeError,
    pickle.UnpicklingError,
)

#: Tenant namespaces become directory names; keep them boring.
_NAMESPACE_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")

T = TypeVar("T")


def validate_namespace(namespace: str) -> str:
    if not isinstance(namespace, str) or not _NAMESPACE_RE.match(namespace):
        raise ExperimentError(
            f"invalid tenant namespace {namespace!r} (want 1-64 chars "
            "of letters, digits, '.', '_', '-')"
        )
    return namespace


class Store:
    """Content-addressed objects of every kind plus per-tenant refs.

    Reads never raise on file content: a missing object is a miss, and
    one that exists but cannot be decoded is deleted (so it cannot
    shadow its slot forever), warned about once and counted in
    :attr:`evictions`.  Writes are atomic: a reader, or a process killed
    mid-write, never sees a truncated object.
    """

    def __init__(self, root: Path | str) -> None:
        self.root = Path(root)
        #: Corrupt objects deleted by :meth:`read`; the sweep runner
        #: folds this into its stats and resets it.
        self.evictions = 0

    # -- objects -----------------------------------------------------------
    def relpath(self, key: str, kind: str) -> str:
        return f"objects/{key[:2]}/{key}.{kind}"

    def path(self, key: str, kind: str) -> Path:
        return self.root / self.relpath(key, kind)

    def write(self, key: str, kind: str, data: bytes) -> None:
        """Atomically publish ``data`` as an object: two writers racing
        on one key both land a whole object."""
        path = self.path(key, kind)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def read(self, key: str, kind: str,
             decode: Callable[[bytes], T]) -> T | None:
        """Decode an object; None when missing or corrupt (evicted).

        A successful read freshens the object's mtime: age-based
        pruning tracks last use, not creation.
        """
        path = self.path(key, kind)
        try:
            with open(path, "rb") as handle:
                value = decode(handle.read())
        except FileNotFoundError:
            return None
        except _CORRUPT as error:
            try:
                os.unlink(path)
            except OSError:
                return None
            self.evictions += 1
            print(
                f"repro: dropped corrupt {_KIND_NAMES.get(kind, kind)} "
                f"entry {path.name} ({type(error).__name__})",
                file=sys.stderr,
            )
            return None
        try:
            os.utime(path)
        except OSError:
            pass
        return value

    # -- tenant refs -------------------------------------------------------
    def ref_path(self, key: str, tenant: str) -> Path:
        return self.root / "ns" / validate_namespace(tenant) / f"{key}.ref"

    def touch_ref(self, key: str, tenant: str) -> None:
        """Record that ``tenant`` used object ``key`` (accounting only:
        a shared object lives while *any* tenant's ref is recent)."""
        ref = self.ref_path(key, tenant)
        try:
            ref.parent.mkdir(parents=True, exist_ok=True)
            ref.touch()  # freshens the mtime of an existing ref
        except OSError:
            pass  # never fail a load or store over accounting

    def tenants(self) -> list[str]:
        ns_root = self.root / "ns"
        if not ns_root.is_dir():
            return []
        return sorted(p.name for p in ns_root.iterdir() if p.is_dir())

    def _refs(self) -> Iterator[Path]:
        for tenant in self.tenants():
            yield from (self.root / "ns" / tenant).glob("*.ref")

    def _objects(self) -> Iterator[tuple[Path, str, str]]:
        """(path, key, kind) of every published object."""
        for path in self.root.glob("objects/*/*"):
            key, _, kind = path.name.partition(".")
            if kind and kind != "tmp":  # skip in-flight writes
                yield path, key, kind

    # -- accounting / maintenance -----------------------------------------
    def stats(self) -> dict:
        """Per-kind ``[entries, bytes]`` plus per-tenant ref counts."""
        kinds: dict[str, list[int]] = {}
        for path, _, kind in self._objects():
            try:
                size = path.stat().st_size
            except OSError:
                continue
            entry = kinds.setdefault(kind, [0, 0])
            entry[0] += 1
            entry[1] += size
        tenants = {
            tenant: sum(1 for _ in (self.root / "ns" / tenant).glob("*.ref"))
            for tenant in self.tenants()
        }
        return {"kinds": kinds, "tenants": tenants}

    def prune(self, max_age_s: float, now: float | None = None) -> dict:
        """Drop objects of every kind unused for ``max_age_s`` seconds,
        then the tenant refs left dangling.

        Objects are shared across tenants, so "unused" means no use by
        *anyone*: an object survives while its own mtime (touched on
        every read and write) or any tenant's ref is newer than the
        cutoff.  Pruning by object mtime alone would let one tenant's
        idleness delete an entry another tenant still hits.  Returns
        per-kind ``removed``/``kept`` counters and ``dangling_refs``.
        """
        cutoff = (now if now is not None else time.time()) - max_age_s
        newest_ref: dict[str, float] = {}
        for ref in self._refs():
            try:
                mtime = ref.stat().st_mtime
            except OSError:
                continue
            newest_ref[ref.stem] = max(mtime, newest_ref.get(ref.stem, 0.0))
        removed: Counter = Counter()
        kept: Counter = Counter()
        for path, key, kind in self._objects():
            try:
                last_used = max(path.stat().st_mtime,
                                newest_ref.get(key, 0.0))
                if last_used < cutoff:
                    os.unlink(path)
                    removed[kind] += 1
                    continue
            except OSError:
                continue
            kept[kind] += 1
        dangling = 0
        for ref in self._refs():
            if not self.path(ref.stem, RESULT).exists():
                try:
                    os.unlink(ref)
                    dangling += 1
                except OSError:
                    pass
        return {"removed": removed, "kept": kept, "dangling_refs": dangling}
