"""Synchronous client for the ``repro serve`` daemon.

:class:`ServeClient` speaks the line-delimited JSON protocol of
:mod:`repro.sim.serve` over a unix socket and hands back
:class:`RemoteJob` handles.  A :class:`RemoteJob` is a
:class:`~repro.sim.jobs.Job` — ``result()``, ``add_done_callback``,
the cached/coalesced/preemptions bookkeeping — fed by the daemon's
event stream instead of a local scheduler, so a
:class:`~repro.sim.runner.SweepRunner` can use a client as its
scheduler backend without knowing the work left the process.  A
background reader thread demultiplexes replies (matched by request id)
and job lifecycle events (matched by job id); outcomes are rebuilt with
:func:`~repro.sim.experiment.outcome_from_dict`, an exact round-trip,
so daemon results are bit-identical to local ones.

The client is resilient to the daemon dying under it.  With
``reconnect`` attempts configured (the default), a lost connection
enters a deterministic exponential-backoff loop; on success the client
re-sends every request still awaiting a reply and *idempotently
resubmits* every live job.  The restarted daemon has replayed its job
journal, so a resubmission lands on the recovered counterpart — as a
cache hit if it already finished, or coalesced onto the requeued job —
and the existing :class:`RemoteJob` handle is re-attached to the new
job id with all previously streamed lifecycle events preserved.  Only
when the budget is exhausted does the client sever, failing live
handles with a typed :class:`~repro.errors.DaemonLostError` so callers
can tell "the daemon is gone" apart from "my job failed".
"""

from __future__ import annotations

import itertools
import json
import socket
import threading
import time
from pathlib import Path

from ..errors import DaemonLostError, ExperimentError
from ..machine import spec_to_dict
from .experiment import ExperimentSpec, outcome_from_dict
from .jobs import DEFAULT_TENANT, TERMINAL_STATES, Job, JobState
from .serve import default_socket_path

__all__ = ["RemoteJob", "ServeClient"]

#: Default reconnect budget: attempts and deterministic backoff shape.
#: ``delay(k) = min(cap, base * 2**k)`` — no jitter, so the recovery
#: timeline of a chaos run is reproducible.
DEFAULT_RECONNECT_ATTEMPTS = 10
DEFAULT_BACKOFF_BASE_S = 0.05
DEFAULT_BACKOFF_CAP_S = 2.0


class RemoteJob(Job):
    """Client-side handle for a job running in the daemon.

    A :class:`~repro.sim.jobs.Job` whose lifecycle fields (state,
    preemptions, worker pids) update as the daemon's events stream in;
    the terminal event carries the authoritative final counters and
    the outcome.

    The handle survives a daemon restart: ``id`` is rewritten when the
    client re-attaches it to the recovered job, and every event
    streamed before the crash stays accumulated.  If the daemon is
    lost for good, :attr:`daemon_lost` is set and :meth:`result` raises
    :class:`~repro.errors.DaemonLostError` instead of a generic
    failure.
    """

    def __init__(
        self,
        job_id: int,
        spec: ExperimentSpec,
        *,
        tenant: str = DEFAULT_TENANT,
        verify: bool = False,
    ) -> None:
        super().__init__(job_id, spec, tenant=tenant, verify=verify)
        #: Times this handle was re-attached across a daemon restart.
        self.reattached = 0
        #: The submit payload, kept for idempotent resubmission.
        self._payload: dict | None = None

    # -- reader-thread side ------------------------------------------------
    def _apply_event(self, message: dict) -> None:
        kind = message.get("event")
        if kind in TERMINAL_STATES:
            self._finish_from(message)
            return
        if kind == "running":
            self.state = JobState.RUNNING
        elif kind == "preempted":
            self.preemptions += 1
            pid = message.get("pid")
            if pid is not None:
                self.worker_pids.append(pid)
        self._emit(kind, message)

    def _finish_from(self, message: dict) -> None:
        """Finish the job with a terminal event's state and counters."""
        fields = {
            name: message[name]
            for name in ("cached", "coalesced", "warm_started",
                         "stored_checkpoint", "retries", "preemptions")
            if name in message
        }
        fields["daemon_lost"] = bool(message.get("daemon_lost", False))
        if message.get("worker_pids"):
            fields["worker_pids"] = list(message["worker_pids"])
        outcome = message.get("outcome")
        self._finish(
            JobState(message.get("state", "failed")),
            outcome=None if outcome is None else outcome_from_dict(outcome),
            error=message.get("error"),
            **fields,
        )


class ServeClient:
    """One connection to a running ``repro serve`` daemon.

    Thread safe: requests are serialised on the socket and a dedicated
    reader thread routes replies and events.  Usable wherever a
    :class:`~repro.sim.jobs.Scheduler` is — ``SweepRunner(scheduler=
    ServeClient())`` sends a whole sweep through the daemon.

    ``reconnect`` bounds the exponential-backoff reconnect attempts
    after a lost connection (0 disables: the first disconnect severs,
    the pre-crash-safety behaviour).  The backoff schedule is
    deterministic — ``min(cap, base * 2**attempt)`` with no jitter.
    """

    def __init__(self, socket_path: Path | str | None = None,
                 timeout: float = 600.0,
                 reconnect: int = DEFAULT_RECONNECT_ATTEMPTS,
                 backoff_base_s: float = DEFAULT_BACKOFF_BASE_S,
                 backoff_cap_s: float = DEFAULT_BACKOFF_CAP_S) -> None:
        self.socket_path = (
            Path(socket_path) if socket_path else default_socket_path()
        )
        self.timeout = timeout
        self.reconnect = max(0, int(reconnect))
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        #: Successful reconnects performed over this client's lifetime.
        self.reconnects = 0
        try:
            self._sock, self._file = self._connect()
        except OSError as error:
            raise ExperimentError(
                f"no daemon at {self.socket_path} ({error}); "
                "start one with 'repro serve'"
            ) from error
        self._send_lock = threading.Lock()
        self._state_lock = threading.Lock()
        self._ids = itertools.count(1)
        self._pending: dict[int, dict] = {}
        self._jobs: dict[int, RemoteJob] = {}
        self._closed = False
        self._user_closed = False
        self._reader = threading.Thread(
            target=self._read_loop, name="repro-serve-client", daemon=True
        )
        self._reader.start()

    def _connect(self):
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            sock.connect(str(self.socket_path))
        except OSError:
            sock.close()
            raise
        return sock, sock.makefile("rb")

    # -- protocol ----------------------------------------------------------
    def _send(self, payload: dict) -> None:
        data = json.dumps(payload).encode("utf-8") + b"\n"
        with self._send_lock:
            self._sock.sendall(data)

    def _request(self, payload: dict, job_factory=None) -> dict:
        req_id = next(self._ids)
        payload["id"] = req_id
        entry = {
            "ready": threading.Event(),
            "reply": None,
            "factory": job_factory,
            "job": None,
            "reattach": None,
            "payload": payload,
        }
        with self._state_lock:
            if self._closed:
                raise DaemonLostError("client is closed")
            self._pending[req_id] = entry
        try:
            self._send(payload)
        except OSError:
            # The connection just dropped.  The entry is registered, so
            # a successful reconnect re-sends the payload for us; only
            # a final sever fails the wait below.
            if not self.reconnect:
                self._sever("connection to daemon lost")
        if not entry["ready"].wait(self.timeout):
            raise ExperimentError(
                f"daemon did not reply to {payload.get('op')!r} "
                f"within {self.timeout}s"
            )
        reply = entry["reply"]
        if not reply.get("ok"):
            error = reply.get("error") or "unknown daemon error"
            if reply.get("daemon_lost"):
                raise DaemonLostError(error)
            raise ExperimentError(f"daemon error: {error}")
        return entry

    def _read_loop(self) -> None:
        while True:
            try:
                for line in self._file:
                    self._route(line)
            except (OSError, ValueError):
                pass
            # EOF or error: the daemon hung up (restart, kill -9) or we
            # closed.  Try to re-establish before giving up.
            if self._user_closed or not self._reconnect():
                break
        self._sever(
            "client closed" if self._user_closed
            else "connection to daemon lost"
        )

    def _route(self, line: bytes) -> None:
        try:
            message = json.loads(line)
        except ValueError:
            return
        if "id" in message:
            with self._state_lock:
                entry = self._pending.pop(message["id"], None)
            if entry is None:
                return
            entry["reply"] = message
            factory = entry["factory"]
            job = None
            if message.get("ok") and "job" in message:
                if factory is not None:
                    # Register the handle *here*, before signalling the
                    # submitter — the very next line on the wire may
                    # already be this job's first event.
                    job = factory(message)
                elif entry["reattach"] is not None:
                    # An idempotent resubmit after a reconnect: bind
                    # the surviving handle to its recovered job's id.
                    job = entry["reattach"]
                    job.id = message["job"]
                    job.reattached += 1
                    if message.get("cached"):
                        job.cached = True
                    if message.get("coalesced"):
                        job.coalesced = True
            if job is not None:
                with self._state_lock:
                    self._jobs[job.id] = job
                entry["job"] = job
            entry["ready"].set()
        elif "event" in message:
            with self._state_lock:
                job = self._jobs.get(message.get("job"))
            if job is not None:
                job._apply_event(message)

    def _reconnect(self) -> bool:
        """Deterministic exponential backoff until the daemon answers.

        On success: swap in the new socket, re-send every request still
        awaiting its reply, and resubmit every live job (flagged
        ``resubmit`` so the daemon counts it) — the journal-recovered
        daemon serves them idempotently.  Runs on the reader thread, so
        it never *waits* for the resubmission replies; they are routed
        like any other reply once reading resumes.
        """
        for attempt in range(self.reconnect):
            time.sleep(
                min(self.backoff_cap_s, self.backoff_base_s * (2 ** attempt))
            )
            if self._user_closed:
                return False
            try:
                sock, file = self._connect()
            except OSError:
                continue
            old = self._sock
            with self._state_lock:
                self._sock, self._file = sock, file
                pending = list(self._pending.values())
                jobs = [
                    job for job in self._jobs.values() if not job.done()
                ]
            try:
                old.close()
            except OSError:
                pass
            self.reconnects += 1
            try:
                for entry in pending:
                    self._send(entry["payload"])
                for job in jobs:
                    if job._payload is None:
                        continue
                    req_id = next(self._ids)
                    payload = dict(job._payload)
                    payload["id"] = req_id
                    payload["resubmit"] = True
                    entry = {
                        "ready": threading.Event(), "reply": None,
                        "factory": None, "job": None, "reattach": job,
                        "payload": payload,
                    }
                    with self._state_lock:
                        self._pending[req_id] = entry
                    self._send(payload)
            except OSError:
                continue  # it died again mid-handshake; keep backing off
            return True
        return False

    def _sever(self, reason: str) -> None:
        lost = not self._user_closed
        with self._state_lock:
            self._closed = True
            pending = list(self._pending.values())
            self._pending.clear()
            jobs = list(self._jobs.values())
        for entry in pending:
            entry["reply"] = {
                "ok": False, "error": reason, "daemon_lost": lost,
            }
            entry["ready"].set()
        for job in jobs:
            if not job.done():
                job._apply_event({
                    "event": "failed", "state": "failed", "error": reason,
                    "daemon_lost": lost,
                })

    # -- public API ---------------------------------------------------------
    def ping(self) -> dict:
        return self._request({"op": "ping"})["reply"]

    def stats(self) -> dict:
        return self._request({"op": "stats"})["reply"]

    def submit(
        self,
        spec: ExperimentSpec,
        *,
        tenant: str = DEFAULT_TENANT,
        verify: bool = False,
        checkpoint: dict | None = None,
    ) -> RemoteJob:
        """Submit one point to the daemon; returns its remote handle."""
        payload = {
            "op": "submit",
            "spec": spec_to_dict(spec),
            "tenant": tenant,
            "verify": verify,
        }
        if checkpoint is not None:
            payload["checkpoint"] = checkpoint

        def factory(reply: dict) -> RemoteJob:
            job = RemoteJob(reply["job"], spec, tenant=tenant, verify=verify)
            # The resubmit payload must not carry the original
            # checkpoint: the recovered daemon owns a fresher one.
            job._payload = {
                key: value for key, value in payload.items()
                if key not in ("id", "checkpoint")
            }
            # The reply carries the immediately-knowable flags (cache
            # hit, coalesced) so callers see them without waiting for
            # the terminal event.
            job.cached = bool(reply.get("cached", False))
            job.coalesced = bool(reply.get("coalesced", False))
            return job

        entry = self._request(payload, job_factory=factory)
        job = entry["job"]
        assert job is not None
        return job

    def shutdown_server(self) -> None:
        """Ask the daemon to stop (it finishes in-flight slices)."""
        try:
            self._request({"op": "shutdown"})
        except ExperimentError:
            pass  # it may hang up before the reply lands

    def drop_connection(self) -> None:
        """Chaos/test hook: sever the socket as a network fault would.

        The client is *not* marked closed, so the reader thread sees
        EOF and drives the normal reconnect-and-resubmit path."""
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass

    def close(self) -> None:
        self._user_closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()
        self._reader.join(timeout=5.0)

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
