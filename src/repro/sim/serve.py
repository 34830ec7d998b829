"""The ``repro serve`` daemon: simulation as a long-lived service.

One asyncio process listens on a local unix socket and fronts a shared
:class:`~repro.sim.jobs.Scheduler`: many concurrent clients — sweep
runs, campaign drivers, ad-hoc ``repro submit`` calls — submit
experiment points into the same worker fleet, under their own tenant
namespaces, and stream lifecycle events back as they happen.  Jobs
wait in one FIFO queue.  The daemon slices every job
(``slice_quanta``), so a long-running experiment is preempted on one
worker — its machine checkpointed via the proven
:meth:`~repro.machine.Machine.checkpoint` protocol — goes to the back
of the queue, and resumes bit-identically on whichever worker frees up
next.

Wire protocol: line-delimited JSON, one connection per client.

Requests (``id`` is an arbitrary client-chosen correlation number)::

    {"id": 1, "op": "ping"}
    {"id": 2, "op": "submit", "spec": {...}, "tenant": "alice",
     "verify": false, "checkpoint": {...}?, "resubmit": false?}
    {"id": 3, "op": "stats"}
    {"id": 4, "op": "shutdown"}

Every request gets exactly one reply ``{"id": N, "ok": true, ...}``
(or ``{"ok": false, "error": "..."}``).  Unknown request keys are
ignored, so an older client's extra submit fields still parse.  A
submit reply carries the
job id; the job's lifecycle then streams as unsolicited events on the
same connection::

    {"event": "running" | "preempted" | "hung", "job": 7, ...}
    {"event": "done", "job": 7, "outcome": {...}, "preemptions": 3,
     "worker_pids": [...], ...}
    {"event": "failed" | "cancelled", "job": 7, "error": "..."}

Outcomes cross the wire via :func:`~repro.sim.experiment.outcome_to_dict`
— an exact round-trip, so a result obtained through the daemon is
bit-identical to one computed in-process.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import socket
import tempfile
import threading
from dataclasses import asdict
from pathlib import Path

from ..errors import ExperimentError, ReproError
from ..machine import spec_from_dict
from .experiment import outcome_to_dict
from .jobs import (
    DEFAULT_TENANT,
    TERMINAL_STATES,
    Job,
    Scheduler,
    close_fd_in_workers,
    forget_fd_in_workers,
)

__all__ = [
    "PROTOCOL_VERSION",
    "ServeDaemon",
    "daemon_available",
    "default_socket_path",
]

PROTOCOL_VERSION = 1


def default_socket_path() -> Path:
    """``REPRO_SERVE_SOCKET`` wins; otherwise a per-user socket in the
    system temp directory (stable across invocations, so clients find
    the daemon without configuration)."""
    env = os.environ.get("REPRO_SERVE_SOCKET")
    if env:
        return Path(env)
    uid = os.getuid() if hasattr(os, "getuid") else "user"
    return Path(tempfile.gettempdir()) / f"repro-serve-{uid}.sock"


def daemon_available(socket_path: Path | str | None = None,
                     timeout: float = 0.5) -> bool:
    """True when a live daemon answers a ping on the socket.

    A socket file with nobody listening behind it (the daemon was
    killed before it could ``unlink``) is treated as "no daemon": the
    dead file is removed so later runs — and a future ``repro serve``
    binding the same path — start clean instead of surfacing
    ``ConnectionRefusedError`` to ``repro fig2``/``inject`` users.
    """
    path = Path(socket_path) if socket_path else default_socket_path()
    if not path.exists():
        return False
    try:
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.settimeout(timeout)
            sock.connect(str(path))
            sock.sendall(b'{"id": 0, "op": "ping"}\n')
            data = b""
            while b"\n" not in data:
                chunk = sock.recv(4096)
                if not chunk:
                    return False
                data += chunk
        reply = json.loads(data.splitlines()[0])
        return bool(reply.get("ok")) and bool(reply.get("pong"))
    except ConnectionError:
        # Stale socket: the file exists but nothing accepts on it.
        # Best-effort cleanup.  A starting daemon renames its socket
        # into place only once it listens, so this never removes one.
        try:
            path.unlink()
        except OSError:
            pass
        return False
    except (OSError, ValueError):
        return False


class ServeDaemon:
    """Serve a scheduler over a unix socket until told to stop.

    ``run()`` blocks (it owns an asyncio event loop); embedders — the
    CLI foregrounds it, tests put it on a thread — wait on
    :attr:`started` before connecting and call :meth:`stop` (thread
    safe) to shut it down.  The daemon does not own the scheduler:
    whoever built it shuts it down after ``run()`` returns.
    """

    def __init__(self, scheduler: Scheduler,
                 socket_path: Path | str | None = None) -> None:
        self.scheduler = scheduler
        self.socket_path = (
            Path(socket_path) if socket_path else default_socket_path()
        )
        #: Set once the socket is listening.
        self.started = threading.Event()
        #: True when shutdown was triggered by SIGTERM: the embedder
        #: should drain (checkpoint + journal in-flight jobs) rather
        #: than cancel.  SIGINT and ``op: shutdown`` leave it False.
        self.drain_requested = False
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None

    def run(self) -> None:
        asyncio.run(self._main())

    def stop(self) -> None:
        """Request shutdown from any thread."""
        loop, stop = self._loop, self._stop
        if loop is not None and stop is not None:
            try:
                loop.call_soon_threadsafe(stop.set)
            except RuntimeError:
                pass  # loop already closed

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self.socket_path.parent.mkdir(parents=True, exist_ok=True)
        # Bind and listen on a private sibling path, then rename it over
        # the public one (replacing any stale socket a dead daemon left).
        # The public path thus only ever names a listening socket: a
        # daemon_available() probe racing startup cannot mistake it for
        # a stale file and unlink it from under the daemon.
        private = self.socket_path.with_name(
            f".{self.socket_path.name}.{os.getpid()}"
        )
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            private.unlink(missing_ok=True)
            listener.bind(str(private))
            listener.listen(100)
            os.replace(private, self.socket_path)
        except BaseException:
            listener.close()
            private.unlink(missing_ok=True)
            raise
        server = await asyncio.start_unix_server(self._handle, sock=listener)
        # Fork-context workers must not inherit the daemon's sockets:
        # a worker's copy would keep connections half-alive after a
        # ``kill -9``, hiding the EOF clients reconnect on.
        for sock in server.sockets:
            close_fd_in_workers(sock.fileno())
        self.started.set()
        # A backgrounded daemon (``repro serve &`` under non-interactive
        # sh) inherits SIGINT as SIG_IGN, so KeyboardInterrupt never
        # fires; install explicit handlers so ``kill -INT``/``-TERM``
        # still shut it down gracefully.  Only possible from the main
        # thread — embedders (tests) call stop() instead.
        #
        # The two signals mean different things: SIGINT cancels
        # everything (operator hit ^C), SIGTERM *drains* — stop taking
        # submits, let in-flight slices checkpoint and journal, then
        # exit so the next daemon recovers the jobs.
        handled: list[signal.Signals] = []
        for signum, handler in (
            (signal.SIGINT, self._stop.set),
            (signal.SIGTERM, self._on_sigterm),
        ):
            try:
                self._loop.add_signal_handler(signum, handler)
                handled.append(signum)
            except (ValueError, OSError, RuntimeError,
                    NotImplementedError):
                break
        try:
            async with server:
                await self._stop.wait()
        finally:
            for signum in handled:
                self._loop.remove_signal_handler(signum)
            self.started.clear()
            try:
                self.socket_path.unlink()
            except OSError:
                pass

    def _on_sigterm(self) -> None:
        self.drain_requested = True
        # Flag-flip only: the heavy lifting (waiting out in-flight
        # slices) happens after run() returns, in the embedder.
        self.scheduler.begin_drain()
        if self._stop is not None:
            self._stop.set()

    # -- per-connection plumbing -------------------------------------------
    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        outbox: asyncio.Queue = asyncio.Queue()
        pump = asyncio.create_task(self._write_loop(outbox, writer))
        loop = asyncio.get_running_loop()
        alive = True
        conn = writer.get_extra_info("socket")
        conn_fd = conn.fileno() if conn is not None else -1
        if conn_fd >= 0:
            close_fd_in_workers(conn_fd)

        def post(message: dict) -> None:
            # Bridge scheduler-thread job events onto this connection's
            # event loop; a disconnected client just drops them.
            if alive:
                try:
                    loop.call_soon_threadsafe(outbox.put_nowait, message)
                except RuntimeError:
                    pass
        try:
            while True:
                try:
                    line = await reader.readline()
                except asyncio.CancelledError:
                    break  # daemon stopping; end the connection quietly
                if not line:
                    break
                try:
                    request = json.loads(line)
                    if not isinstance(request, dict):
                        raise ValueError("not an object")
                except ValueError:
                    outbox.put_nowait(
                        {"ok": False, "error": "malformed request"}
                    )
                    continue
                # _dispatch may attach job callbacks that post() events;
                # those land via call_soon_threadsafe on a *later* loop
                # iteration, so this direct put keeps the reply first.
                outbox.put_nowait(self._dispatch(request, post))
        finally:
            alive = False
            pump.cancel()
            if conn_fd >= 0:
                forget_fd_in_workers(conn_fd)
            writer.close()

    async def _write_loop(self, outbox: asyncio.Queue,
                          writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                message = await outbox.get()
                writer.write(json.dumps(message).encode("utf-8") + b"\n")
                await writer.drain()
        except (asyncio.CancelledError, ConnectionError, OSError):
            pass

    # -- request handling ---------------------------------------------------
    def _dispatch(self, request: dict, post) -> dict:
        op = request.get("op")
        try:
            if op == "ping":
                reply = {
                    "pong": True,
                    "protocol": PROTOCOL_VERSION,
                    "pid": os.getpid(),
                    "workers": self.scheduler.workers,
                    "slice_quanta": self.scheduler.slice_quanta,
                }
            elif op == "stats":
                reply = {
                    "stats": asdict(self.scheduler.stats),
                    "queued": len(self.scheduler.queue),
                    "pid": os.getpid(),
                    "worker_pids": self.scheduler.worker_pids(),
                }
            elif op == "submit":
                reply = self._submit(request, post)
            elif op == "shutdown":
                reply = {"stopping": True}
                self.stop()
            else:
                raise ExperimentError(f"unknown op {op!r}")
            reply["ok"] = True
        except ReproError as error:
            reply = {"ok": False, "error": str(error)}
        except (KeyError, TypeError, ValueError) as error:
            reply = {"ok": False,
                     "error": f"malformed request: {error}"}
        if request.get("id") is not None:
            reply["id"] = request["id"]
        return reply

    def _submit(self, request: dict, post) -> dict:
        spec = spec_from_dict(request["spec"])
        job = self.scheduler.submit(
            spec,
            tenant=request.get("tenant", DEFAULT_TENANT),
            verify=bool(request.get("verify", False)),
            checkpoint=request.get("checkpoint"),
            resubmit=bool(request.get("resubmit", False)),
        )

        def relay(job: Job, kind: str, payload: dict) -> None:
            if kind in TERMINAL_STATES:
                return  # terminal state rides the done callback below
            post({"event": kind, "job": job.id, **payload})

        job.add_listener(relay)
        job.add_done_callback(lambda job: post(_terminal_event(job)))
        return {
            "job": job.id,
            "state": job.state.value,
            "cached": job.cached,
            "coalesced": job.coalesced,
        }


def _terminal_event(job: Job) -> dict:
    message = {
        "event": job.state.value,
        "job": job.id,
        "state": job.state.value,
        "cached": job.cached,
        "coalesced": job.coalesced,
        "warm_started": job.warm_started,
        "stored_checkpoint": job.stored_checkpoint,
        "retries": job.retries,
        "preemptions": job.preemptions,
        "worker_pids": list(job.worker_pids),
    }
    if job.error is not None:
        message["error"] = job.error
    if job.outcome is not None:
        message["outcome"] = outcome_to_dict(job.outcome)
    return message
