"""Deterministic chaos harness for the simulation service.

The crash-safety claim of this repo is not "we wrote a journal", it is
*a fig2 sweep disturbed by infrastructure faults produces a
byte-identical CSV to the undisturbed run, and no job is lost or
double-completed*.  This module proves it, DAVOS-style: inject a
seeded schedule of faults against a real ``repro serve`` daemon (a
separate OS process, so ``kill -9`` means exactly what it means in
production) while a client sweeps, then compare bytes.

Fault repertoire (:data:`DEFAULT_FAULTS`, each seeded and logged):

* ``worker_kill`` — SIGKILL one worker process mid-slice; the broken
  pool requeues its job from the last checkpoint.
* ``client_drop`` — sever the client socket as a network fault would;
  the client reconnects with deterministic backoff and resubmits
  idempotently.
* ``daemon_kill`` — ``kill -9`` the daemon's process group (the
  daemon and its pool workers) mid-sweep; before restarting it the
  harness also *tears the journal tail* (simulating a record
  half-written at the moment of death) and *corrupts a cache object*
  (simulating disk rot).  The restarted daemon replays the
  journal's longest valid prefix, recovers the interrupted jobs, and
  the reconnected client re-attaches its handles.

Why determinism survives all of this: outcomes are pure functions of
the experiment spec (checkpoint resume is bit-identical, the result
cache is content-addressed, and a corrupt cache entry degrades to a
miss that re-executes bit-identically), and the journal dedupes
recovery on ``(tenant, spec, verify)`` so nothing runs as two jobs
racing to complete.  The CSV comparison at the end is therefore exact:
one different byte fails the run.
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import repro

from ..errors import ExperimentError
from .client import ServeClient
from .figures import figure2
from .journal import JOURNAL_NAME
from .runner import ResultCache, SweepRunner
from .scaling import DEFAULT_SCALE
from .serve import daemon_available

__all__ = ["DEFAULT_FAULTS", "ChaosHarness", "ChaosReport", "render_chaos"]

#: The full fault schedule, in injection order.
DEFAULT_FAULTS = ("worker_kill", "client_drop", "daemon_kill")

#: How long the harness waits for a freshly started daemon's socket.
_DAEMON_START_TIMEOUT_S = 30.0

#: Hard ceiling on the disturbed sweep (it should take seconds).
_SWEEP_TIMEOUT_S = 300.0


@dataclass
class ChaosReport:
    """Everything the run proved (or failed to prove)."""

    seed: int
    identical: bool
    reference_csv: str
    chaos_csv: str
    events: list[dict] = field(default_factory=list)
    reconnects: int = 0
    daemon_stats: dict = field(default_factory=dict)
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.identical

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "identical": self.identical,
            "reconnects": self.reconnects,
            "events": self.events,
            "daemon_stats": self.daemon_stats,
            "elapsed_s": round(self.elapsed_s, 3),
        }


def render_chaos(report: ChaosReport) -> str:
    lines = [
        f"chaos seed    : {report.seed}",
        f"faults        : {len(report.events)} injected",
    ]
    for event in report.events:
        detail = ", ".join(
            f"{key}={value}" for key, value in sorted(event.items())
            if key not in ("fault", "elapsed_s")
        )
        lines.append(
            f"  +{event['elapsed_s']:6.2f}s {event['fault']:<14} {detail}"
        )
    stats = report.daemon_stats
    if stats:
        lines.append(
            "recovery      : "
            f"journal replays {stats.get('journal_replays', 0)} | "
            f"jobs recovered {stats.get('jobs_recovered', 0)} | "
            f"hung restarts {stats.get('hung_restarts', 0)} | "
            f"resubmits {stats.get('reconnects', 0)}"
        )
    lines.append(f"reconnects    : {report.reconnects} (client)")
    lines.append(f"elapsed       : {report.elapsed_s:.2f}s")
    lines.append(
        "verdict       : "
        + ("CSV byte-identical to undisturbed run"
           if report.identical else "CSV DIFFERS from undisturbed run")
    )
    return "\n".join(lines)


class ChaosHarness:
    """One seeded chaos campaign against a real daemon subprocess."""

    def __init__(
        self,
        workdir: Path | str,
        seed: int = 7,
        scale: float = DEFAULT_SCALE,
        max_instances: int = 3,
        workers: int = 2,
        slice_quanta: int = 64,
        faults: tuple[str, ...] = DEFAULT_FAULTS,
        event_log: Path | str | None = None,
        quiet: bool = True,
    ) -> None:
        # Absolute: the daemon runs with the workdir as its cwd, so a
        # relative socket or cache path would name a different file there.
        self.workdir = Path(workdir).absolute()
        self.seed = seed
        self.scale = scale
        self.max_instances = max_instances
        self.workers = workers
        self.slice_quanta = slice_quanta
        self.faults = tuple(faults)
        self.event_log = Path(event_log) if event_log else None
        self.quiet = quiet
        self.rng = random.Random(seed)
        self.socket_path = self.workdir / "chaos.sock"
        self.cache_dir = self.workdir / "cache"
        self.reference_cache_dir = self.workdir / "reference-cache"
        self.events: list[dict] = []
        self._t0 = 0.0
        self._daemon: subprocess.Popen | None = None
        self._daemon_log = None
        self._sweep_done = threading.Event()

    # -- plumbing ----------------------------------------------------------
    def _say(self, text: str) -> None:
        if not self.quiet:
            print(f"chaos: {text}", file=sys.stderr)

    def _record(self, fault: str, **detail) -> None:
        event = {
            "fault": fault,
            "elapsed_s": round(time.monotonic() - self._t0, 3),
            **detail,
        }
        self.events.append(event)
        self._say(f"{fault} {detail}")

    def _daemon_env(self) -> dict:
        env = dict(os.environ)
        env["REPRO_CACHE_DIR"] = str(self.cache_dir)
        env["REPRO_SERVE_SOCKET"] = str(self.socket_path)
        # The daemon must import the same repro tree as this process,
        # wherever the harness was launched from.
        src = str(Path(repro.__file__).resolve().parents[1])
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = f"{src}:{existing}" if existing else src
        return env

    def start_daemon(self) -> None:
        if self._daemon_log is None:
            self._daemon_log = open(self.workdir / "daemon.log", "ab")
        self._daemon = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--workers", str(self.workers),
                "--slice-quanta", str(self.slice_quanta),
                "--socket", str(self.socket_path),
            ],
            env=self._daemon_env(),
            stdout=self._daemon_log,
            stderr=self._daemon_log,
            cwd=str(self.workdir),
            # Its own process group, so one killpg also reaches the
            # pool workers it forks (see _kill_daemon_group).
            start_new_session=True,
        )
        deadline = time.monotonic() + _DAEMON_START_TIMEOUT_S
        while time.monotonic() < deadline:
            if daemon_available(self.socket_path):
                return
            if self._daemon.poll() is not None:
                self._kill_daemon_group()
                raise ExperimentError(
                    f"chaos daemon exited rc={self._daemon.returncode} "
                    f"before listening (see {self.workdir}/daemon.log)"
                )
            time.sleep(0.05)
        self._kill_daemon_group()
        raise ExperimentError("chaos daemon never started listening")

    def _kill_daemon_group(self) -> None:
        """SIGKILL the daemon and its pool workers, then reap it: left
        alone, the workers of a killed daemon outlive the run."""
        try:
            os.killpg(self._daemon.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass  # the group is already gone
        self._daemon.wait(timeout=10.0)

    # -- individual faults -------------------------------------------------
    def _fault_worker_kill(self, client: ServeClient) -> None:
        """SIGKILL one live worker; the scheduler must absorb it."""
        deadline = time.monotonic() + 10.0
        pids: list[int] = []
        while time.monotonic() < deadline and not self._sweep_done.is_set():
            try:
                pids = client.stats().get("worker_pids", [])
            except ExperimentError:
                return  # daemon mid-restart; skip rather than stall
            if pids:
                break
            time.sleep(0.05)
        if not pids:
            self._record("worker_kill", skipped="no live workers")
            return
        victim = self.rng.choice(pids)
        try:
            os.kill(victim, signal.SIGKILL)
        except OSError as error:
            self._record("worker_kill", skipped=str(error))
            return
        self._record("worker_kill", pid=victim)

    def _fault_client_drop(self, client: ServeClient) -> None:
        client.drop_connection()
        self._record("client_drop", reconnect_budget=client.reconnect)

    def _tear_journal(self) -> None:
        """Chop a random number of bytes off the journal tail, leaving
        a torn record for replay to tolerate."""
        path = self.cache_dir / JOURNAL_NAME
        try:
            size = path.stat().st_size
        except OSError:
            self._record("journal_tear", skipped="no journal file")
            return
        if size == 0:
            self._record("journal_tear", skipped="journal empty")
            return
        cut = self.rng.randrange(1, min(size, 120) + 1)
        with open(path, "r+b") as handle:
            handle.truncate(size - cut)
        self._record("journal_tear", cut_bytes=cut, size=size)

    def _corrupt_cache_object(self) -> None:
        """Flip bytes in one cached result; loads must degrade to a
        miss that re-executes bit-identically."""
        objects = sorted((self.cache_dir / "objects").rglob("*.pkl"))
        if not objects:
            self._record("cache_corrupt", skipped="no cached objects")
            return
        victim = self.rng.choice(objects)
        with open(victim, "r+b") as handle:
            handle.seek(0)
            handle.write(bytes(self.rng.randrange(256) for _ in range(16)))
        self._record("cache_corrupt", path=victim.name)

    def _fault_daemon_kill(self, client: ServeClient) -> None:
        """kill -9 the daemon, vandalise its state, restart it."""
        daemon = self._daemon
        if daemon is None or daemon.poll() is not None:
            self._record("daemon_kill", skipped="daemon not running")
            return
        self._kill_daemon_group()
        self._record("daemon_kill", pid=daemon.pid)
        # While it is down: the two storage faults, so the restart
        # exercises torn-tail replay and corrupt-cache degradation.
        self._tear_journal()
        self._corrupt_cache_object()
        self.start_daemon()
        self._record("daemon_restart", pid=self._daemon.pid)

    # -- the campaign ------------------------------------------------------
    def _reference_run(self) -> str:
        runner = SweepRunner(
            jobs=1, cache=ResultCache(self.reference_cache_dir)
        )
        figure = figure2(
            scale=self.scale,
            instances=range(1, self.max_instances + 1),
            runner=runner,
        )
        return figure.to_csv() + "\n"

    def _disturbed_run(self, client: ServeClient) -> str:
        outcome: dict = {}

        def sweep() -> None:
            try:
                runner = SweepRunner(scheduler=client)
                figure = figure2(
                    scale=self.scale,
                    instances=range(1, self.max_instances + 1),
                    runner=runner,
                )
                outcome["csv"] = figure.to_csv() + "\n"
            except BaseException as error:  # surfaced on the main thread
                outcome["error"] = error
            finally:
                self._sweep_done.set()

        thread = threading.Thread(target=sweep, name="chaos-sweep")
        thread.start()
        for fault in self.faults:
            # Seeded pacing: enough delay for work to be in flight —
            # and, by the daemon kill, for some points to have landed
            # in the cache, so the corruption fault has a target.
            time.sleep(self.rng.uniform(0.8, 2.0))
            if self._sweep_done.is_set():
                self._record(fault, skipped="sweep already finished")
                continue
            getattr(self, f"_fault_{fault}")(client)
        thread.join(timeout=_SWEEP_TIMEOUT_S)
        if thread.is_alive():
            raise ExperimentError(
                "chaos sweep did not finish within "
                f"{_SWEEP_TIMEOUT_S:.0f}s (events so far: {self.events})"
            )
        if "error" in outcome:
            raise outcome["error"]
        return outcome["csv"]

    def run(self) -> ChaosReport:
        start = time.monotonic()
        self._t0 = start
        self.workdir.mkdir(parents=True, exist_ok=True)
        self._say("computing undisturbed reference sweep")
        reference_csv = self._reference_run()
        self._say(f"starting daemon on {self.socket_path}")
        client = None
        daemon_stats: dict = {}
        try:
            self.start_daemon()
            client = ServeClient(self.socket_path)
            chaos_csv = self._disturbed_run(client)
            try:
                daemon_stats = client.stats().get("stats", {})
            except ExperimentError:
                pass
            client.shutdown_server()
        finally:
            if client is not None:
                client.close()
            self._stop_daemon()
        report = ChaosReport(
            seed=self.seed,
            identical=(chaos_csv == reference_csv),
            reference_csv=reference_csv,
            chaos_csv=chaos_csv,
            events=self.events,
            reconnects=client.reconnects,
            daemon_stats=daemon_stats,
            elapsed_s=time.monotonic() - start,
        )
        (self.workdir / "reference.csv").write_text(reference_csv)
        (self.workdir / "chaos.csv").write_text(chaos_csv)
        if self.event_log is not None:
            self.event_log.parent.mkdir(parents=True, exist_ok=True)
            with open(self.event_log, "w", encoding="utf-8") as handle:
                for event in self.events:
                    handle.write(json.dumps(event, sort_keys=True) + "\n")
                handle.write(
                    json.dumps(report.to_dict(), sort_keys=True) + "\n"
                )
        return report

    def _stop_daemon(self) -> None:
        daemon = self._daemon
        if daemon is not None:
            daemon.terminate()  # a no-op once it has exited
            try:
                daemon.wait(timeout=15.0)
            except subprocess.TimeoutExpired:
                pass
            # Whatever of its group survived the graceful stop.
            self._kill_daemon_group()
        if self._daemon_log is not None:
            self._daemon_log.close()
            self._daemon_log = None
