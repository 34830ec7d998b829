"""Crash safety end to end: watchdog, drain, reconnect, kill -9.

These are the regression tests behind the chaos harness's claims.
In-process pieces (the hung-worker watchdog, the strike budget) run
against a real fork-context pool — forked workers inherit a
monkeypatched ``repro.sim.jobs`` module, which is how a worker is
pinned in a sleep loop without any cooperation from the job itself.
Process-level pieces (SIGTERM drain, kill -9 and restart) run a real
``repro serve`` subprocess, because signals and SIGKILL only mean
something against a real process.
"""

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.errors import DaemonLostError, ExperimentError
from repro.sim import jobs
from repro.sim.chaos import ChaosHarness, ChaosReport, render_chaos
from repro.sim.client import ServeClient
from repro.sim.experiment import ExperimentSpec, run_experiment
from repro.sim.journal import Journal
from repro.sim.jobs import Scheduler
from repro.sim.runner import ResultCache
from repro.sim.serve import ServeDaemon, daemon_available

SCALE = 1 / 8000


def spec(**overrides) -> ExperimentSpec:
    values = dict(workload="alpha", instances=1, quantum_ms=1.0, scale=SCALE)
    values.update(overrides)
    return ExperimentSpec(**values)


def serve_env(tmp_path: Path) -> dict:
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, REPRO_CACHE_DIR=str(tmp_path / "cache"))
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def start_serve(tmp_path: Path, sock: Path, *extra: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--workers", "2",
         "--slice-quanta", "64", "--socket", str(sock), *extra],
        stderr=subprocess.PIPE,
        env=serve_env(tmp_path),
    )


#: A ``repro serve`` whose workers hold each finished slice while
#: ``<gate>/hold`` exists, after writing their pid to
#: ``<gate>/sliced-<job id>``.
#: Forked workers inherit the patched module, so the gate needs no
#: cooperation from the scheduler: a test sees every job mid-flight
#: for as long as it likes, however fast the simulator runs.
GATED_SERVE = """
import os, sys, time
from pathlib import Path
from repro.sim import jobs
from repro.sim.cli import main

gate = Path(sys.argv[1])
real_slice = jobs._execute_slice

def gated_slice(payload):
    result = real_slice(payload)
    (gate / f"sliced-{payload[0]}").write_text(str(os.getpid()))
    while (gate / "hold").exists():
        time.sleep(0.01)
    return result

jobs._execute_slice = gated_slice
sys.exit(main(sys.argv[2:]))
"""


def start_gated_serve(tmp_path: Path, sock: Path,
                      gate: Path) -> subprocess.Popen:
    """Like :func:`start_serve`, with every slice held at ``gate``."""
    gate.mkdir()
    (gate / "hold").touch()
    return subprocess.Popen(
        [sys.executable, "-c", GATED_SERVE, str(gate), "serve",
         "--workers", "2", "--slice-quanta", "64", "--socket", str(sock)],
        stderr=subprocess.PIPE,
        env=serve_env(tmp_path),
    )


def wait_until(predicate, what: str, timeout_s: float = 60.0) -> None:
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, f"timed out waiting: {what}"
        time.sleep(0.01)


def held_slices(gate: Path) -> int:
    return len(list(gate.glob("sliced-*")))


def await_daemon(sock: Path, proc: subprocess.Popen) -> None:
    deadline = time.monotonic() + 30.0
    while not daemon_available(sock):
        assert time.monotonic() < deadline, "daemon never came up"
        assert proc.poll() is None, proc.stderr.read()
        time.sleep(0.05)


class TestHungWorkerWatchdog:
    def test_hung_worker_is_killed_and_job_recovers(
        self, tmp_path, monkeypatch
    ):
        """A worker pinned in a sleep loop never raises
        BrokenProcessPool on its own; the watchdog must SIGKILL it and
        the requeued job must still produce the right outcome."""
        flag = tmp_path / "hang-once"
        flag.write_text("")
        real = jobs.run_experiment_capturing

        def hang_once(spec, **kwargs):
            try:
                os.unlink(flag)  # one shot: only the first run hangs
            except FileNotFoundError:
                return real(spec, **kwargs)
            while True:
                time.sleep(3600)  # pinned: alive, never returning

        # Forked workers inherit the patched module, so the *worker*
        # executes hang_once without it ever crossing a pickle.
        monkeypatch.setattr(jobs, "run_experiment_capturing", hang_once)

        point = spec()
        reference = run_experiment(point)
        scheduler = Scheduler(workers=1, hang_timeout_s=0.5)
        try:
            job = scheduler.submit(point)
            outcome = job.result(timeout=60)
        finally:
            scheduler.shutdown()
        assert outcome == reference
        assert scheduler.stats.hung_restarts == 1
        assert job.hang_strikes == 1

    def test_permanently_hung_job_is_quarantined(
        self, tmp_path, monkeypatch
    ):
        def hang_forever(spec, **kwargs):
            while True:
                time.sleep(3600)

        monkeypatch.setattr(
            jobs, "run_experiment_capturing", hang_forever
        )
        scheduler = Scheduler(workers=1, hang_timeout_s=0.3)
        try:
            job = scheduler.submit(spec())
            with pytest.raises(ExperimentError, match="quarantined"):
                job.result(timeout=60)
        finally:
            scheduler.shutdown()
        # Strike budget: MAX_HANG_STRIKES requeues, then the fail.
        assert job.hang_strikes == jobs.MAX_HANG_STRIKES + 1
        assert scheduler.stats.hung_restarts == jobs.MAX_HANG_STRIKES + 1

    def test_rejects_nonpositive_timeout(self):
        with pytest.raises(ExperimentError):
            Scheduler(workers=1, hang_timeout_s=-1.0)


class TestDaemonLost:
    def test_sever_raises_typed_error_and_keeps_events(self, tmp_path):
        """With reconnect disabled, a dying daemon fails live handles
        with DaemonLostError — distinguishable from a job failure —
        and the events streamed before the loss stay on the handle."""
        scheduler = Scheduler(workers=1, slice_quanta=256)
        server = ServeDaemon(scheduler, tmp_path / "lost.sock")
        thread = threading.Thread(target=server.run, daemon=True)
        thread.start()
        assert server.started.wait(10.0)
        client = ServeClient(server.socket_path, reconnect=0)
        events = []
        try:
            job = client.submit(spec(instances=2))
            job.add_listener(
                lambda job, kind, message: events.append(kind)
            )
            deadline = time.monotonic() + 30.0
            while job.state.value == "pending":
                assert time.monotonic() < deadline
                time.sleep(0.01)
            server.stop()
            thread.join(timeout=10.0)
            with pytest.raises(DaemonLostError):
                job.result(timeout=30)
            assert job.daemon_lost
            assert job.state.value == "failed"
            # Pre-loss lifecycle survived on the handle.
            assert job.preemptions >= 0
            assert "running" in events or job.worker_pids == []
        finally:
            client.close()
            server.stop()
            thread.join(timeout=10.0)
            scheduler.shutdown(wait=True, cancel_pending=True)

    def test_drop_connection_reconnects_and_reattaches(self, tmp_path):
        scheduler = Scheduler(workers=1, slice_quanta=256)
        server = ServeDaemon(scheduler, tmp_path / "drop.sock")
        thread = threading.Thread(target=server.run, daemon=True)
        thread.start()
        assert server.started.wait(10.0)
        client = ServeClient(
            server.socket_path, reconnect=5, backoff_base_s=0.01
        )
        try:
            point = spec(instances=2)
            reference = run_experiment(point)
            job = client.submit(point)
            client.drop_connection()
            outcome = job.result(timeout=60)
            assert outcome == reference
            assert client.reconnects == 1
            assert job.reattached == 1
        finally:
            client.close()
            server.stop()
            thread.join(timeout=10.0)
            scheduler.shutdown(wait=True, cancel_pending=True)


class TestSigtermDrain:
    def test_sigterm_drains_and_journal_recovers(self, tmp_path):
        """SIGTERM is the graceful path: stop accepting, checkpoint +
        journal in-flight work, exit cleanly — and a later scheduler
        recovers every unfinished job from the journal."""
        sock = tmp_path / "drain.sock"
        gate = tmp_path / "gate"
        proc = start_gated_serve(tmp_path, sock, gate)
        points = [spec(instances=i, quantum_ms=10.0) for i in (3, 4)]
        try:
            await_daemon(sock, proc)
            client = ServeClient(sock, reconnect=0)
            submitted = [client.submit(point) for point in points]
            assert len(submitted) == 2
            # Both jobs have run a first slice (several remain) and
            # their workers hold it: the jobs are in flight.
            wait_until(lambda: held_slices(gate) == 2, "two held slices")
            proc.send_signal(signal.SIGTERM)
            # The daemon unlinks its socket once SIGTERM has stopped
            # intake; only then may the held slices return, into the
            # drain, instead of being dispatched onwards.
            wait_until(lambda: not sock.exists(), "daemon stops serving")
            (gate / "hold").unlink()
            stderr = proc.communicate(timeout=60)[1]
            client.close()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
        assert proc.returncode == 0, stderr.decode()
        assert b"serve: drained" in stderr
        assert not sock.exists()

        # The journal now owns the interrupted jobs: a fresh scheduler
        # recovers and finishes them, results landing in the cache.
        cache_dir = tmp_path / "cache"
        journal = Journal(cache_dir / "journal")
        cache = ResultCache(cache_dir)
        scheduler = Scheduler(workers=0, cache=cache, journal=journal)
        try:
            recovered = scheduler.recover()
            assert recovered >= 1  # at least the in-flight jobs
        finally:
            scheduler.shutdown()
        for point in points:
            outcome = cache.load(point, False)
            assert outcome is not None
            assert outcome == run_experiment(point)

    def test_draining_scheduler_rejects_submits(self):
        scheduler = Scheduler(workers=0)
        try:
            scheduler.begin_drain()
            with pytest.raises(ExperimentError, match="draining"):
                scheduler.submit(spec())
        finally:
            scheduler.shutdown()


class TestKill9Restart:
    def test_client_reattaches_across_daemon_restart(self, tmp_path):
        """kill -9 mid-sweep, restart, reconnect: every handle must
        re-attach to its journal-recovered job and finish with the
        outcome an undisturbed run produces."""
        sock = tmp_path / "k9.sock"
        gate = tmp_path / "gate"
        points = [spec(instances=i, quantum_ms=10.0) for i in (2, 3, 4)]
        reference = run_experiment(points[0])
        proc = start_gated_serve(tmp_path, sock, gate)
        try:
            await_daemon(sock, proc)
            client = ServeClient(
                sock, reconnect=20, backoff_base_s=0.05, backoff_cap_s=0.5
            )
            jobs_ = [client.submit(point) for point in points]
            # Both workers hold a first slice: work is in flight.
            wait_until(lambda: held_slices(gate) == 2, "two held slices")
            proc.kill()  # SIGKILL: no cleanup, no goodbye
            proc.wait(timeout=10)
            (gate / "hold").unlink()  # free the orphaned workers
            proc = start_serve(tmp_path, sock)
            outcomes = [job.result(timeout=120) for job in jobs_]
            assert outcomes[0] == reference
            assert client.reconnects == 1
            assert any(job.reattached for job in jobs_)
            stats = client.stats()
            # The restarted daemon saw the journal replay and the
            # client's idempotent resubmissions.
            assert stats["stats"]["journal_replays"] >= 0
            assert stats["stats"]["reconnects"] >= 1
            client.shutdown_server()
            client.close()
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
            # The killed daemon's pool workers outlive it, blocked on
            # a call queue nobody feeds; they wrote their pids.
            for marker in gate.glob("sliced-*"):
                try:
                    os.kill(int(marker.read_text()), signal.SIGKILL)
                except ProcessLookupError:
                    pass


class TestChaosReport:
    def test_render_mentions_verdict_and_faults(self):
        report = ChaosReport(
            seed=7,
            identical=True,
            reference_csv="a\n",
            chaos_csv="a\n",
            events=[{"fault": "daemon_kill", "elapsed_s": 1.5, "pid": 42}],
            reconnects=2,
            daemon_stats={"journal_replays": 1, "jobs_recovered": 3},
            elapsed_s=12.0,
        )
        text = render_chaos(report)
        assert "byte-identical" in text
        assert "daemon_kill" in text
        assert report.ok
        bad = ChaosReport(
            seed=7, identical=False, reference_csv="a\n", chaos_csv="b\n"
        )
        assert "DIFFERS" in render_chaos(bad)
        assert not bad.ok


class TestHarnessPaths:
    def test_relative_workdir_names_the_daemon_socket(
        self, tmp_path, monkeypatch
    ):
        """``repro chaos chaos-work`` (a relative workdir) must probe the
        socket its daemon binds: the daemon runs inside the workdir, so
        every path the harness hands it has to be absolute."""
        monkeypatch.chdir(tmp_path)
        harness = ChaosHarness("work")
        assert harness.socket_path == Path.cwd() / "work" / "chaos.sock"
        assert harness.cache_dir.is_absolute()
