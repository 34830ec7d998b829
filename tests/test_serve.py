"""The simulation daemon: protocol, tenants, preemption, migration.

A real daemon runs on a background thread with a real unix socket in
``tmp_path``; clients connect over the wire.  The load-bearing claims:
outcomes that cross the protocol are bit-identical to in-process runs,
concurrent tenants share cache hits, and a job preempted mid-run on one
worker resumes bit-identically on another.
"""

import argparse
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.errors import ExperimentError
from repro.sim.client import ServeClient
from repro.sim.experiment import ExperimentSpec, run_experiment
from repro.sim.jobs import JobState, Scheduler
from repro.sim.runner import ResultCache, SweepRunner
from repro.sim.serve import ServeDaemon, daemon_available

SCALE = 1 / 8000


def spec(**overrides) -> ExperimentSpec:
    values = dict(workload="alpha", instances=1, quantum_ms=1.0, scale=SCALE)
    values.update(overrides)
    return ExperimentSpec(**values)


@pytest.fixture
def daemon(tmp_path):
    """A live daemon on a background thread; yields (daemon, socket)."""
    cache = ResultCache(tmp_path / "cache")
    scheduler = Scheduler(workers=2, cache=cache, slice_quanta=512)
    server = ServeDaemon(scheduler, tmp_path / "serve.sock")
    thread = threading.Thread(target=server.run, daemon=True)
    thread.start()
    assert server.started.wait(10.0)
    try:
        yield server
    finally:
        server.stop()
        thread.join(timeout=10.0)
        scheduler.shutdown(wait=True, cancel_pending=True)


class TestProtocol:
    def test_no_daemon_no_socket(self, tmp_path):
        assert not daemon_available(tmp_path / "nothing.sock")
        with pytest.raises(ExperimentError, match="no daemon"):
            ServeClient(tmp_path / "nothing.sock")

    def test_ping(self, daemon):
        assert daemon_available(daemon.socket_path)
        with ServeClient(daemon.socket_path) as client:
            reply = client.ping()
            assert reply["pong"]
            assert reply["workers"] == 2
            assert reply["slice_quanta"] == 512

    def test_unknown_op_is_an_error_not_a_hangup(self, daemon):
        with ServeClient(daemon.socket_path) as client:
            with pytest.raises(ExperimentError, match="unknown op"):
                client._request({"op": "frobnicate"})
            assert client.ping()["pong"]  # connection survived

    def test_stats_op(self, daemon):
        with ServeClient(daemon.socket_path) as client:
            client.submit(spec()).result(timeout=120)
            reply = client.stats()
            assert reply["stats"]["submitted"] == 1
            assert reply["stats"]["executed"] == 1

    def test_stale_socket_is_no_daemon(self, tmp_path):
        """A socket file with nobody listening (the daemon was killed
        before it could unlink) reads as "no daemon" — and the dead
        file is removed so the next binder starts clean."""
        stale = tmp_path / "stale.sock"
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.bind(str(stale))
        # closing without listen/accept leaves the path behind, exactly
        # like a SIGKILLed daemon
        assert stale.exists()
        assert not daemon_available(stale)
        assert not stale.exists()

    def test_stale_socket_falls_back_in_process(self, tmp_path):
        """Auto-routing must not hand a dead socket to ServeClient: the
        sweep runs on the in-process pool instead of crashing with
        ConnectionRefusedError."""
        from repro.sim.cli import _make_runner

        stale = tmp_path / "stale.sock"
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.bind(str(stale))
        args = argparse.Namespace(
            no_cache=True, warm_start=False, no_daemon=False,
            socket=stale, jobs=1, tenant="alice", priority=0,
        )
        runner = _make_runner(args)
        assert runner.scheduler is None  # in-process pool, not a client
        (outcome,) = runner.run([spec()])
        assert outcome == run_experiment(spec(), verify=False)

    def test_probe_during_startup_keeps_the_socket(
        self, tmp_path, monkeypatch
    ):
        """A probe landing between the daemon's bind and listen (a
        client polling for a starting daemon) must read "no daemon yet"
        without unlinking the socket the daemon is about to serve."""
        path = tmp_path / "race.sock"
        probes = []
        real_listen = socket.socket.listen

        def probe_then_listen(sock, *args):
            if sock.family == socket.AF_UNIX and not probes:
                probes.append(daemon_available(path))
            return real_listen(sock, *args)

        monkeypatch.setattr(socket.socket, "listen", probe_then_listen)
        scheduler = Scheduler(workers=1)
        server = ServeDaemon(scheduler, path)
        thread = threading.Thread(target=server.run, daemon=True)
        thread.start()
        try:
            assert server.started.wait(10.0)
            assert probes == [False]
            assert daemon_available(path)  # still reachable
        finally:
            server.stop()
            thread.join(timeout=10.0)
            scheduler.shutdown(wait=True, cancel_pending=True)


class TestRemoteExecution:
    def test_outcome_bit_identical_over_the_wire(self, daemon):
        point = spec(instances=2)
        reference = run_experiment(point, verify=False)
        with ServeClient(daemon.socket_path) as client:
            job = client.submit(point)
            assert job.result(timeout=120) == reference
            assert job.state is JobState.DONE
            assert job.preemptions > 0  # the daemon slices everything

    def test_streamed_lifecycle_events(self, daemon):
        events = []
        with ServeClient(daemon.socket_path) as client:
            job = client.submit(spec(instances=2))
            job.add_listener(
                lambda job, kind, message: events.append(kind)
            )
            job.result(timeout=120)
        assert "done" in events
        assert "preempted" in events

    def test_cross_tenant_cache_hit(self, daemon):
        point = spec(instances=2)
        with ServeClient(daemon.socket_path) as alice, \
                ServeClient(daemon.socket_path) as bob:
            first = alice.submit(point, tenant="alice")
            outcome = first.result(timeout=120)
            second = bob.submit(point, tenant="bob")
            assert second.cached  # visible straight from the reply
            assert second.result(timeout=120) == outcome
        cache = daemon.scheduler.cache
        assert sorted(cache.namespaces()) == ["alice", "bob"]

    def test_sweeprunner_rides_the_daemon(self, daemon):
        points = [spec(instances=n) for n in (1, 2)]
        reference = [run_experiment(p, verify=False) for p in points]
        with ServeClient(daemon.socket_path) as client:
            runner = SweepRunner(scheduler=client, tenant="sweepy")
            outcomes = runner.run(points)
        assert outcomes == reference
        assert runner.stats.executed == 2
        assert runner.stats.preemptions > 0

    def test_concurrent_tenants_share_overlapping_work(self, daemon):
        """Two clients sweep overlapping point sets at the same time:
        every point executes at most once globally (cache hit or
        coalesce on the overlap) and both get identical outcomes."""
        overlap = [spec(instances=n) for n in (1, 2)]
        results = {}

        def sweep(name):
            with ServeClient(daemon.socket_path) as client:
                runner = SweepRunner(scheduler=client, tenant=name)
                results[name] = (runner.run(list(overlap)), runner.stats)

        threads = [
            threading.Thread(target=sweep, args=(name,))
            for name in ("alice", "bob")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        alice, astats = results["alice"]
        bob, bstats = results["bob"]
        assert alice == bob
        stats = daemon.scheduler.stats
        assert stats.executed == len(overlap)  # no duplicate work
        shared = (astats.cache_hits + astats.coalesced
                  + bstats.cache_hits + bstats.coalesced)
        assert shared == len(overlap)


class TestSignalShutdown:
    def test_sigint_stops_a_backgrounded_daemon(self, tmp_path):
        """``repro serve &`` under a non-interactive shell inherits
        SIGINT as SIG_IGN, so KeyboardInterrupt alone never fires; the
        daemon installs its own handler and must still shut down
        gracefully on ``kill -INT`` (regression: the CI smoke's
        ``wait $SERVE_PID`` hung forever)."""
        sock = tmp_path / "serve.sock"
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, REPRO_CACHE_DIR=str(tmp_path / "cache"))
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                          else [])
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--workers", "1",
             "--socket", str(sock)],
            stderr=subprocess.PIPE,
            env=env,
            preexec_fn=lambda: signal.signal(
                signal.SIGINT, signal.SIG_IGN
            ),
        )
        try:
            deadline = time.monotonic() + 30.0
            while not daemon_available(sock):
                assert time.monotonic() < deadline, "daemon never came up"
                assert proc.poll() is None, proc.stderr.read()
                time.sleep(0.1)
            proc.send_signal(signal.SIGINT)
            stderr = proc.communicate(timeout=30)[1]
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
        assert proc.returncode == 0, stderr.decode()
        assert b"serve:" in stderr  # the shutdown stats line printed
        assert not sock.exists()  # socket unlinked on the way out


class TestMigration:
    def test_preempt_on_one_worker_resume_on_another(self, tmp_path):
        """The headline determinism claim, end to end through the
        daemon: a job preempted mid-quantum on worker A resumes on
        worker B (pool rotation guarantees distinct processes) and the
        outcome is bit-identical to an uninterrupted local run."""
        point = spec(instances=2)
        reference = run_experiment(point, verify=False)
        scheduler = Scheduler(
            workers=1, slice_quanta=1024, rotate_workers=True
        )
        server = ServeDaemon(scheduler, tmp_path / "mig.sock")
        thread = threading.Thread(target=server.run, daemon=True)
        thread.start()
        assert server.started.wait(10.0)
        try:
            with ServeClient(server.socket_path) as client:
                job = client.submit(point)
                outcome = job.result(timeout=120)
            assert outcome == reference
            assert job.preemptions >= 1
            assert len(set(job.worker_pids)) >= 2  # it migrated
        finally:
            server.stop()
            thread.join(timeout=10.0)
            scheduler.shutdown(wait=True, cancel_pending=True)
