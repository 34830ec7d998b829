"""The sweep engine: parallel fan-out, deterministic merge, result cache."""

import csv
import io
import multiprocessing
import os
import pickle
import signal
import time

import pytest

import repro.sim.jobs as jobs_module
import repro.sim.runner as runner_module
from repro.errors import ExperimentError
from repro.sim.experiment import (
    ExperimentSpec,
    run_experiment,
    run_experiment_capturing,
)
from repro.sim.figures import figure2
from repro.sim.jobs import Scheduler
from repro.sim.runner import (
    RESULTS_VERSION,
    CheckpointStore,
    ResultCache,
    SweepRunner,
)

SCALE = 1 / 8000


def tiny_fig2(runner=None, progress=None):
    return figure2(
        scale=SCALE,
        instances=(1, 2),
        workloads=("alpha",),
        quanta=(1.0,),
        policies=("round_robin",),
        runner=runner,
        progress=progress,
    )


def spec(**overrides) -> ExperimentSpec:
    values = dict(workload="alpha", instances=1, quantum_ms=1.0, scale=SCALE)
    values.update(overrides)
    return ExperimentSpec(**values)


class TestSpecKey:
    def test_stable_across_instances(self):
        assert spec().spec_key() == spec().spec_key()

    def test_sensitive_to_every_axis(self):
        base = spec().spec_key()
        for change in (
            dict(workload="echo"),
            dict(instances=2),
            dict(quantum_ms=10.0),
            dict(policy="random"),
            dict(soft=True),
            dict(scale=1 / 4000),
            dict(seed=7),
        ):
            assert spec(**change).spec_key() != base, change

    def test_covers_resolved_config(self):
        # Same spec fields, different machine: pfu_count feeds the
        # resolved MachineConfig, which the key must cover.
        assert spec(pfu_count=2).spec_key() != spec().spec_key()


class TestParallelEquivalence:
    def test_parallel_bit_identical_to_serial(self):
        serial = tiny_fig2()
        parallel = tiny_fig2(runner=SweepRunner(jobs=4))
        assert serial.to_csv() == parallel.to_csv()
        for left, right in zip(serial.series, parallel.series):
            assert left.label == right.label
            assert left.ys() == right.ys()
            assert [p.detail for p in left.points] == [
                p.detail for p in right.points
            ]

    def test_results_merge_in_spec_order(self):
        specs = [spec(instances=n) for n in (3, 1, 2)]
        outcomes = SweepRunner(jobs=2).run(specs)
        assert [outcome.spec for outcome in outcomes] == specs

    def test_jobs_must_be_positive(self):
        with pytest.raises(ExperimentError):
            SweepRunner(jobs=0)


#: Parent pid recorded at import: lets the fragile worker below die only
#: inside forked pool children, never in the pytest process itself.
_PARENT_PID = os.getpid()


def _fragile_execute_slice(payload):
    """Worker stand-in: hard-kill the child on the second sweep point.

    Module-level so the pool can resolve it by name; forked children
    inherit the monkeypatched binding from the parent.
    """
    index = payload[1].instances  # specs below use instances 1..3
    if index == 2 and os.getpid() != _PARENT_PID:
        os.kill(os.getpid(), signal.SIGKILL)
    return jobs_module.__dict__["_real_execute_slice"](payload)


class TestWorkerDeath:
    def test_dead_worker_points_retry_and_degrade(self, monkeypatch):
        specs = [spec(instances=n) for n in (1, 2, 3)]
        reference = SweepRunner().run(specs)

        monkeypatch.setitem(
            jobs_module.__dict__, "_real_execute_slice",
            jobs_module._execute_slice,
        )
        monkeypatch.setattr(
            jobs_module, "_execute_slice", _fragile_execute_slice
        )
        runner = SweepRunner(jobs=2)
        outcomes = runner.run(specs)
        assert outcomes == reference
        assert runner.stats.worker_retries >= 1
        assert runner.stats.executed == len(specs)


def _slow_execute_slice(payload):
    """Worker stand-in: make every point take a human-visible beat."""
    time.sleep(0.4)
    return jobs_module.__dict__["_real_execute_slice"](payload)


class TestGracefulInterrupt:
    def test_sigint_mid_sweep_leaves_no_orphans(self, monkeypatch):
        """A slow sweep interrupted mid-run cancels what is pending,
        shuts the pool down, and leaves no worker processes behind."""
        monkeypatch.setitem(
            jobs_module.__dict__, "_real_execute_slice",
            jobs_module._execute_slice,
        )
        monkeypatch.setattr(
            jobs_module, "_execute_slice", _slow_execute_slice
        )
        specs = [spec(instances=1, seed=n) for n in range(8)]
        runner = SweepRunner(jobs=2)

        def interrupt(done, total, index, cached):
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            runner.run(specs, progress=interrupt)
        # The pool and dispatcher are gone: no orphaned children.
        deadline = time.monotonic() + 10.0
        while multiprocessing.active_children():
            assert time.monotonic() < deadline, (
                f"orphans: {multiprocessing.active_children()}"
            )
            time.sleep(0.05)

    def test_shutdown_cancels_pending_jobs(self):
        from repro.sim.jobs import JobState, Scheduler

        scheduler = Scheduler(workers=1)
        first = scheduler.submit(spec(instances=1), tenant="t")
        queued = [
            scheduler.submit(spec(instances=1, seed=n), tenant="t")
            for n in range(1, 5)
        ]
        scheduler.shutdown(cancel_pending=True)
        first.wait(timeout=30)
        assert not multiprocessing.active_children()
        states = {job.state for job in queued}
        assert states <= {JobState.CANCELLED, JobState.DONE}
        assert JobState.CANCELLED in states or all(
            job.done() for job in queued
        )


class TestResultCache:
    def test_hit_skips_execution(self, tmp_path, monkeypatch):
        calls = []

        def counting(point, verify=False, **kwargs):
            calls.append(point)
            return run_experiment_capturing(point, verify=verify, **kwargs)

        monkeypatch.setattr(
            jobs_module, "run_experiment_capturing", counting
        )
        point = spec()
        cold = SweepRunner(cache=ResultCache(tmp_path))
        first = cold.run([point])
        assert len(calls) == 1
        assert cold.stats.executed == 1 and cold.stats.cache_hits == 0

        warm = SweepRunner(cache=ResultCache(tmp_path))
        second = warm.run([point])
        assert len(calls) == 1  # served from disk, not re-executed
        assert warm.stats.executed == 0 and warm.stats.cache_hits == 1
        assert second[0].makespan == first[0].makespan
        assert second[0].cis == first[0].cis

    def test_spec_change_invalidates(self, tmp_path, monkeypatch):
        calls = []

        def counting(point, verify=False, **kwargs):
            calls.append(point)
            return run_experiment_capturing(point, verify=verify, **kwargs)

        monkeypatch.setattr(
            jobs_module, "run_experiment_capturing", counting
        )
        cache = ResultCache(tmp_path)
        SweepRunner(cache=cache).run([spec()])
        SweepRunner(cache=cache).run([spec(quantum_ms=2.0)])
        assert len(calls) == 2

    def test_verify_flag_is_part_of_the_key(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.key(spec(), verify=False) != cache.key(spec(), verify=True)

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        point = spec()
        SweepRunner(cache=cache).run([point])
        path = cache.path(cache.key(point, verify=False))
        path.write_bytes(b"not a pickle")
        assert cache.load(point, verify=False) is None

    def test_corrupt_entry_is_evicted(self, tmp_path, capsys):
        cache = ResultCache(tmp_path)
        point = spec()
        SweepRunner(cache=cache).run([point])
        path = cache.path(cache.key(point, verify=False))
        path.write_bytes(b"not a pickle")
        assert cache.load(point, verify=False) is None
        assert cache.evictions == 1
        assert not path.exists()  # cannot shadow the slot forever
        assert "dropped corrupt result-cache" in capsys.readouterr().err
        # The next sweep re-executes and repopulates the slot cleanly.
        runner = SweepRunner(cache=cache)
        runner.run([point])
        assert runner.stats.cache_evictions == 1
        assert runner.stats.executed == 1
        assert cache.load(point, verify=False) is not None

    def test_missing_entry_is_not_an_eviction(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.load(spec(), verify=False) is None
        assert cache.evictions == 0

    def test_foreign_valid_entry_is_left_alone(self, tmp_path):
        # A valid pickle for some *other* point (key collision / legacy
        # scheme) is a miss but must not be deleted.
        cache = ResultCache(tmp_path)
        point, other = spec(), spec(instances=2)
        (outcome,) = SweepRunner(cache=cache).run([other])
        path = cache.path(cache.key(point, verify=False))
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(pickle.dumps(outcome))
        assert cache.load(point, verify=False) is None
        assert cache.evictions == 0
        assert path.exists()

    def test_entry_roundtrips_through_pickle(self, tmp_path):
        cache = ResultCache(tmp_path)
        point = spec()
        (outcome,) = SweepRunner(cache=cache).run([point])
        path = cache.path(cache.key(point, verify=False))
        assert pickle.loads(path.read_bytes()).makespan == outcome.makespan

    def test_version_tag_in_key(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        before = cache.key(spec(), verify=False)
        monkeypatch.setattr(runner_module, "RESULTS_VERSION",
                            RESULTS_VERSION + 1)
        assert cache.key(spec(), verify=False) != before


class TestTenantNamespaces:
    def test_namespaces_share_hits(self, tmp_path):
        """Objects are content-addressed and shared: what one tenant
        computed, another tenant's lookup finds."""
        cache = ResultCache(tmp_path)
        point = spec()
        (outcome,) = SweepRunner(cache=cache, tenant="alice").run([point])
        assert cache.load(point, False, tenant="bob") == outcome

    def test_namespace_refs_track_usage(self, tmp_path):
        cache = ResultCache(tmp_path)
        point = spec()
        SweepRunner(cache=cache, tenant="alice").run([point])
        assert cache.disk.tenants() == ["alice"]
        # A cross-tenant hit records a ref.
        cache.load(point, False, tenant="bob")
        assert cache.disk.tenants() == ["alice", "bob"]
        stats = cache.disk.stats()
        entries, total = stats["kinds"]["pkl"]
        assert entries == 1
        assert total > 0
        assert stats["tenants"] == {"alice": 1, "bob": 1}

    def test_tenants_share_eviction_counter(self, tmp_path):
        cache = ResultCache(tmp_path)
        point = spec()
        SweepRunner(cache=cache, tenant="alice").run([point])
        cache.path(cache.key(point, verify=False)).write_bytes(b"garbage")
        assert cache.load(point, False, tenant="bob") is None
        assert cache.evictions == 1

    def test_invalid_namespace_rejected(self, tmp_path):
        cache = ResultCache(tmp_path)
        point = spec()
        (outcome,) = SweepRunner(cache=cache).run([point])
        with pytest.raises(ExperimentError):
            cache.store(point, False, outcome, tenant="../escape")
        with pytest.raises(ExperimentError):
            SweepRunner(tenant="bad/slash")
        scheduler = Scheduler(workers=0, cache=cache)
        try:
            with pytest.raises(ExperimentError):
                scheduler.submit(point, tenant="../escape")
        finally:
            scheduler.shutdown()

    def test_prune_by_age(self, tmp_path):
        cache = ResultCache(tmp_path)
        point = spec()
        SweepRunner(cache=cache).run([point])
        key = cache.key(point, verify=False)
        path = cache.path(key)
        old = time.time() - 10 * 86400
        # Both the object and its namespace ref must age out: a fresh
        # ref (anyone's) pins the object.
        os.utime(path, (old, old))
        os.utime(cache.disk.ref_path(key, "default"), (old, old))
        report = cache.disk.prune(max_age_s=86400)
        assert report["removed"]["pkl"] == 1 and report["kept"]["pkl"] == 0
        assert not path.exists()
        assert report["dangling_refs"] == 1  # ref followed its object
        assert cache.load(point, verify=False) is None
        assert cache.evictions == 0  # pruning is not corruption

    def test_prune_respects_other_tenants_refs(self, tmp_path):
        """An object is only as unused as its *newest* reference: one
        tenant going idle must never prune a shared object another
        tenant's namespace still points at."""
        cache = ResultCache(tmp_path)
        disk = cache.disk
        point = spec()
        (outcome,) = SweepRunner(cache=cache, tenant="alice").run([point])
        # bob's ref is fresh
        assert cache.load(point, False, tenant="bob") == outcome

        key = cache.key(point, verify=False)
        obj = cache.path(key)
        old = time.time() - 10 * 86400
        os.utime(obj, (old, old))                         # object looks idle
        os.utime(disk.ref_path(key, "alice"), (old, old))  # alice moved on
        report = disk.prune(max_age_s=86400)
        assert (report["removed"]["pkl"], report["kept"]["pkl"],
                report["dangling_refs"]) == (0, 1, 0)
        # bob still hits
        assert cache.load(point, False, tenant="bob") == outcome

        # Once every namespace's ref has aged out the object goes, and
        # the now-dangling refs are cleaned up with it.
        os.utime(obj, (old, old))  # bob's hit re-freshened it above
        os.utime(disk.ref_path(key, "alice"), (old, old))
        os.utime(disk.ref_path(key, "bob"), (old, old))
        report = disk.prune(max_age_s=86400)
        assert (report["removed"]["pkl"], report["kept"]["pkl"],
                report["dangling_refs"]) == (1, 0, 2)
        assert cache.load(point, False, tenant="bob") is None

    def test_prune_keeps_fresh_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        point = spec()
        (outcome,) = SweepRunner(cache=cache).run([point])
        report = cache.disk.prune(max_age_s=86400)
        assert report["removed"]["pkl"] == 0 and report["kept"]["pkl"] == 1
        assert cache.load(point, verify=False) == outcome

    def test_checkpoint_store_stats_and_prune(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        point = spec()
        SweepRunner(checkpoints=store).run([point])
        entries, total = store.disk.stats()["kinds"]["json"]
        assert entries == 1 and total > 0
        path = store.path(store.key(point))
        old = time.time() - 10 * 86400
        os.utime(path, (old, old))
        assert store.disk.prune(max_age_s=86400)["removed"]["json"] == 1
        assert store.load(point) is None


class TestCheckpointStore:
    def test_warm_start_reproduces_cold_outcome(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        point = spec()

        cold = SweepRunner(checkpoints=store)
        (first,) = cold.run([point])
        assert cold.stats.captured == 1
        assert cold.stats.warm_started == 0
        assert store.load(point) is not None

        warm = SweepRunner(checkpoints=store)
        (second,) = warm.run([point])
        assert warm.stats.warm_started == 1
        assert warm.stats.captured == 0  # resumed points don't re-capture
        assert second == first

    def test_warm_figure_byte_identical(self, tmp_path):
        """A warm-started sweep emits the byte-identical figure CSV —
        capture fans out over a pool, resume runs serially."""
        reference = tiny_fig2().to_csv()
        store = CheckpointStore(tmp_path / "ckpt")
        capture = SweepRunner(jobs=2, checkpoints=store)
        assert tiny_fig2(runner=capture).to_csv() == reference
        assert capture.stats.captured == 2

        warm = SweepRunner(checkpoints=store)
        assert tiny_fig2(runner=warm).to_csv() == reference
        assert warm.stats.warm_started == 2

    def test_stale_checkpoint_falls_back_to_cold(self, tmp_path):
        """A checkpoint whose embedded spec disagrees is ignored, not
        trusted: the point restarts cold and stays correct."""
        store = CheckpointStore(tmp_path / "ckpt")
        point, other = spec(), spec(instances=2)
        SweepRunner(checkpoints=store).run([other])
        foreign = store.load(other)
        assert foreign is not None
        store.store(point, foreign)  # wrong document under point's key

        (reference,) = SweepRunner().run([point])
        (outcome,) = SweepRunner(checkpoints=store).run([point])
        assert outcome == reference

    def test_corrupt_checkpoint_is_a_miss(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        point = spec()
        path = store.path(store.key(point))
        path.parent.mkdir(parents=True)
        path.write_text("not json")
        assert store.load(point) is None

        runner = SweepRunner(checkpoints=store)
        runner.run([point])
        assert runner.stats.warm_started == 0
        assert runner.stats.captured == 1  # replaced the corrupt entry
        assert store.load(point) is not None

    def test_corrupt_checkpoint_is_evicted(self, tmp_path, capsys):
        store = CheckpointStore(tmp_path / "ckpt")
        point = spec()
        path = store.path(store.key(point))
        path.parent.mkdir(parents=True)
        path.write_text("not json")
        assert store.load(point) is None
        assert store.evictions == 1
        assert not path.exists()
        assert "dropped corrupt checkpoint" in capsys.readouterr().err

    def test_wrong_format_checkpoint_is_evicted(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        point = spec()
        path = store.path(store.key(point))
        path.parent.mkdir(parents=True)
        path.write_text('{"format": "something-else"}')
        assert store.load(point) is None
        assert store.evictions == 1
        assert not path.exists()

    def test_missing_checkpoint_is_not_an_eviction(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        assert store.load(spec()) is None
        assert store.evictions == 0


class TestProgress:
    def test_reports_cache_state_per_point(self, tmp_path):
        events = []

        def progress(label, done, total):
            events.append((label, done, total))

        tiny_fig2(runner=SweepRunner(cache=ResultCache(tmp_path)),
                  progress=progress)
        assert len(events) == 2
        assert all(total == 2 for _, _, total in events)
        assert not any("[cache]" in label for label, _, _ in events)

        events.clear()
        tiny_fig2(runner=SweepRunner(cache=ResultCache(tmp_path)),
                  progress=progress)
        assert len(events) == 2
        assert all("[cache]" in label for label, _, _ in events)


class TestCsvRoundTrip:
    def test_comma_labels_survive(self):
        figure = tiny_fig2()
        label = figure.series[0].label
        assert "," in label  # "Alpha, Round Robin, 1ms"
        parsed = list(csv.reader(io.StringIO(figure.to_csv())))
        header, *rows = parsed
        expected = figure.to_rows()
        assert len(rows) == len(expected)
        for parsed_row, row in zip(rows, expected):
            record = dict(zip(header, parsed_row))
            assert record["series"] == row["series"]
            assert int(record["x"]) == row["x"]
            assert int(record["y"]) == row["y"]
            for key, value in row.items():
                assert record[key] == str(value)
