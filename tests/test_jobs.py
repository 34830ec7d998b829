"""The job scheduler core: queueing, slicing, migration."""

import threading
import time

import pytest

from repro.errors import DaemonLostError, ExperimentError
from repro.machine import CHECKPOINT_FORMAT, CHECKPOINT_VERSION
from repro.sim.client import RemoteJob
from repro.sim.experiment import (
    ExperimentSpec,
    outcome_to_dict,
    run_experiment,
)
from repro.sim.jobs import Job, JobQueue, JobState, Scheduler
from repro.sim.runner import ResultCache

SCALE = 1 / 8000


def spec(**overrides) -> ExperimentSpec:
    values = dict(workload="alpha", instances=1, quantum_ms=1.0, scale=SCALE)
    values.update(overrides)
    return ExperimentSpec(**values)


def make_job(job_id=1, **kwargs) -> Job:
    return Job(job_id, spec(), **kwargs)


def finish_local(job, state, outcome=None, error=None, daemon_lost=False):
    """End a scheduler-side job the way the scheduler does."""
    if daemon_lost:
        job.daemon_lost = True
    job._finish(state, outcome=outcome, error=error)


def finish_remote(job, state, outcome=None, error=None, daemon_lost=False):
    """End a client-side job with the terminal event a daemon (or a
    severed connection) sends."""
    message = {"event": state.value, "job": job.id, "state": state.value,
               "daemon_lost": daemon_lost}
    if error is not None:
        message["error"] = error
    if outcome is not None:
        message["outcome"] = outcome_to_dict(outcome)
    job._apply_event(message)


class TestHandleContract:
    """A local job and a daemon client's job keep one completion
    contract; the remote one is driven by event messages, no daemon."""

    @pytest.fixture(scope="class")
    def outcome(self):
        return run_experiment(spec(), verify=False)

    @pytest.fixture(params=[(Job, finish_local), (RemoteJob, finish_remote)],
                    ids=["local", "remote"])
    def handle(self, request):
        cls, finish = request.param
        return cls(1, spec()), finish

    def test_callback_added_after_completion_runs_at_once(
        self, handle, outcome
    ):
        job, finish = handle
        finish(job, JobState.DONE, outcome=outcome)
        seen = []
        job.add_done_callback(seen.append)
        assert seen == [job]
        assert job.result(timeout=0) == outcome

    def test_failure_raises_experiment_error(self, handle):
        job, finish = handle
        finish(job, JobState.FAILED, error="kaboom")
        with pytest.raises(ExperimentError, match="kaboom") as info:
            job.result(timeout=0)
        assert not isinstance(info.value, DaemonLostError)

    def test_lost_daemon_raises_daemon_lost_error(self, handle):
        job, finish = handle
        finish(job, JobState.FAILED, error="connection to daemon lost",
               daemon_lost=True)
        assert job.daemon_lost
        with pytest.raises(DaemonLostError):
            job.result(timeout=0)

    def test_listeners_see_the_terminal_event(self, handle, outcome):
        job, finish = handle
        events, calls = [], []
        job.add_listener(lambda job, kind, payload: events.append(kind))
        job.add_done_callback(calls.append)
        finish(job, JobState.DONE, outcome=outcome)
        finish(job, JobState.FAILED, error="late")  # ignored: done
        assert events == ["done"]
        assert calls == [job]
        assert job.state is JobState.DONE


class TestJobQueue:
    def test_first_in_first_out(self):
        queue = JobQueue()
        first, second, third = make_job(1), make_job(2), make_job(3)
        queue.put(first)
        queue.put(second)
        queue.requeue(third)  # a preempted job rejoins at the tail
        assert queue.get() is first
        assert queue.get() is second
        assert queue.get() is third
        assert len(queue) == 0

    def test_close_wakes_getters(self):
        queue = JobQueue()
        got = []

        def getter():
            got.append(queue.get())

        thread = threading.Thread(target=getter, daemon=True)
        thread.start()
        time.sleep(0.05)
        queue.close()
        thread.join(timeout=5.0)
        assert got == [None]


class TestInlineScheduler:
    def test_inline_matches_run_experiment(self):
        point = spec(instances=2)
        reference = run_experiment(point, verify=False)
        with Scheduler(workers=0) as scheduler:
            job = scheduler.submit(point)
            assert job.done()  # inline execution completes at submit
            assert job.result() == reference

    def test_cache_hit_completes_immediately(self, tmp_path):
        cache = ResultCache(tmp_path)
        point = spec()
        with Scheduler(workers=0, cache=cache) as first:
            reference = first.submit(point).result()
        with Scheduler(workers=0, cache=cache) as second:
            job = second.submit(point)
            assert job.cached
            assert job.result() == reference
            assert second.stats.cache_hits == 1
            assert second.stats.executed == 0

    def test_sliced_inline_bit_identical(self):
        """Quantum-sliced execution (checkpoint every slice) lands on
        exactly the uninterrupted outcome."""
        point = spec(instances=2)
        reference = run_experiment(point, verify=False)
        with Scheduler(workers=0, slice_quanta=300) as scheduler:
            job = scheduler.submit(point)
            assert job.result() == reference
            assert job.preemptions > 0  # it really was sliced

    def test_failed_job_raises_from_result(self, monkeypatch):
        import repro.sim.jobs as jobs_module

        def boom(payload):
            raise ExperimentError("kaboom")

        monkeypatch.setattr(jobs_module, "_execute_slice", boom)
        with Scheduler(workers=0) as scheduler:
            job = scheduler.submit(spec())
            assert job.state is JobState.FAILED
            with pytest.raises(ExperimentError, match="kaboom"):
                job.result()


class TestPooledScheduler:
    def test_pooled_sliced_bit_identical(self):
        point = spec(instances=2)
        reference = run_experiment(point, verify=False)
        with Scheduler(workers=2, slice_quanta=512) as scheduler:
            job = scheduler.submit(point)
            assert job.result(timeout=120) == reference
            assert job.preemptions > 0
            assert len(job.worker_pids) == job.preemptions + 1

    def test_rotate_workers_migrates_between_pids(self):
        """Preempt on worker A, resume on worker B: with pool rotation
        every slice lands on a fresh process, and the outcome is still
        bit-identical to the uninterrupted run."""
        point = spec(instances=2)
        reference = run_experiment(point, verify=False)
        with Scheduler(
            workers=1, slice_quanta=1024, rotate_workers=True
        ) as scheduler:
            job = scheduler.submit(point)
            outcome = job.result(timeout=120)
        assert outcome == reference
        assert job.preemptions >= 1
        assert len(set(job.worker_pids)) >= 2  # it really moved

    def test_coalescing_shares_one_execution(self):
        point = spec(instances=2)
        with Scheduler(workers=1, slice_quanta=512) as scheduler:
            first = scheduler.submit(point)
            second = scheduler.submit(point)  # identical, still in flight
            a = first.result(timeout=120)
            b = second.result(timeout=120)
        assert second.coalesced
        assert a == b
        assert scheduler.stats.coalesced == 1
        assert scheduler.stats.executed == 1

    def test_migration_into_scheduler_via_checkpoint(self):
        """An explicit checkpoint submission resumes exactly where an
        external machine stopped (migration across schedulers)."""
        from repro.machine import Machine

        point = spec(instances=2)
        reference = run_experiment(point, verify=False)
        machine = Machine.from_spec(point)
        machine.spawn_instances()
        machine.run_quanta(16)
        assert not machine.finished
        checkpoint = machine.checkpoint()
        with Scheduler(workers=1) as scheduler:
            job = scheduler.submit(point, checkpoint=checkpoint)
            assert job.result(timeout=120) == reference

    @pytest.mark.parametrize("workers", [0, 1])
    @pytest.mark.parametrize("checkpoint", [
        {"not": "a checkpoint"},
        {"format": CHECKPOINT_FORMAT, "version": CHECKPOINT_VERSION,
         "spec": {"workload": 5}},
        {"format": CHECKPOINT_FORMAT, "version": CHECKPOINT_VERSION + 1},
    ], ids=["foreign", "bad_spec", "other_version"])
    def test_a_document_that_is_no_checkpoint_cold_starts(
        self, workers, checkpoint
    ):
        """A submitted checkpoint is a client's JSON: anything that is
        not a machine checkpoint of the spec runs from cycle 0."""
        point = spec(instances=2)
        reference = run_experiment(point, verify=False)
        with Scheduler(workers=workers) as scheduler:
            job = scheduler.submit(point, checkpoint=checkpoint)
            assert job.result(timeout=120) == reference
