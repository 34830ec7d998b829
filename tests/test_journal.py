"""The crash-safe job journal: framing, replay, recovery, degradation.

The properties under test are the load-bearing ones from the crash
safety design: replay never crashes and always recovers the longest
valid record prefix no matter how the tail was torn or flipped;
recovery folds records idempotently (no job lost, none doubled); and a
journal that cannot write degrades to in-memory instead of failing
submissions.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import CHECKPOINT_FORMAT
from repro.sim.journal import (
    JOURNAL_NAME,
    Journal,
    RecoveredJob,
    recovered_jobs,
    _encode,
)


def record(i, kind="submitted", **extra):
    base = {"type": kind, "job": i}
    if kind == "submitted":
        base.update(
            {"spec": {"workload": "alpha", "instances": i},
             "tenant": "t", "verify": False, "priority": 0,
             "timeout_s": None, "timeout_action": "fail"}
        )
    base.update(extra)
    return base


def ckpt(clock):
    """A stand-in machine checkpoint: the journal only checks its
    format tag."""
    return {"format": CHECKPOINT_FORMAT, "clock": clock}


class TestFraming:
    def test_round_trip(self, tmp_path):
        journal = Journal(tmp_path)
        for i in range(5):
            journal.append(record(i))
        journal.close()
        assert journal.replay() == [record(i) for i in range(5)]

    def test_replay_of_missing_file_is_empty(self, tmp_path):
        assert Journal(tmp_path / "nowhere").replay() == []

    def test_torn_final_line_is_dropped(self, tmp_path):
        journal = Journal(tmp_path)
        journal.append(record(0))
        journal.append(record(1))
        journal.close()
        path = tmp_path / JOURNAL_NAME
        data = path.read_bytes()
        path.write_bytes(data[:-3])  # tear the newline off record 1
        assert journal.replay() == [record(0)]

    def test_truncate_trims_to_valid_prefix(self, tmp_path):
        journal = Journal(tmp_path)
        journal.append(record(0))
        journal.close()
        path = tmp_path / JOURNAL_NAME
        good = path.read_bytes()
        path.write_bytes(good + b"garbage without a frame\n")
        assert journal.replay(truncate=True) == [record(0)]
        assert path.read_bytes() == good

    def test_non_object_payload_is_invalid(self, tmp_path):
        journal = Journal(tmp_path)
        path = tmp_path / JOURNAL_NAME
        path.write_bytes(_encode([1, 2, 3]) + _encode(record(0)))
        # A valid frame around a non-dict payload still ends the prefix.
        assert journal.replay() == []


class TestReplayRobustness:
    """Replay must survive arbitrary tail damage, recovering the
    longest valid prefix — the core crash-safety property."""

    @settings(max_examples=60, deadline=None)
    @given(
        n_records=st.integers(0, 8),
        cut=st.integers(0, 400),
        data=st.data(),
    )
    def test_truncated_tail_recovers_longest_valid_prefix(
        self, tmp_path_factory, n_records, cut, data
    ):
        tmp_path = tmp_path_factory.mktemp("journal")
        journal = Journal(tmp_path)
        records = [record(i) for i in range(n_records)]
        for rec in records:
            journal.append(rec)
        journal.close()
        path = tmp_path / JOURNAL_NAME
        blob = path.read_bytes() if n_records else b""
        path.write_bytes(blob[: max(0, len(blob) - cut)])
        # Which whole records survived the cut?
        lines = []
        offset = 0
        for rec in records:
            offset += len(_encode(rec))
            lines.append(offset)
        expected = sum(
            1 for end in lines if end <= len(blob) - cut
        )
        replayed = journal.replay()
        assert replayed == records[:expected]

    @settings(max_examples=60, deadline=None)
    @given(
        n_records=st.integers(1, 6),
        flip_at=st.integers(0, 10_000),
        flip_bit=st.integers(0, 7),
    )
    def test_bit_flip_never_crashes_and_keeps_a_prefix(
        self, tmp_path_factory, n_records, flip_at, flip_bit
    ):
        tmp_path = tmp_path_factory.mktemp("journal")
        journal = Journal(tmp_path)
        records = [record(i) for i in range(n_records)]
        for rec in records:
            journal.append(rec)
        journal.close()
        path = tmp_path / JOURNAL_NAME
        blob = bytearray(path.read_bytes())
        index = flip_at % len(blob)
        blob[index] ^= 1 << flip_bit
        path.write_bytes(bytes(blob))
        replayed = journal.replay()
        # Never crashes; result is some prefix of the written records.
        assert replayed == records[: len(replayed)]
        # Records wholly before the flipped byte always survive.
        offset = 0
        intact = 0
        for rec in records:
            offset += len(_encode(rec))
            if offset <= index:
                intact += 1
        assert len(replayed) >= intact


class TestRecovery:
    def test_terminal_jobs_are_not_recovered(self):
        records = [
            record(1),
            record(2, instances=99),
            record(1, kind="state", state="done"),
        ]
        # Distinct specs so dedupe cannot conflate them.
        records[1]["spec"] = {"workload": "alpha", "instances": 99}
        pending = recovered_jobs(records)
        assert len(pending) == 1
        assert pending[0].spec_dict["instances"] == 99

    def test_dedupe_never_doubles_a_point(self):
        # The same (tenant, spec, verify) journaled three times — e.g.
        # a client resubmitting across two daemon crashes — recovers
        # exactly once, with the freshest checkpoint ref.
        same = record(1)["spec"]
        records = []
        for job_id in (1, 2, 3):
            rec = record(job_id)
            rec["spec"] = same
            records.append(rec)
        records.append(
            {"type": "checkpoint", "job": 2, "ref": "ckpt/job-2.json"}
        )
        records.append(
            {"type": "checkpoint", "job": 3, "ref": "ckpt/job-3.json"}
        )
        pending = recovered_jobs(records)
        assert len(pending) == 1
        assert pending[0].checkpoint_ref == "ckpt/job-3.json"

    def test_replaying_twice_is_idempotent(self):
        records = [record(1), record(2)]
        records[1]["spec"] = {"workload": "alpha", "instances": 7}
        once = recovered_jobs(records)
        twice = recovered_jobs(records + records)
        assert len(once) == len(twice) == 2

    def test_different_verify_or_tenant_is_a_different_job(self):
        a = record(1)
        b = record(2)
        b["verify"] = True
        c = record(3)
        c["tenant"] = "other"
        assert len(recovered_jobs([a, b, c])) == 3

    def test_malformed_records_are_skipped(self):
        records = [
            {"type": "submitted"},  # no job id, no spec
            {"type": "submitted", "job": 1, "spec": "not a dict"},
            {"type": "state", "job": 99, "state": "done"},
            {"type": "???", "job": 1},
            record(5),
        ]
        pending = recovered_jobs(records)
        assert len(pending) == 1
        assert isinstance(pending[0], RecoveredJob)


class TestCheckpointSideFiles:
    def test_store_and_load(self, tmp_path):
        journal = Journal(tmp_path)
        ref = journal.store_checkpoint("job-7", ckpt(123))
        # The ref is the store object's path relative to the root.
        assert ref.startswith("objects/") and ref.endswith(".job.json")
        assert (tmp_path / ref).is_file()
        assert journal.load_checkpoint(ref) == ckpt(123)

    def test_latest_only(self, tmp_path):
        journal = Journal(tmp_path)
        journal.store_checkpoint("job-7", ckpt(1))
        ref = journal.store_checkpoint("job-7", ckpt(2))
        assert journal.load_checkpoint(ref) == ckpt(2)

    def test_missing_or_hostile_ref_is_none(self, tmp_path):
        journal = Journal(tmp_path)
        assert journal.load_checkpoint("ckpt/never.json") is None
        assert journal.load_checkpoint("../../etc/passwd") is None
        assert journal.load_checkpoint(42) is None

    def test_corrupt_checkpoint_is_none(self, tmp_path):
        journal = Journal(tmp_path)
        ref = journal.store_checkpoint("job-7", ckpt(1))
        (tmp_path / ref).write_text("{broken json")
        assert journal.load_checkpoint(ref) is None
        # Valid JSON that is no machine checkpoint is corrupt too.
        ref = journal.store_checkpoint("job-7", {"not": "a checkpoint"})
        assert journal.load_checkpoint(ref) is None


class TestDegradedMode:
    def test_unwritable_journal_degrades_not_raises(self, tmp_path, capsys):
        # A regular file where the directory should be: every mkdir and
        # open fails with an OSError, on any platform, even as root
        # (chmod-based read-only is a no-op for uid 0).
        blocker = tmp_path / "blocker"
        blocker.write_text("in the way")
        journal = Journal(blocker / "journal")
        journal.append(record(0))
        journal.append(record(1))
        assert journal.degraded
        assert journal.appended == 2
        assert journal.store_checkpoint("job-1", {"clock": 1}) is None
        # Exactly one warning, not one per record.
        err = capsys.readouterr().err
        assert err.count("continuing without crash safety") == 1

    def test_scheduler_submits_fine_on_degraded_journal(self, tmp_path):
        from repro.sim.jobs import Scheduler

        blocker = tmp_path / "blocker"
        blocker.write_text("in the way")
        journal = Journal(blocker / "journal")
        scheduler = Scheduler(workers=0, journal=journal)
        try:
            from repro.sim.experiment import ExperimentSpec

            job = scheduler.submit(
                ExperimentSpec(workload="alpha", instances=1,
                               scale=1 / 8000.0)
            )
            assert job.result() is not None
        finally:
            scheduler.shutdown()
        assert journal.degraded


class TestReset:
    def test_reset_archives_and_restarts(self, tmp_path):
        journal = Journal(tmp_path)
        journal.append(record(0))
        journal.reset()
        assert journal.replay() == []
        assert (tmp_path / "journal.log.old").exists()
        journal.append(record(1))
        assert journal.replay() == [record(1)]


class TestSchedulerJournalIntegration:
    def test_submit_and_complete_round_trip(self, tmp_path):
        from repro.sim.experiment import ExperimentSpec
        from repro.sim.jobs import Scheduler

        journal = Journal(tmp_path)
        scheduler = Scheduler(workers=0, journal=journal)
        try:
            scheduler.submit(
                ExperimentSpec(workload="alpha", instances=1,
                               scale=1 / 8000.0)
            ).result()
        finally:
            scheduler.shutdown()
        journal.close()
        kinds = [rec["type"] for rec in journal.replay()]
        assert kinds[0] == "submitted"
        assert kinds[-1] == "state"
        # Everything terminal: nothing to recover.
        assert recovered_jobs(journal.replay()) == []

    def test_interrupted_job_is_recovered_once(self, tmp_path):
        from repro.machine import spec_to_dict
        from repro.sim.experiment import ExperimentSpec
        from repro.sim.jobs import Scheduler

        spec = ExperimentSpec(workload="alpha", instances=1,
                              scale=1 / 8000.0)
        # Simulate a daemon killed mid-job: it journaled the submission
        # (twice — the client resubmitted after a reconnect) and a
        # lifecycle transition, but never a terminal state.
        journal = Journal(tmp_path)
        for job_id in (1, 2):
            journal.append({
                "type": "submitted", "job": job_id, "tenant": "default",
                "spec": spec_to_dict(spec), "verify": False,
                "priority": 0, "timeout_s": None,
                "timeout_action": "fail",
            })
        journal.append({"type": "state", "job": 1, "state": "running"})
        journal.close()

        journal2 = Journal(tmp_path)
        scheduler2 = Scheduler(workers=0, journal=journal2)
        try:
            # Deduped to one job despite two submitted records; the
            # workers=0 scheduler runs it inline to completion.
            assert scheduler2.recover() == 1
            assert scheduler2.stats.jobs_recovered == 1
            assert scheduler2.stats.journal_replays == 1
            # Idempotent: a second recover finds a reset journal.
            assert scheduler2.recover() == 0
        finally:
            scheduler2.shutdown()

    def test_older_record_with_priority_and_timeout_replays(self, tmp_path):
        """A ``submitted`` record written with priority and timeout
        fields is still recovered and runs to the straight outcome."""
        from repro.machine import spec_to_dict
        from repro.sim.experiment import ExperimentSpec, run_experiment
        from repro.sim.jobs import Scheduler

        spec = ExperimentSpec(workload="alpha", instances=1,
                              scale=1 / 8000.0)
        journal = Journal(tmp_path)
        journal.append({
            "type": "submitted", "job": 1, "tenant": "default",
            "spec": spec_to_dict(spec), "verify": False,
            "priority": 5, "timeout_s": 60.0, "timeout_action": "demote",
        })
        journal.close()

        scheduler = Scheduler(workers=0, journal=Journal(tmp_path))
        try:
            assert scheduler.recover() == 1
            (job,) = scheduler._jobs.values()
            assert job.result() == run_experiment(spec, verify=False)
        finally:
            scheduler.shutdown()

    @pytest.mark.parametrize("workers", [0, 1])
    def test_job_checkpoint_that_is_not_a_checkpoint_cold_starts(
        self, tmp_path, workers
    ):
        """A journaled job checkpoint that is valid JSON but no machine
        checkpoint is dropped: the recovered job cold-starts to the
        straight run's outcome, inline and on a worker."""
        from repro.machine import spec_to_dict
        from repro.sim.experiment import ExperimentSpec, run_experiment
        from repro.sim.jobs import Scheduler

        spec = ExperimentSpec(workload="alpha", instances=1,
                              scale=1 / 8000.0)
        journal = Journal(tmp_path)
        journal.append({
            "type": "submitted", "job": 1, "tenant": "default",
            "spec": spec_to_dict(spec), "verify": False,
        })
        ref = journal.store_checkpoint("job-1", {"not": "a checkpoint"})
        journal.append({"type": "checkpoint", "job": 1, "ref": ref})
        journal.close()

        scheduler = Scheduler(workers=workers, journal=Journal(tmp_path))
        try:
            assert scheduler.recover() == 1
            (job,) = scheduler._jobs.values()
            assert job.result(timeout=120) == run_experiment(
                spec, verify=False
            )
        finally:
            scheduler.shutdown()
