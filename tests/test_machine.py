"""The Machine facade: lifecycle, checkpoints, and resume fidelity.

The headline invariant under test: checkpoint at a quantum boundary,
serialise to JSON, restore (even in a fresh interpreter), run to
completion — and every measurable outcome is bit-identical to the
uninterrupted run.
"""

import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import CheckpointError, Machine
from repro.errors import PlacementError
from repro.config import EXEC_TIERS, MachineConfig
from repro.machine import CHECKPOINT_FORMAT, CHECKPOINT_VERSION
from repro.sim.experiment import ExperimentSpec, run_experiment

SCALE = 1 / 8000


def spec(**overrides) -> ExperimentSpec:
    values = dict(workload="alpha", instances=2, quantum_ms=1.0, scale=SCALE)
    values.update(overrides)
    return ExperimentSpec(**values)


def outcome_fields(outcome) -> tuple:
    """Everything a checkpointed run must reproduce bit-identically."""
    return (
        outcome.makespan,
        outcome.completions,
        outcome.kernel_stats,
        outcome.cis,
        outcome.process_cycles,
    )


class TestLifecycle:
    def test_from_spec_runs_like_run_experiment(self):
        reference = run_experiment(spec())
        machine = Machine.from_spec(spec())
        machine.spawn_instances()
        machine.run()
        assert machine.finished
        assert outcome_fields(machine.outcome()) == outcome_fields(reference)

    def test_spawn_instances_assigns_sequential_pids(self):
        machine = Machine.from_spec(spec(instances=3))
        processes = machine.spawn_instances()
        assert [p.pid for p in processes] == [1, 2, 3]

    def test_run_quanta_counts_executed_quanta(self):
        machine = Machine.from_spec(spec())
        machine.spawn_instances()
        assert machine.run_quanta(5) == 5
        assert machine.stats.quanta == 5
        assert not machine.finished

    def test_run_quanta_stops_at_completion(self):
        machine = Machine.from_spec(spec())
        machine.spawn_instances()
        executed = machine.run_quanta(10**9)
        assert machine.finished
        assert executed == machine.stats.quanta

    @pytest.mark.parametrize("tier", EXEC_TIERS)
    @pytest.mark.parametrize("architecture", ["proteus", "prisc", "memmap"])
    def test_finished_run_leaves_no_cyclic_garbage(
        self, tier, architecture, monkeypatch
    ):
        """A finished machine is freed by reference counting alone.  A
        burst allocates almost nothing, so the cyclic collector seldom
        runs: a machine kept only by reference cycles would stay in
        memory across the points of a sweep."""
        monkeypatch.setenv("REPRO_EXEC_TIER", tier)
        gc.collect()
        gc.disable()
        try:
            run_experiment(
                spec(instances=3, soft=True, architecture=architecture),
                verify=True,
            )
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_architecture_selects_kernel(self):
        from repro.baselines.prisc import PriscPorsche

        assert isinstance(
            Machine.from_spec(spec(architecture="prisc")).kernel, PriscPorsche
        )
        assert not isinstance(
            Machine.from_spec(spec()).kernel, PriscPorsche
        )


@pytest.mark.parametrize("architecture", ["proteus", "prisc", "memmap"])
class TestCheckpointRoundTrip:
    def test_resume_is_bit_identical(self, architecture):
        point = spec(architecture=architecture)
        reference = run_experiment(point)

        machine = Machine.from_spec(point)
        machine.spawn_instances()
        machine.run_quanta(7)
        # Full JSON round-trip: what survives serialisation is what a
        # fresh interpreter would see.
        checkpoint = json.loads(json.dumps(machine.checkpoint()))
        resumed = Machine.resume(checkpoint)
        resumed.run()
        assert outcome_fields(resumed.outcome()) == outcome_fields(reference)

    def test_checkpoint_document_shape(self, architecture):
        machine = Machine.from_spec(spec(architecture=architecture))
        machine.spawn_instances()
        machine.run_quanta(3)
        checkpoint = machine.checkpoint()
        assert checkpoint["format"] == CHECKPOINT_FORMAT
        assert checkpoint["version"] == CHECKPOINT_VERSION
        assert checkpoint["clock"] == machine.clock
        assert checkpoint["quanta"] == 3
        # Round-trips losslessly through JSON text.
        assert json.loads(json.dumps(checkpoint)) == checkpoint

    def test_resumed_machine_continues_from_the_boundary(self, architecture):
        machine = Machine.from_spec(spec(architecture=architecture))
        machine.spawn_instances()
        machine.run_quanta(5)
        resumed = Machine.resume(machine.checkpoint())
        assert resumed.clock == machine.clock
        assert resumed.stats == machine.stats
        assert sorted(resumed.processes) == sorted(machine.processes)


class TestFreshInterpreter:
    def test_resume_in_a_new_process(self, tmp_path):
        """Save to disk, finish the run in a brand-new interpreter."""
        point = spec()
        reference = run_experiment(point)

        machine = Machine.from_spec(point)
        machine.spawn_instances()
        machine.run_quanta(9)
        path = tmp_path / "machine.json"
        machine.save_checkpoint(path)

        script = (
            "import json, sys\n"
            "from repro import Machine\n"
            "machine = Machine.load_checkpoint(sys.argv[1])\n"
            "machine.run()\n"
            "outcome = machine.outcome()\n"
            "print(json.dumps({'makespan': outcome.makespan,"
            " 'completions': outcome.completions,"
            " 'quanta': outcome.kernel_stats.quanta,"
            " 'process_cycles': outcome.process_cycles}))\n"
        )
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        result = subprocess.run(
            [sys.executable, "-c", script, str(path)],
            capture_output=True, text=True, env=env, check=True,
        )
        report = json.loads(result.stdout)
        assert report["makespan"] == reference.makespan
        assert report["completions"] == reference.completions
        assert report["quanta"] == reference.kernel_stats.quanta
        assert report["process_cycles"] == [
            list(pair) for pair in reference.process_cycles
        ]


class TestRunCapturing:
    def test_captures_a_late_checkpoint(self):
        machine = Machine.from_spec(spec())
        machine.spawn_instances()
        captured = machine.run_capturing(base_quanta=4)
        assert machine.finished
        assert captured is not None
        # Doubling marks keep only the latest snapshot, which must lie
        # in the second half of the run for warm starts to pay off.
        assert captured["quanta"] * 2 > machine.stats.quanta // 2

        reference = run_experiment(spec())
        resumed = Machine.resume(json.loads(json.dumps(captured)))
        resumed.run()
        assert outcome_fields(resumed.outcome()) == outcome_fields(reference)

    def test_short_runs_capture_nothing(self):
        machine = Machine.from_spec(spec())
        machine.spawn_instances()
        assert machine.run_capturing(base_quanta=10**9) is None
        assert machine.finished


class TestRefusals:
    def test_config_machines_cannot_checkpoint(self):
        machine = Machine.from_config(MachineConfig())
        with pytest.raises(CheckpointError):
            machine.checkpoint()

    def test_checkpoint_before_spawn_refused(self):
        machine = Machine.from_spec(spec())
        with pytest.raises(CheckpointError):
            machine.checkpoint()

    def test_resume_rejects_foreign_documents(self):
        with pytest.raises(CheckpointError):
            Machine.resume({"format": "something-else"})

    def test_resume_rejects_future_versions(self):
        machine = Machine.from_spec(spec())
        machine.spawn_instances()
        machine.run_quanta(1)
        checkpoint = machine.checkpoint()
        checkpoint["version"] = CHECKPOINT_VERSION + 1
        with pytest.raises(CheckpointError):
            Machine.resume(checkpoint)

    def test_resume_checks_resident_image_capacity(self):
        """A resident image read from disk meets the same capacity
        check as a live load: it cannot overfill its region."""
        machine = Machine.from_spec(spec())
        machine.spawn_instances()
        machine.run_quanta(20)
        checkpoint = machine.checkpoint()
        regions = checkpoint["kernel"]["coprocessor"]["array"]["regions"]
        resident = next(r["resident"] for r in regions if r["resident"])
        resident["clb_count"] = 1_000_000
        with pytest.raises(PlacementError):
            Machine.resume(checkpoint)
