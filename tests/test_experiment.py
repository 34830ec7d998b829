"""Experiment harness: scaling invariants and run outcomes."""

from dataclasses import fields

import pytest

from repro.config import PAPER_CONFIG_BYTES, PAPER_CYCLES_PER_MS, MachineConfig
from repro.errors import ExperimentError
from repro.plans import PLANS
from repro.sim.experiment import ExperimentSpec, build_kernel, run_experiment
from repro.sim.scaling import scaled_config

SCALE = 1 / 8000  # tiny but well-formed workloads for fast tests


class TestScaledConfig:
    def test_paper_scale_is_faithful(self):
        config = scaled_config(1.0)
        assert config.cycles_per_ms == PAPER_CYCLES_PER_MS
        assert config.config_bus_bytes_per_cycle == 1
        assert config.context_switch_cycles == 150

    def test_load_to_quantum_ratio_is_preserved(self):
        """The key invariant: config-load cycles / quantum cycles stays
        within ~25% of the paper value at any scale."""
        paper = scaled_config(1.0, quantum_ms=1.0)
        paper_ratio = (
            paper.transfer_cycles(PAPER_CONFIG_BYTES) / paper.quantum_cycles
        )
        for scale in (1e-1, 1e-2, 1e-3, 1e-4):
            config = scaled_config(scale, quantum_ms=1.0)
            ratio = (
                config.transfer_cycles(PAPER_CONFIG_BYTES)
                / config.quantum_cycles
            )
            assert abs(ratio - paper_ratio) / paper_ratio < 0.25, scale

    def test_quantum_in_paper_milliseconds(self):
        config = scaled_config(1e-3, quantum_ms=10.0)
        assert config.quantum_cycles == 1000

    def test_invalid_scale_rejected(self):
        with pytest.raises(Exception):
            scaled_config(0)
        with pytest.raises(Exception):
            scaled_config(2.0)

    def test_overrides_pass_through(self):
        config = scaled_config(1e-3, pfu_count=2)
        assert config.pfu_count == 2


class TestSpec:
    def test_rejects_zero_instances(self):
        with pytest.raises(ExperimentError):
            ExperimentSpec(workload="alpha", instances=0)

    def test_rejects_unknown_architecture(self):
        with pytest.raises(ExperimentError):
            ExperimentSpec(workload="alpha", instances=1, architecture="gpu")

    def test_resolve_items_defaults_to_scaled(self):
        spec = ExperimentSpec(workload="alpha", instances=1, scale=1e-3)
        assert spec.resolve_items() == 6200

    def test_explicit_items_override(self):
        spec = ExperimentSpec(workload="alpha", instances=1, items=10)
        assert spec.resolve_items() == 10

    def test_soft_flag_reaches_config(self):
        spec = ExperimentSpec(workload="alpha", instances=1, soft=True)
        assert spec.build_config().prefer_software_when_full

    def test_build_kernel_architecture(self):
        from repro.baselines.prisc import PriscPorsche

        spec = ExperimentSpec(
            workload="alpha", instances=1, architecture="prisc"
        )
        assert isinstance(build_kernel(spec), PriscPorsche)

    @pytest.mark.parametrize("name", sorted(PLANS))
    def test_registered_plan_rides_spec_and_config(self, name):
        """Every registry entry is an off-by-default field of both the
        spec and the config, reaches the config, and round-trips its
        codec."""
        for owner in (ExperimentSpec, MachineConfig):
            (field,) = [f for f in fields(owner) if f.name == name]
            assert field.default is None
        entry = PLANS[name]
        plan = entry.type()
        spec = ExperimentSpec(workload="alpha", instances=1, **{name: plan})
        assert getattr(spec.build_config(), name) == plan
        assert entry.from_dict(entry.to_dict(plan)) == plan


class TestRunExperiment:
    def test_single_instance(self):
        outcome = run_experiment(
            ExperimentSpec(workload="alpha", instances=1, scale=SCALE)
        )
        assert outcome.verified
        assert outcome.makespan > 0
        assert len(outcome.completions) == 1

    def test_makespan_is_max_completion(self):
        outcome = run_experiment(
            ExperimentSpec(workload="alpha", instances=3, scale=SCALE)
        )
        assert outcome.makespan == max(outcome.completions)
        assert len(outcome.completions) == 3

    def test_contention_counters_appear(self):
        outcome = run_experiment(
            ExperimentSpec(
                workload="alpha",
                instances=6,
                quantum_ms=1.0,
                scale=SCALE,
            )
        )
        assert outcome.cis["evictions"] > 0

    def test_soft_runs_defer_instead_of_evicting(self):
        outcome = run_experiment(
            ExperimentSpec(
                workload="alpha",
                instances=6,
                quantum_ms=1.0,
                soft=True,
                scale=SCALE,
            )
        )
        assert outcome.cis["soft_deferrals"] >= 2
        assert outcome.cis["evictions"] == 0

    def test_verification_catches_nothing_on_good_runs(self):
        outcome = run_experiment(
            ExperimentSpec(workload="echo", instances=2, scale=SCALE),
            verify=True,
        )
        assert outcome.verified

    def test_per_process_cycles_reported(self):
        outcome = run_experiment(
            ExperimentSpec(workload="alpha", instances=2, scale=SCALE)
        )
        assert len(outcome.process_cycles) == 2
        assert all(cpu > 0 for cpu, __ in outcome.process_cycles)

    def test_determinism(self):
        spec = ExperimentSpec(
            workload="twofish", instances=3, quantum_ms=1.0, scale=SCALE,
            policy="random", seed=5,
        )
        first = run_experiment(spec, verify=False)
        second = run_experiment(spec, verify=False)
        assert first.makespan == second.makespan
        assert first.completions == second.completions
