"""Fault injection and kernel recovery (dependability campaigns).

The injector must be deterministic (same plan, same upsets, across exec
tiers, worker counts, and checkpoint/resume), invisible when disabled,
and the kernel must survive every injected fault under the fallback
policy without killing a process.
"""

import json
from dataclasses import replace

import pytest

from conftest import same_on_every_tier
from repro.config import MachineConfig
from repro.errors import ReproError
from repro.faults import (
    FAULT_KINDS,
    RECOVERY_POLICIES,
    FaultInjector,
    FaultPlan,
    plan_from_dict,
    plan_to_dict,
)
from repro.kernel.porsche import Porsche
from repro.machine import Machine, spec_from_dict, spec_to_dict
from repro.sim.campaign import (
    CampaignConfig,
    campaign_specs,
    render_campaign,
    run_campaign,
)
from repro.sim.experiment import ExperimentSpec, run_experiment
from repro.sim.runner import SweepRunner

SCALE = 0.000125

#: A hostile-environment plan exercising every fault kind and detector.
NOISY = FaultPlan(
    seed=9,
    config_upset_rate=0.05,
    datapath_error_rate=0.05,
    transfer_error_rate=0.1,
    state_upset_rate=0.1,
    scrub_interval_quanta=8,
)


def fault_spec(plan, instances=3, seed=2, **overrides):
    return ExperimentSpec(
        workload="alpha",
        instances=instances,
        quantum_ms=1.0,
        scale=SCALE,
        seed=seed,
        fault_plan=plan,
        **overrides,
    )


class TestFaultPlan:
    def test_defaults_are_disabled(self):
        assert not FaultPlan().enabled

    def test_any_rate_enables(self):
        assert FaultPlan(config_upset_rate=0.1).enabled
        assert FaultPlan(schedule=((3, "datapath"),)).enabled

    @pytest.mark.parametrize("rate", [-0.1, 1.5])
    def test_rates_validated(self, rate):
        with pytest.raises(ReproError):
            FaultPlan(config_upset_rate=rate)

    def test_recovery_validated(self):
        with pytest.raises(ReproError):
            FaultPlan(recovery="pray")

    def test_schedule_kind_validated(self):
        with pytest.raises(ReproError):
            FaultPlan(schedule=((0, "gamma_ray"),))

    def test_dict_roundtrip(self):
        plan = FaultPlan(
            seed=4, schedule=((1, "config"), (5, "datapath")),
            recovery="quarantine", transfer_error_rate=0.25,
        )
        rebuilt = plan_from_dict(json.loads(json.dumps(plan_to_dict(plan))))
        assert rebuilt == plan

    def test_policy_and_kind_tables(self):
        assert RECOVERY_POLICIES == ("reload", "fallback", "quarantine")
        assert FAULT_KINDS == ("config", "datapath")


class TestInjectorDeterminism:
    def test_same_seed_same_stream(self, coprocessor):
        draws = []
        for _ in range(2):
            injector = FaultInjector(FaultPlan(seed=3, transfer_error_rate=0.5))
            draws.append([injector.transfer_fails() for _ in range(32)])
        assert draws[0] == draws[1]
        assert any(draws[0]) and not all(draws[0])

    def test_zero_rates_draw_nothing(self, coprocessor):
        injector = FaultInjector(FaultPlan(seed=3))
        before = injector.rng.getstate()
        injector.advance_quantum(coprocessor)
        assert not injector.transfer_fails()
        assert injector.rng.getstate() == before

    def test_snapshot_restore_roundtrip(self, coprocessor):
        injector = FaultInjector(
            FaultPlan(seed=5, config_upset_rate=0.5, datapath_error_rate=0.5)
        )
        for _ in range(4):
            injector.advance_quantum(coprocessor)
        injector.upsets[2] = 0xDEAD
        injector.strike(1)
        injector.quarantine(3)
        state = json.loads(json.dumps(injector.snapshot()))

        clone = FaultInjector(injector.plan)
        clone.restore(state)
        assert clone.snapshot() == injector.snapshot()
        assert [clone.transfer_fails() for _ in range(8)] == [
            injector.transfer_fails() for _ in range(8)
        ]

    def test_quarantine_clears_live_faults(self):
        injector = FaultInjector(FaultPlan())
        injector.upsets[1] = 7
        injector.armed[1] = 9
        injector.quarantine(1)
        assert injector.is_quarantined(1)
        assert injector.completion_effect(1) is None
        assert injector.upset_regions() == []

    def test_completion_effect_consumes_datapath_not_config(self):
        injector = FaultInjector(FaultPlan())
        injector.armed[0] = 5
        injector.upsets[0] = 6
        assert injector.completion_effect(0) == ("datapath", 5)
        assert injector.completion_effect(0) == ("config", 6)
        assert injector.completion_effect(0) == ("config", 6)


class TestDisabledPlanInvariance:
    def test_spec_key_has_no_fault_plan_when_none(self):
        spec = ExperimentSpec("alpha", 2)
        assert spec.fault_plan is None
        # The key hashes a payload with the null field removed, so it is
        # byte-identical to keys minted before fault injection existed —
        # and a cached result minted then still hits now.
        keyed = ExperimentSpec("alpha", 2, fault_plan=FaultPlan())
        assert keyed.spec_key() != spec.spec_key()

    def test_checkpoint_spec_dict_omits_null_plan(self):
        spec = ExperimentSpec("alpha", 2)
        payload = spec_to_dict(spec)
        assert "fault_plan" not in payload
        assert spec_from_dict(payload) == spec

    def test_spec_dict_roundtrips_plan(self):
        spec = fault_spec(NOISY)
        payload = json.loads(json.dumps(spec_to_dict(spec)))
        assert spec_from_dict(payload) == spec
        assert spec_from_dict(payload).spec_key() == spec.spec_key()

    def test_disabled_run_reports_no_fault_metrics(self):
        outcome = run_experiment(
            ExperimentSpec("alpha", 1, quantum_ms=1.0, scale=SCALE),
            verify=True,
        )
        assert outcome.faults == {}


class TestInjectedRuns:
    def test_same_plan_bit_identical(self):
        first = run_experiment(fault_spec(NOISY), verify=True)
        second = run_experiment(fault_spec(NOISY), verify=True)
        assert first == second
        assert sum(first.faults["injected"].values()) > 0

    def test_schedule_only_plan_is_exact(self):
        plan = FaultPlan(seed=1, schedule=((6, "config"), (8, "datapath")))
        outcome = run_experiment(fault_spec(plan), verify=True)
        injected = outcome.faults["injected"]
        assert injected.get("config", 0) == 1
        assert injected.get("datapath", 0) == 1

    def test_bit_identical_across_exec_tiers(self, monkeypatch):
        plan = replace(NOISY, recovery="quarantine", quarantine_strikes=2)

        def run():
            outcome = run_experiment(fault_spec(plan), verify=True)
            return outcome.makespan, outcome.completions, outcome.faults

        same_on_every_tier(monkeypatch, run)

    def test_bit_identical_across_jobs(self):
        specs = [fault_spec(NOISY, seed=s) for s in (0, 1, 2, 3)]
        serial = SweepRunner(jobs=1).run(specs, verify=True)
        parallel = SweepRunner(jobs=4).run(specs, verify=True)
        assert serial == parallel

    def test_checkpoint_resume_bit_identical(self):
        spec = fault_spec(replace(NOISY, recovery="fallback"))
        straight = run_experiment(spec, verify=True)

        machine = Machine.from_spec(spec)
        machine.spawn_instances()
        machine.run_quanta(16)
        checkpoint = json.loads(json.dumps(machine.checkpoint()))
        resumed = Machine.resume(checkpoint)
        resumed.run()
        assert resumed.outcome(verify=True) == straight

    def test_metrics_shape(self):
        outcome = run_experiment(fault_spec(NOISY), verify=True)
        faults = outcome.faults
        for key in (
            "injected", "detected", "recovered", "quarantined",
            "recovery_cycles", "mean_recovery_latency",
            "silent_corruptions", "state_corruptions",
            "killed", "wrong_outputs", "availability",
        ):
            assert key in faults
        assert 0.0 < faults["availability"] <= 1.0


class TestRecoveryPolicies:
    def test_fallback_never_kills(self):
        # The acceptance bar: under the fallback policy every injected
        # fault degrades to the software alternative, never to a kill.
        plan = replace(NOISY, recovery="fallback")
        for seed in range(4):
            outcome = run_experiment(fault_spec(plan, seed=seed), verify=True)
            assert outcome.faults["killed"] == 0
            assert all(cycle > 0 for cycle in outcome.completions)

    def test_reload_repairs_config_upsets(self):
        plan = FaultPlan(
            seed=2, config_upset_rate=0.2, scrub_interval_quanta=4,
            recovery="reload",
        )
        outcome = run_experiment(fault_spec(plan), verify=True)
        faults = outcome.faults
        assert faults["recovered"].get("reload", 0) > 0
        assert faults["quarantined"] == 0

    def test_quarantine_retires_striking_pfus(self):
        plan = replace(
            NOISY, recovery="quarantine", quarantine_strikes=1,
            config_upset_rate=0.2,
        )
        spec = fault_spec(plan)
        machine = Machine.from_spec(spec)
        machine.spawn_instances()
        machine.run()
        outcome = machine.outcome(verify=True)
        assert outcome.faults["quarantined"] > 0
        injector = machine.kernel.injector
        bank = machine.kernel.coprocessor.pfus
        # A quarantined PFU is retired for good: nothing may be resident.
        for index in injector.quarantined:
            assert not bank.pfu(index).configured
        assert outcome.faults["killed"] == 0

    def test_all_quarantined_degrades_to_software(self):
        # Even with the whole fabric retired, alpha's software
        # alternative keeps every process running.
        spec = fault_spec(FaultPlan(seed=1), instances=2)
        machine = Machine.from_spec(spec)
        injector = machine.kernel.injector
        assert injector is not None
        for pfu in machine.kernel.coprocessor.pfus:
            injector.quarantine(pfu.index)
        machine.spawn_instances()
        machine.run()
        outcome = machine.outcome(verify=True)
        assert outcome.faults["killed"] == 0
        assert all(
            not pfu.configured for pfu in machine.kernel.coprocessor.pfus
        )

    def test_transfer_retries_are_bounded(self):
        # Every transfer fails; the kernel must give up after the bounded
        # retries (accepting a corrupt image) instead of spinning forever.
        plan = FaultPlan(
            seed=3, transfer_error_rate=1.0, max_load_retries=2,
            scrub_interval_quanta=4, recovery="reload",
        )
        outcome = run_experiment(fault_spec(plan, instances=1), verify=True)
        faults = outcome.faults
        assert faults["injected"].get("transfer", 0) > 0
        assert faults["detected"].get("scrub", 0) > 0

    def test_parity_off_makes_datapath_faults_silent(self):
        plan = FaultPlan(seed=4, datapath_error_rate=0.3, parity_check=False)
        outcome = run_experiment(fault_spec(plan), verify=True)
        faults = outcome.faults
        assert faults["detected"].get("parity", 0) == 0
        assert faults["silent_corruptions"] > 0


class TestCampaign:
    def config(self, **overrides):
        values = dict(
            workload="alpha", instances=2, trials=2, scale=SCALE,
            quantum_ms=1.0, seed=7,
        )
        values.update(overrides)
        return CampaignConfig(**values)

    def test_specs_policy_major(self):
        config = self.config()
        specs = campaign_specs(config)
        assert len(specs) == len(config.policies) * config.trials
        assert [s.fault_plan.recovery for s in specs] == [
            "reload", "reload", "fallback", "fallback",
            "quarantine", "quarantine",
        ]
        # Distinct injector stream per trial, distinct data per trial.
        assert len({s.fault_plan.seed for s in specs}) == config.trials
        assert {s.seed for s in specs} == {0, 1}

    def test_bad_policy_rejected(self):
        with pytest.raises(Exception):
            self.config(policies=("reboot",))

    def test_csv_deterministic_across_runs(self):
        config = self.config(trials=1, policies=("fallback",))
        first = run_campaign(config, SweepRunner())
        second = run_campaign(config, SweepRunner())
        assert first.to_csv() == second.to_csv()
        assert first.to_csv().count("\n") == 1  # header + one row

    def test_report_aggregates_per_policy(self):
        config = self.config(policies=("reload", "fallback"))
        report = run_campaign(config, SweepRunner())
        summary = report.by_policy()
        assert list(summary) == ["reload", "fallback"]
        assert summary["fallback"]["killed"] == 0
        assert all(agg["trials"] == 2 for agg in summary.values())
        rendered = render_campaign(report)
        assert "reload" in rendered and "fallback" in rendered


class TestConfigPlumbing:
    def test_config_carries_plan(self):
        config = MachineConfig(fault_plan=NOISY)
        kernel = Porsche(config)
        assert kernel.injector is not None
        assert kernel.injector.plan == NOISY
        assert kernel.coprocessor.injector is kernel.injector

    def test_no_plan_no_injector(self, kernel):
        assert kernel.injector is None
        assert kernel.coprocessor.injector is None
