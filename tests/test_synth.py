"""Profiler-driven custom-instruction synthesis (mining → adoption)."""

import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.hashmix import build_hash_program, hash_mix
from repro.config import MachineConfig
from repro.errors import SynthesisError
from repro.fabric.validate import SecurityPolicy, validate_bitstream
from repro.machine import Machine
from repro.sim.experiment import (
    ExperimentSpec,
    outcome_to_dict,
    run_experiment,
)
from repro.synth.adopt import synthesise
from repro.synth.mine import mine_candidates
from repro.synth.plan import SynthesisPlan, plan_from_dict, plan_to_dict

CONFIG = MachineConfig()
PLAN = SynthesisPlan()

#: Small but fast experiment points (hash items scale with this).
SCALE = 1e-4


def _hash_program(items=64):
    return build_hash_program(items)


class TestPlan:
    def test_defaults_valid(self):
        assert PLAN.max_circuits_per_process >= 1

    def test_rejects_bad_values(self):
        with pytest.raises(SynthesisError):
            SynthesisPlan(min_executions=0)
        with pytest.raises(SynthesisError):
            SynthesisPlan(min_window=0)
        with pytest.raises(SynthesisError):
            SynthesisPlan(max_window=2, min_window=4)

    def test_dict_roundtrip(self):
        plan = SynthesisPlan(min_executions=5, trigger_instructions=123)
        assert plan_from_dict(plan_to_dict(plan)) == plan


class TestMining:
    def test_hash_window_mined(self):
        """The designed six-instruction mixing window is found exactly."""
        [cand] = mine_candidates(_hash_program(), PLAN, CONFIG)
        assert (cand.start, cand.end) == (5, 11)
        assert cand.inputs == (0, 1)
        assert cand.out_reg == 0
        assert cand.count == 64
        assert cand.hw_cycles < cand.sw_cycles
        assert cand.clbs <= CONFIG.pfu_clbs

    def test_mining_is_deterministic(self):
        program = _hash_program()
        assert (
            mine_candidates(program, PLAN, CONFIG)
            == mine_candidates(program, PLAN, CONFIG)
        )

    def test_cold_window_not_mined(self):
        """Below the execution threshold nothing is worth a bitstream."""
        plan = SynthesisPlan(min_executions=1000)
        assert mine_candidates(_hash_program(), plan, CONFIG) == []


class TestAdoption:
    def test_synthesised_circuit_matches_software(self):
        """The composed element graph computes exactly what the mined
        window's instructions compute."""
        (adoption,), _ = synthesise(
            _hash_program(), replace(CONFIG, synthesis=PLAN)
        )
        compute = adoption.spec.behaviour.compute
        # input_a carries r0 (the accumulator), input_b carries r1 (the
        # loaded word); the window is one hash_mix round.
        assert compute(0, 0, []) == hash_mix(0, 0)
        assert compute(7, 0xDEADBEEF, []) == hash_mix(0xDEADBEEF, 7)

    @given(
        acc=st.integers(min_value=0, max_value=0xFFFFFFFF),
        value=st.integers(min_value=0, max_value=0xFFFFFFFF),
    )
    @settings(max_examples=40)
    def test_synthesised_circuit_matches_software_exhaustively(
        self, acc, value
    ):
        compute = _ADOPTION.spec.behaviour.compute
        assert compute(acc, value, []) == hash_mix(value, acc)

    def test_synthesised_bitstream_validates(self):
        """Adopted circuits pass the same OS security policy the CIS
        applies to hand-written registrations."""
        config = replace(CONFIG, synthesis=PLAN)
        (adoption,), _ = synthesise(_hash_program(), config)
        instance = adoption.spec.instantiate(pid=1, config=config)
        policy = SecurityPolicy(max_clbs=config.pfu_clbs, max_state_words=64)
        assert validate_bitstream(instance.bitstream, policy).ok

    def test_rewrite_preserves_program_length_prefix(self):
        """The covered window is replaced in place; every instruction
        index before the appended soft routine is preserved, so branch
        targets and the PC need no relocation."""
        program = _hash_program()
        (adoption,), rewritten = synthesise(
            program, replace(CONFIG, synthesis=PLAN)
        )
        old = program.image.instructions
        new = rewritten.image.instructions
        assert len(new) > len(old)
        for index in range(len(old)):
            if adoption.start <= index < adoption.end:
                continue
            assert new[index] == old[index], index

    def test_synthesise_requires_a_plan(self):
        with pytest.raises(SynthesisError):
            synthesise(_hash_program(), CONFIG)


# One shared adoption for the hypothesis property above (synthesise is
# memoised per (program, config), but hypothesis re-runs the function
# body per example).
_ADOPTION = synthesise(_hash_program(), replace(CONFIG, synthesis=PLAN))[0][0]


def _spec(instances=2, synthesis=PLAN, **kwargs):
    return ExperimentSpec(
        workload="hash",
        instances=instances,
        quantum_ms=1.0,
        scale=SCALE,
        synthesis=synthesis,
        **kwargs,
    )


class TestRuntimeAdoption:
    def test_synthesis_beats_baseline(self):
        off = run_experiment(_spec(synthesis=None), verify=True)
        on = run_experiment(_spec(), verify=True)
        assert on.cis["registrations"] >= 1
        assert on.makespan < off.makespan
        assert on.verified and off.verified

    def test_disabled_by_default(self):
        spec = ExperimentSpec(workload="hash", instances=1, scale=SCALE)
        outcome = run_experiment(spec)
        assert spec.synthesis is None
        assert outcome.cis["registrations"] == 0

    def test_outcome_identical_across_tiers(self, monkeypatch):
        outcomes = []
        for tier in ("step", "closure", "block", "jit"):
            monkeypatch.setenv("REPRO_EXEC_TIER", tier)
            outcomes.append(
                outcome_to_dict(run_experiment(_spec(), verify=True))
            )
        assert all(payload == outcomes[0] for payload in outcomes[1:])

    def test_checkpoint_resume_bit_identical(self):
        """Resuming across the adoption point (or before it) replays the
        same synthesis decision and converges on the same bytes."""
        spec = _spec()
        straight = Machine.from_spec(spec)
        straight.spawn_instances()
        straight.run()
        want = json.dumps(
            outcome_to_dict(straight.outcome(verify=True)), sort_keys=True
        )
        for quanta in (1, 20, 500):
            machine = Machine.from_spec(spec)
            machine.spawn_instances()
            machine.run_quanta(quanta)
            resumed = Machine.resume(
                json.loads(json.dumps(machine.checkpoint()))
            )
            resumed.run()
            got = json.dumps(
                outcome_to_dict(resumed.outcome(verify=True)), sort_keys=True
            )
            assert got == want, quanta

    def test_adoption_survives_checkpoint_registration_record(self):
        """The checkpoint carries the synth descriptor, and the resumed
        kernel rebuilds the same rewritten program from it."""
        spec = _spec(instances=1)
        machine = Machine.from_spec(spec)
        machine.spawn_instances()
        # Quanta are tiny at this scale (~10 cycles); run well past the
        # retired-instruction trigger so adoption has happened.
        machine.run_quanta(600)
        assert not machine.finished
        snap = machine.checkpoint()
        registrations = [
            entry
            for proc in snap["kernel"]["processes"].values()
            for entry in proc["registrations"]
        ]
        assert any(entry.get("synth") for entry in registrations)


class TestSpecKeyDiscipline:
    def test_serialised_spec_omits_disabled_synthesis(self):
        """synthesis=None must not appear in the serialised spec, so
        every pre-PR cache entry and checkpoint stays valid
        byte-for-byte."""
        from repro.machine import spec_to_dict

        spec = ExperimentSpec(workload="alpha", instances=2, scale=SCALE)
        assert "synthesis" not in spec_to_dict(spec)
        assert "synthesis" in spec_to_dict(replace(spec, synthesis=PLAN))

    def test_serialised_spec_roundtrips_plan(self):
        from repro.machine import spec_from_dict, spec_to_dict

        spec = _spec(synthesis=SynthesisPlan(min_executions=5))
        assert spec_from_dict(spec_to_dict(spec)) == spec

    def test_spec_key_changes_when_enabled(self):
        base = ExperimentSpec(workload="hash", instances=2, scale=SCALE)
        enabled = replace(base, synthesis=PLAN)
        assert base.spec_key() != enabled.spec_key()

    def test_plan_changes_key(self):
        one = replace(_spec(), synthesis=SynthesisPlan(min_executions=16))
        two = replace(_spec(), synthesis=SynthesisPlan(min_executions=17))
        assert one.spec_key() != two.spec_key()
