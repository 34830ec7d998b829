"""Speculative configuration prefetch: prediction, transfer, pinning."""

import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import adder_spec, same_on_every_tier
from repro.core.dispatch import DispatchKind
from repro.errors import PrefetchError
from repro.kernel.porsche import Porsche
from repro.kernel.predict import TransferEngine, TransitionModel
from repro.kernel.replacement import make_policy
from repro.machine import Machine
from repro.prefetch import PrefetchPlan, plan_from_dict, plan_to_dict
from repro.sim.experiment import (
    ExperimentSpec,
    outcome_from_dict,
    outcome_to_dict,
    run_experiment,
)
from repro.sim.runner import SweepRunner
from repro.trace.sinks import RingBufferSink

PLAN = PrefetchPlan()

POLICIES = ("round_robin", "random", "lru", "second_chance")


class TestPlan:
    def test_defaults_valid(self):
        assert PLAN.min_confidence_pct == 60
        assert PLAN.steal_victims

    def test_rejects_bad_values(self):
        with pytest.raises(PrefetchError):
            PrefetchPlan(min_confidence_pct=0)
        with pytest.raises(PrefetchError):
            PrefetchPlan(min_confidence_pct=101)
        with pytest.raises(PrefetchError):
            PrefetchPlan(min_observations=0)
        with pytest.raises(PrefetchError):
            PrefetchPlan(due_margin_pct=100)

    def test_dict_roundtrip(self):
        plan = PrefetchPlan(min_confidence_pct=75, due_margin_pct=10)
        assert plan_from_dict(plan_to_dict(plan)) == plan


class TestTransitionModel:
    def _trained(self, transitions, plan=PLAN, pid=1):
        """Feed ``transitions`` (a CID sequence) as pid's dispatches."""
        model = TransitionModel(plan)
        for cid in transitions:
            model.observe(pid, cid, "hit")
        return model

    def test_no_prediction_before_min_observations(self):
        model = self._trained([1, 2] * PLAN.min_observations)
        # min_observations switches out of CID 1 have been seen, but
        # only min_observations - 1 out of CID 2.
        assert model.predict_next(1, 1) is not None
        assert model.predict_next(1, 2) is None

    def test_confidence_gate(self):
        # Out of CID 1: three switches to 2, three to 3 -> 50% < 60%.
        model = self._trained([1, 2, 1, 3, 1, 2, 1, 3, 1, 2, 1, 3, 1])
        assert model.predict_next(1, 1) is None

    def test_tie_breaks_to_smallest_cid(self):
        plan = PrefetchPlan(min_confidence_pct=50, min_observations=2)
        model = self._trained([1, 3, 1, 2, 1, 3, 1, 2, 1], plan=plan)
        next_cid, confidence = model.predict_next(1, 1)
        assert next_cid == 2
        assert confidence == 50

    def test_alternating_pattern_predicted(self):
        model = self._trained([1, 2] * 8)
        next_cid, confidence = model.predict_next(1, 1)
        assert (next_cid, confidence) == (2, 100)

    def test_per_pid_isolation(self):
        model = TransitionModel(PLAN)
        for cid in [1, 2] * 8:
            model.observe(1, cid, "hit")
        assert model.predict_next(2, 1) is None

    def test_alternating_always_due(self):
        """Mean run length 1: the switch is always imminent."""
        model = self._trained([1, 2] * 8)
        assert model.due(1, 1)
        assert model.due(1, 2)

    def test_long_phase_due_only_near_end(self):
        """Mean run 16: early in a run a switch is not due, late it is."""
        phases = ([1] * 16 + [2] * 16) * 4 + [1]
        model = self._trained(phases)
        assert not model.due(1, 1)  # streak 1 of ~16
        for _ in range(12):
            model.observe(1, 1, "hit")
        assert not model.due(1, 1)  # streak 13: still outside the margin
        model.observe(1, 1, "hit")
        assert model.due(1, 1)  # streak 14: inside the last quarter

    def test_predicted_protects_current_circuit_mid_run(self):
        """Until due, the expected-next circuit is the one running now."""
        phases = ([1] * 16 + [2] * 16) * 4 + [1]
        model = self._trained(phases)
        assert model.predicted(1) == 1
        for _ in range(13):
            model.observe(1, 1, "hit")
        assert model.predicted(1) == 2

    def test_switch_bias_pct(self):
        model = self._trained([1, 1, 1, 2])
        assert model.switch_bias_pct(1, 1) == 33  # 1 switch / 3 dispatches
        assert model.switch_bias_pct(1, 2) is None

    def test_forget_drops_everything(self):
        model = self._trained([1, 2] * 8)
        model.forget(1)
        assert model.predict_next(1, 1) is None
        assert model.last_cid(1) is None
        assert model.snapshot() == TransitionModel(PLAN).snapshot()

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=4),  # pid
                st.integers(min_value=1, max_value=6),  # cid
            ),
            max_size=60,
        )
    )
    @settings(max_examples=60)
    def test_snapshot_roundtrips_bit_identically(self, events):
        model = TransitionModel(PLAN)
        for pid, cid in events:
            model.observe(pid, cid, "hit")
        snap = json.loads(json.dumps(model.snapshot()))
        clone = TransitionModel(PLAN)
        clone.restore(snap)
        assert clone.snapshot() == model.snapshot()
        for pid in {pid for pid, _ in events}:
            assert clone.predicted(pid) == model.predicted(pid)
            last = model.last_cid(pid)
            if last is not None:
                assert clone.predict_next(pid, last) == (
                    model.predict_next(pid, last)
                )


class TestTransferEngine:
    def test_demand_traffic_stalls_the_stream(self):
        engine = TransferEngine()
        engine.start(pid=1, cid=2, pfu=0, total=100, now=50)
        assert engine.remaining(now=50) == 100
        engine.demand_traffic(30)
        assert engine.remaining(now=50) == 130
        assert engine.remaining(now=200) == 0  # finished, awaiting settle

    def test_demand_traffic_without_transfer_is_free(self):
        engine = TransferEngine()
        engine.demand_traffic(500)  # no-op, must not raise
        assert not engine.busy

    def test_pins_only_its_target(self):
        engine = TransferEngine()
        engine.start(pid=1, cid=2, pfu=3, total=10, now=0)
        assert engine.pinned(3)
        assert not engine.pinned(0)
        engine.cancel()
        assert not engine.pinned(3)

    def test_one_in_flight_only(self):
        engine = TransferEngine()
        engine.start(pid=1, cid=2, pfu=0, total=10, now=0)
        with pytest.raises(AssertionError):
            engine.start(pid=2, cid=3, pfu=1, total=10, now=0)

    def test_snapshot_roundtrips_mid_flight(self):
        engine = TransferEngine()
        engine.start(pid=1, cid=2, pfu=3, total=100, now=7)
        engine.demand_traffic(13)
        snap = json.loads(json.dumps(engine.snapshot()))
        clone = TransferEngine()
        clone.restore(snap)
        assert clone.snapshot() == engine.snapshot()
        assert clone.matches(1, 2) and clone.pinned(3)
        assert clone.remaining(now=7) == 113


# Reference points captured before the transfer-cost arithmetic was
# deduplicated into CIS._charged_transfer and before the predictive
# layer landed.  Prefetch is off (the default) here: every makespan and
# every demand-side counter must stay exact.
GOLDEN = [
    # (workload, instances, quantum_ms, items,
    #  makespan, loads, evictions, static, state, kernel)
    ("echo", 2, 10.0, 64, 4563, 4, 0, 137_132, 400, 162),
    ("echo", 3, 1.0, 64, 30_118, 576, 572, 19_747_008, 114_800, 22_475),
    ("alpha", 2, 10.0, 48, 2145, 2, 0, 84_048, 144, 98),
    ("twofish", 2, 10.0, 8, 1111, 2, 0, 110_592, 256, 124),
    ("echo", 5, 1.0, 64, 50_200, 960, 956, 32_911_680, 191_600, 37_461),
]


class TestChargedTransferRegression:
    @pytest.mark.parametrize(
        "workload,instances,quantum_ms,items,makespan,loads,evictions,"
        "static,state,kernel",
        GOLDEN,
    )
    def test_demand_accounting_unchanged(
        self, workload, instances, quantum_ms, items,
        makespan, loads, evictions, static, state, kernel,
    ):
        spec = ExperimentSpec(
            workload=workload, instances=instances,
            quantum_ms=quantum_ms, items=items, seed=7,
        )
        outcome = run_experiment(spec, verify=True)
        assert outcome.verified
        assert outcome.makespan == makespan
        assert outcome.cis["loads"] == loads
        assert outcome.cis["evictions"] == evictions
        assert outcome.cis["static_bytes_moved"] == static
        assert outcome.cis["state_bytes_moved"] == state
        assert outcome.cis["kernel_cycles"] == kernel


def _prefetch_kernel(config, policy_name, **overrides):
    cfg = config.derive(prefetch=PLAN, **overrides)
    return Porsche(cfg, make_policy(policy_name, seed=7))


def _spawn_registered(kernel, name, cid=1):
    from repro.cpu.program import Program

    program = Program.from_source(
        f"stub-{name}", "main: NOP\nHALT",
        circuit_table=[adder_spec(name)],
    )
    process = kernel.spawn(program)
    kernel.cis.register(process, cid=cid, table_index=0, soft_address=None)
    return process


class TestPinnedEviction:
    @pytest.mark.parametrize("policy_name", POLICIES)
    @pytest.mark.parametrize("pinned_index", range(4))
    def test_no_policy_evicts_a_mid_transfer_pfu(
        self, config, policy_name, pinned_index
    ):
        """Satellite guarantee: whatever the replacement policy and
        whichever PFU the engine streams into, a demand swap never
        selects the pinned PFU while other victims exist."""
        kernel = _prefetch_kernel(config, policy_name)
        residents = [
            _spawn_registered(kernel, f"c{i}", cid=1) for i in range(4)
        ]
        for process in residents:
            kernel.cis.handle_fault(process, cid=1)
        # Pin one resident's PFU: a speculative transfer is in flight to
        # it on behalf of residents[0] (a CID it has not registered —
        # settle never fires because the end lies far in the future).
        kernel.cis.engine.start(
            pid=residents[0].pid, cid=99, pfu=pinned_index,
            total=10**9, now=kernel.trace.now(),
        )
        pinned_owner = next(
            p for p in residents
            if p.registration(1).pfu_index == pinned_index
        )
        demander = _spawn_registered(kernel, "late", cid=1)
        __, action = kernel.cis.handle_fault(demander, cid=1)
        assert action == "swap"
        assert pinned_owner.registration(1).pfu_index == pinned_index

    def test_all_pinned_degrades_to_demand_load(self, config):
        """Demand beats speculation: when the pin leaves nothing to
        evict, the prefetch is cancelled and its target PFU reclaimed
        for a plain demand load — never a kill, never a stall."""
        kernel = _prefetch_kernel(config, "round_robin", pfu_count=1)
        owner = _spawn_registered(kernel, "spec", cid=1)
        # The single (free) PFU is mid-transfer for `owner`'s circuit.
        kernel.cis.engine.start(
            pid=owner.pid, cid=99, pfu=0,
            total=10**9, now=kernel.trace.now(),
        )
        demander = _spawn_registered(kernel, "demand", cid=1)
        __, action = kernel.cis.handle_fault(demander, cid=1)
        assert action == "load"
        assert demander.registration(1).pfu_index == 0
        assert kernel.cis.engine.entry is None
        assert kernel.trace.counters.prefetch.cancelled == {"demand": 1}


class TestPartialHit:
    def test_fault_mid_stream_waits_out_the_remainder(self, config):
        """A fault on the CID whose speculative stream is still in
        flight pays only the untransferred remainder, then maps."""
        kernel = _prefetch_kernel(config, "round_robin")
        process = _spawn_registered(kernel, "spec", cid=1)
        ring = kernel.trace.attach(RingBufferSink(capacity=64))
        total = 400
        kernel.cis.engine.start(
            pid=process.pid, cid=1, pfu=2, total=total,
            now=kernel.trace.now(),
        )
        kernel.clock += 150
        remaining = total - 150
        cycles, action = kernel.cis.handle_fault(process, cid=1)
        assert action == "prefetch"
        assert cycles == (
            config.fault_entry_cycles + remaining + config.tlb_update_cycles
        )
        hits = [event for event in ring if event.kind == "prefetch_hit"]
        assert [(hit.cid, hit.pfu, hit.overlap) for hit in hits] == [
            (1, 2, total - remaining)
        ]
        assert kernel.trace.counters.prefetch.hits == 1
        assert kernel.cis.engine.entry is None
        resolved = kernel.coprocessor.resolve(process.pid, 1)
        assert resolved.kind is DispatchKind.HARDWARE
        assert resolved.pfu_index == 2


SCALE = 1e-3


def _spec(workload="echo", instances=5, prefetch=PLAN, **kwargs):
    kwargs.setdefault("items", 64)
    return ExperimentSpec(
        workload=workload,
        instances=instances,
        quantum_ms=1.0,
        scale=SCALE,
        seed=7,
        prefetch=prefetch,
        **kwargs,
    )


class TestRuntimePrefetch:
    def test_prefetch_beats_baseline_under_contention(self):
        off = run_experiment(_spec(prefetch=None), verify=True)
        on = run_experiment(_spec(), verify=True)
        assert off.verified and on.verified
        assert on.makespan < off.makespan
        assert on.prefetch["issued"] > 0
        assert on.prefetch["hits"] > 0
        assert on.prefetch["overlap_cycles"] > 0

    def test_disabled_by_default(self):
        spec = ExperimentSpec(workload="echo", instances=2, items=64)
        assert spec.prefetch is None
        outcome = run_experiment(spec)
        assert outcome.prefetch == {}

    def test_outcome_dict_roundtrip(self):
        outcome = run_experiment(_spec(instances=3), verify=True)
        payload = outcome_to_dict(outcome)
        assert payload["prefetch"] == outcome.prefetch
        clone = outcome_from_dict(payload)
        assert clone.prefetch == outcome.prefetch

    def test_outcome_identical_across_tiers(self, monkeypatch):
        same_on_every_tier(monkeypatch, lambda: outcome_to_dict(
            run_experiment(_spec(instances=3), verify=True)
        ))

    def test_jobs_bit_identical(self):
        specs = [_spec(instances=n) for n in (2, 3)]
        serial = SweepRunner(jobs=1).run(specs, verify=True)
        parallel = SweepRunner(jobs=2).run(specs, verify=True)
        assert [outcome_to_dict(o) for o in serial] == [
            outcome_to_dict(o) for o in parallel
        ]

    def test_checkpoint_resume_bit_identical(self):
        spec = _spec(instances=3)
        straight = Machine.from_spec(spec)
        straight.spawn_instances()
        straight.run()
        want = json.dumps(
            outcome_to_dict(straight.outcome(verify=True)), sort_keys=True
        )
        for quanta in (1, 25, 120):
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

    def test_checkpoint_resume_mid_transfer(self):
        """A checkpoint taken while the engine holds an in-flight
        speculative transfer must resume to the same bytes — the
        transfer's absolute end cycle rides through JSON.  The bursty
        workload leaves transfers in flight at many quantum boundaries
        (echo's are always resolved within the faulting quantum)."""
        spec = _spec(workload="burst", instances=3, items=None)
        straight = Machine.from_spec(spec)
        straight.spawn_instances()
        straight.run()
        want = json.dumps(
            outcome_to_dict(straight.outcome(verify=True)), sort_keys=True
        )
        machine = Machine.from_spec(spec)
        machine.spawn_instances()
        caught = False
        while not machine.finished:
            machine.run_quanta(1)
            if machine.kernel.cis.engine.entry is not None:
                caught = True
                break
        assert caught, "no quantum boundary caught a transfer in flight"
        snap = json.loads(json.dumps(machine.checkpoint()))
        assert snap["kernel"]["prefetch"]["engine"]["entry"] is not None
        resumed = Machine.resume(snap)
        assert resumed.kernel.cis.engine.entry == (
            machine.kernel.cis.engine.entry
        )
        resumed.run()
        got = json.dumps(
            outcome_to_dict(resumed.outcome(verify=True)), sort_keys=True
        )
        assert got == want


class TestSpecKeyDiscipline:
    def test_serialised_spec_omits_disabled_prefetch(self):
        """prefetch=None must not appear in the serialised spec, so
        every pre-PR cache entry and checkpoint stays valid
        byte-for-byte."""
        from repro.machine import spec_to_dict

        spec = ExperimentSpec(workload="echo", instances=2, items=64)
        assert "prefetch" not in spec_to_dict(spec)
        assert "prefetch" in spec_to_dict(replace(spec, prefetch=PLAN))

    def test_serialised_spec_roundtrips_plan(self):
        from repro.machine import spec_from_dict, spec_to_dict

        spec = _spec(prefetch=PrefetchPlan(min_confidence_pct=80))
        assert spec_from_dict(spec_to_dict(spec)) == spec

    def test_spec_key_changes_when_enabled(self):
        base = ExperimentSpec(workload="echo", instances=2, items=64)
        assert base.spec_key() != replace(base, prefetch=PLAN).spec_key()

    def test_plan_changes_key(self):
        one = _spec(prefetch=PrefetchPlan(due_margin_pct=20))
        two = _spec(prefetch=PrefetchPlan(due_margin_pct=25))
        assert one.spec_key() != two.spec_key()

    def test_outcome_dict_omits_disabled_prefetch(self):
        outcome = run_experiment(_spec(instances=2, prefetch=None))
        assert "prefetch" not in outcome_to_dict(outcome)

    def test_checkpoint_omits_disabled_prefetch(self):
        machine = Machine.from_spec(_spec(instances=2, prefetch=None))
        machine.spawn_instances()
        machine.run_quanta(5)
        snap = machine.checkpoint()
        assert "prefetch" not in snap["kernel"]
        for proc in snap["kernel"]["processes"].values():
            for entry in proc["registrations"]:
                assert "prefetched" not in entry
