"""Circuit specs and instances, including interruption context."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import adder_spec, counter_spec
from repro.config import MachineConfig
from repro.core.circuit import (
    CircuitSpec,
    EXECUTION_CONTEXT_WORDS,
    FunctionBehaviour,
)
from repro.errors import PFUError
from repro.fabric.elements import ElementGraph

CONFIG = MachineConfig()
MASK32 = 0xFFFFFFFF


def _mix_spec() -> CircuitSpec:
    """A library-composed stateful circuit: out = (a * b) ^ state[0],
    with the result folded back into the state word."""
    graph = ElementGraph("mix")
    product = graph.apply(
        "wrap", graph.apply("mul", graph.input_a(), graph.input_b())
    )
    mixed = graph.apply("eor", product, graph.state(0))
    graph.set_state(0, mixed)
    graph.set_output(mixed)
    return CircuitSpec.compose("mix", graph, app_state_words=1)


class TestSpec:
    def test_state_words_include_execution_context(self):
        spec = adder_spec(state_words=3)
        assert spec.state_words == 3 + EXECUTION_CONTEXT_WORDS

    def test_rejects_zero_clbs(self):
        with pytest.raises(PFUError):
            CircuitSpec(
                name="bad",
                behaviour=FunctionBehaviour(fn=lambda a, b, s: 0),
                clb_count=0,
            )

    def test_rejects_negative_state(self):
        with pytest.raises(PFUError):
            adder_spec(state_words=-1)

    def test_rejects_overlong_initial_state(self):
        with pytest.raises(PFUError):
            CircuitSpec(
                name="bad",
                behaviour=FunctionBehaviour(fn=lambda a, b, s: 0),
                clb_count=1,
                app_state_words=1,
                initial_state=(1, 2),
            )

    def test_bitstream_sizes_follow_config(self):
        spec = adder_spec(clbs=CONFIG.pfu_clbs)
        bitstream = spec.build_bitstream(CONFIG)
        assert bitstream.static_bytes == CONFIG.config_bytes_per_pfu
        assert bitstream.state_words == spec.state_words

    def test_instantiate_pads_initial_state(self):
        spec = CircuitSpec(
            name="padded",
            behaviour=FunctionBehaviour(fn=lambda a, b, s: 0),
            clb_count=10,
            app_state_words=4,
            initial_state=(7,),
        )
        instance = spec.instantiate(pid=1, config=CONFIG)
        assert instance.state == [7, 0, 0, 0]


class TestInvocation:
    def test_begin_returns_latency(self):
        instance = adder_spec(latency=5).instantiate(1, CONFIG)
        assert instance.begin(1, 2) == 5

    def test_advance_to_completion(self):
        instance = adder_spec(latency=3).instantiate(1, CONFIG)
        instance.begin(10, 20)
        assert instance.advance(3) == 30
        assert not instance.busy
        assert instance.completions == 1

    def test_partial_advance(self):
        instance = adder_spec(latency=5).instantiate(1, CONFIG)
        instance.begin(1, 2)
        assert instance.advance(2) is None
        assert instance.remaining_cycles() == 3
        assert instance.advance(3) == 3

    def test_overshoot_consumes_only_remaining(self):
        instance = adder_spec(latency=2).instantiate(1, CONFIG)
        instance.begin(1, 2)
        assert instance.advance(100) == 3

    def test_double_begin_rejected(self):
        instance = adder_spec().instantiate(1, CONFIG)
        instance.begin(1, 2)
        with pytest.raises(PFUError):
            instance.begin(3, 4)

    def test_advance_without_begin_rejected(self):
        with pytest.raises(PFUError):
            adder_spec().instantiate(1, CONFIG).advance(1)

    def test_negative_advance_rejected(self):
        instance = adder_spec().instantiate(1, CONFIG)
        instance.begin(1, 2)
        with pytest.raises(PFUError):
            instance.advance(-1)

    def test_operands_masked(self):
        instance = adder_spec(latency=1).instantiate(1, CONFIG)
        instance.begin(-1, 1)
        assert instance.advance(1) == 0  # 0xFFFFFFFF + 1 wraps

    def test_stateful_circuit_mutates_state(self):
        instance = counter_spec().instantiate(1, CONFIG)
        for expected in (1, 2, 3):
            instance.begin(0, 0)
            assert instance.advance(10) == expected


class TestStateMovement:
    def test_capture_restore_idle(self):
        instance = counter_spec().instantiate(1, CONFIG)
        instance.begin(0, 0)
        instance.advance(10)
        words = instance.capture_words()
        clone = counter_spec().instantiate(1, CONFIG)
        clone.restore_words(words)
        assert clone.state == instance.state
        assert not clone.busy

    def test_capture_restore_mid_flight(self):
        """An in-flight invocation survives eviction (§4.1 + §4.4)."""
        instance = adder_spec(latency=6).instantiate(1, CONFIG)
        instance.begin(100, 200)
        instance.advance(2)
        words = instance.capture_words()

        resumed = adder_spec(latency=6).instantiate(1, CONFIG)
        resumed.restore_words(words)
        assert resumed.busy
        assert resumed.remaining_cycles() == 4
        assert resumed.advance(4) == 300

    def test_restore_wrong_length_rejected(self):
        instance = adder_spec().instantiate(1, CONFIG)
        with pytest.raises(PFUError):
            instance.restore_words([0])

    def test_restore_masks_corrupted_words(self):
        """A fault-corrupted state section is clamped to the 32 bits a
        CLB register can actually hold, not fed raw into compute()."""
        instance = counter_spec().instantiate(1, CONFIG)
        instance.restore_words(
            [(1 << 40) | 5, 1, (1 << 36) | 2, (1 << 33) | 7, -1]
        )
        assert instance.state == [5]
        assert instance.busy
        assert instance.cycles_done == 2
        assert instance.latched_a == 7
        assert instance.latched_b == MASK32

    def test_restore_negative_cycles_rejected(self):
        """A negative completed-cycle count has no hardware meaning; it
        must be refused, not wrapped into a huge remaining latency."""
        instance = adder_spec().instantiate(1, CONFIG)
        with pytest.raises(PFUError):
            instance.restore_words([1, -3, 0, 0])

    @given(
        latency=st.integers(min_value=1, max_value=20),
        cut=st.integers(min_value=0, max_value=19),
        a=st.integers(min_value=0, max_value=0xFFFFFFFF),
        b=st.integers(min_value=0, max_value=0xFFFFFFFF),
    )
    @settings(max_examples=60)
    def test_snapshot_at_any_cut_point_resumes_correctly(
        self, latency, cut, a, b
    ):
        cut = min(cut, latency - 1)
        instance = adder_spec(latency=latency).instantiate(1, CONFIG)
        instance.begin(a, b)
        assert instance.advance(cut) is None or cut >= latency
        words = instance.capture_words()
        resumed = adder_spec(latency=latency).instantiate(1, CONFIG)
        resumed.restore_words(words)
        assert resumed.advance(latency - cut) == (a + b) & 0xFFFFFFFF


class TestLibraryComposedState:
    """capture_words/restore_words round-trips on a spec built from the
    FU element library — the path every synthesised circuit takes."""

    @given(
        a=st.integers(min_value=0, max_value=0xFFFFFFFF),
        b=st.integers(min_value=0, max_value=0xFFFFFFFF),
        seed_state=st.integers(min_value=0, max_value=0xFFFFFFFF),
    )
    @settings(max_examples=50)
    def test_roundtrip_idle(self, a, b, seed_state):
        instance = _mix_spec().instantiate(1, CONFIG)
        instance.restore_words([seed_state, 0, 0, 0, 0])
        instance.begin(a, b)
        instance.advance(instance.remaining_cycles())
        words = instance.capture_words()
        clone = _mix_spec().instantiate(1, CONFIG)
        clone.restore_words(words)
        assert clone.capture_words() == words
        assert clone.state == [((a * b) & MASK32) ^ seed_state]
        assert not clone.busy

    @given(
        a=st.integers(min_value=0, max_value=0xFFFFFFFF),
        b=st.integers(min_value=0, max_value=0xFFFFFFFF),
        seed_state=st.integers(min_value=0, max_value=0xFFFFFFFF),
        cut=st.integers(min_value=0, max_value=30),
    )
    @settings(max_examples=50)
    def test_roundtrip_in_flight(self, a, b, seed_state, cut):
        """An interrupted invocation moves to a fresh instance through
        the state words and completes with the same result and state."""
        instance = _mix_spec().instantiate(1, CONFIG)
        instance.restore_words([seed_state, 0, 0, 0, 0])
        total = instance.begin(a, b)
        instance.advance(min(cut, total - 1))
        words = instance.capture_words()

        clone = _mix_spec().instantiate(1, CONFIG)
        clone.restore_words(words)
        assert clone.capture_words() == words
        assert clone.busy
        expected = ((a * b) & MASK32) ^ seed_state
        assert clone.advance(clone.remaining_cycles()) == expected
        assert instance.advance(instance.remaining_cycles()) == expected
        assert clone.state == instance.state == [expected]
