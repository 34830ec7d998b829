"""PFUs: the init/done handshake and status register of §4.4, and the
usage counters of §4.5."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import adder_spec, counter_spec
from repro.config import MachineConfig
from repro.core.circuit import CircuitSpec
from repro.core.pfu import PFU, PFUBank
from repro.errors import PFUError
from repro.fabric.elements import ElementGraph, PhaseMachine

CONFIG = MachineConfig()


def loaded_pfu(spec=None) -> PFU:
    pfu = PFU(index=0, clb_capacity=500)
    pfu.load((spec or adder_spec(latency=4)).instantiate(1, CONFIG))
    return pfu


class TestLoading:
    def test_status_resets_high_on_fresh_load(self):
        assert loaded_pfu().status == 1

    def test_oversized_circuit_rejected(self):
        pfu = PFU(index=0, clb_capacity=50)
        with pytest.raises(PFUError):
            pfu.load(adder_spec(clbs=100).instantiate(1, CONFIG))

    def test_unload_returns_instance(self):
        pfu = loaded_pfu()
        instance = pfu.unload()
        assert instance.spec.name == "adder"
        assert not pfu.configured

    def test_unload_empty_rejected(self):
        with pytest.raises(PFUError):
            PFU(index=0, clb_capacity=500).unload()

    def test_load_in_flight_instance_sets_status_low(self):
        """A circuit evicted mid-instruction resumes with init low."""
        source = loaded_pfu()
        source.step(1, 2, 2)  # 2 of 4 cycles
        instance = source.unload()
        dest = PFU(index=1, clb_capacity=500)
        dest.load(instance)
        assert dest.status == 0


class TestExecution:
    def test_complete_in_one_burst(self):
        pfu = loaded_pfu()
        assert pfu.step(10, 20, 10) == (4, 30)
        assert pfu.status == 1

    def test_interrupt_and_transparent_reissue(self):
        """§4.4: re-issuing with status low continues, ignoring operands."""
        pfu = loaded_pfu()
        assert pfu.step(10, 20, 1) == (1, None)
        assert pfu.status == 0
        # Re-issue with *different* operands: they must be ignored.
        assert pfu.step(999, 999, 10) == (3, 30)

    def test_issue_without_circuit_rejected(self):
        with pytest.raises(PFUError):
            PFU(index=0, clb_capacity=500).step(1, 2, 0)

    def test_status_low_with_nothing_in_flight_rejected(self):
        pfu = loaded_pfu()
        pfu.status = 0
        with pytest.raises(PFUError):
            pfu.step(1, 2, 10)

    def test_phase_machine_selector_naming_no_phase_rejected(self):
        """The circuit is asked for its latency before the instruction
        starts, so an issue in a phase the machine lacks raises and
        leaves the PFU idle: a later issue starts fresh."""
        graph = ElementGraph("pass")
        graph.set_output(graph.input_a())
        machine = PhaseMachine("stream", selector=0)
        machine.phase(0, graph, latency=2)
        spec = CircuitSpec(
            name="stream", behaviour=machine.as_behaviour(), clb_count=1,
            app_state_words=1, initial_state=(7,),
        )
        pfu = loaded_pfu(spec)
        with pytest.raises(PFUError, match="^stream: no phase 7$"):
            pfu.step(1, 2, 10)
        assert pfu.total_completions == 0
        pfu.instance.state[0] = 0
        assert pfu.step(5, 2, 10) == (2, 5)

    def test_busy_cycle_accounting(self):
        pfu = loaded_pfu()
        pfu.step(1, 2, 3)
        pfu.step(0, 0, 5)
        assert pfu.total_busy_cycles == 4

    @given(cuts=st.lists(st.integers(min_value=1, max_value=3), max_size=8))
    @settings(max_examples=50)
    def test_interruption_pattern_never_changes_result(self, cuts):
        """Any interruption pattern yields the same result and the same
        total busy cycles as uninterrupted execution."""
        pfu = loaded_pfu(adder_spec(latency=7))
        total = 0
        result = None
        operands = (123, 456)
        for cut in cuts:
            cycles, result = pfu.step(*operands, cut)
            total += cycles
            if result is not None:
                break
            operands = (0, 0)  # transparent re-issue
        if result is None:
            cycles, result = pfu.step(*operands, 100)
            total += cycles
        assert result == 579
        assert total == 7


class TestUsageCounters:
    def test_counts_completions_not_issues(self):
        """§4.5: the count is taken at the END of the instruction so
        interrupted-and-reissued instructions count once."""
        pfu = loaded_pfu()
        pfu.step(1, 2, 1)  # interrupted
        assert pfu.usage_counter == 0
        pfu.step(0, 0, 10)  # completes
        assert pfu.usage_counter == 1

    def test_read_and_clear(self):
        pfu = loaded_pfu(adder_spec(latency=1))
        for _ in range(3):
            pfu.step(1, 1, 5)
        assert pfu.read_and_clear_usage() == 3
        assert pfu.read_and_clear_usage() == 0
        assert pfu.total_completions == 3  # lifetime stat unaffected


class TestBank:
    def test_build(self):
        bank = PFUBank.build(4, 500)
        assert len(bank) == 4
        assert not any(pfu.configured for pfu in bank)

    def test_build_rejects_zero(self):
        with pytest.raises(PFUError):
            PFUBank.build(0, 500)

    def test_configured_and_free_partition(self):
        bank = PFUBank.build(3, 500)
        bank.pfu(0).load(adder_spec().instantiate(1, CONFIG))
        assert [pfu.configured for pfu in bank] == [True, False, False]

    def test_index_bounds(self):
        with pytest.raises(PFUError):
            PFUBank.build(2, 500).pfu(5)
