"""The assembled Proteus coprocessor."""

import pytest

from conftest import adder_spec, counter_spec
from repro.core.tlb import IDTuple
from repro.errors import DispatchError, PFUError


def load(coprocessor, pfu_index, spec, pid=1):
    instance = spec.instantiate(pid, coprocessor.config)
    moved = coprocessor.load_circuit(pfu_index, instance)
    return instance, moved


class TestRegisterTransfers:
    def test_mcr_mrc(self, coprocessor):
        coprocessor.mcr(3, 0xDEAD)
        assert coprocessor.mrc(3) == 0xDEAD


class TestExecution:
    def test_execute_completes_and_writes_fd(self, coprocessor):
        load(coprocessor, 0, adder_spec(latency=2))
        coprocessor.mcr(0, 40)
        coprocessor.mcr(1, 2)
        cycles, result = coprocessor.execute(0, fd=2, fn=0, fm=1,
                                             max_cycles=10)
        assert result is not None
        assert cycles == 2
        assert coprocessor.mrc(2) == 42

    def test_execute_interrupted_leaves_fd_untouched(self, coprocessor):
        load(coprocessor, 0, adder_spec(latency=5))
        coprocessor.mcr(0, 1)
        coprocessor.mcr(1, 2)
        cycles, result = coprocessor.execute(0, 2, 0, 1, max_cycles=2)
        assert result is None
        assert coprocessor.mrc(2) == 0
        # Continue.
        cycles, result = coprocessor.execute(0, 2, 0, 1, max_cycles=10)
        assert result is not None
        assert coprocessor.mrc(2) == 3

    def test_zero_budget_is_a_noop(self, coprocessor):
        load(coprocessor, 0, adder_spec())
        cycles, result = coprocessor.execute(0, 2, 0, 1, max_cycles=0)
        assert cycles == 0 and result is None

    @pytest.mark.parametrize(
        "fd, fn, fm, named",
        [(99, 98, 97, 98), (99, 0, 97, 97), (99, 0, 1, 99)],
    )
    def test_missing_register_named_in_operand_order(
        self, coprocessor, fd, fn, fm, named
    ):
        """``execute`` and the compiled tiers' CDP sites raise the same
        error: the first missing register of ``fn``, ``fm``, ``fd``."""
        load(coprocessor, 0, adder_spec())
        coprocessor.check_operands(2, 0, 1)  # all present: no error
        for call in (
            lambda: coprocessor.check_operands(fd, fn, fm),
            lambda: coprocessor.execute(0, fd, fn, fm, max_cycles=10),
        ):
            with pytest.raises(DispatchError, match=rf"\bf{named} out"):
                call()

    def test_completion_hook_only_with_an_injector(self, coprocessor):
        from repro.faults import FaultInjector, FaultPlan

        assert coprocessor.completion_hook is None
        coprocessor.injector = FaultInjector(FaultPlan(seed=3))
        hook = coprocessor.completion_hook
        assert hook is not None
        load(coprocessor, 0, adder_spec())
        pfu = coprocessor.pfus.pfu(0)
        pfu.step(1, 2, 10, hook)
        assert pfu.total_completions == 1


class TestConfigurationMovement:
    def test_load_moves_static_plus_state(self, coprocessor):
        spec = adder_spec(clbs=coprocessor.config.pfu_clbs)
        instance, moved = load(coprocessor, 0, spec)
        assert moved == (
            instance.bitstream.static_bytes + instance.bitstream.state_bytes
        )

    def test_unload_moves_only_state(self, coprocessor):
        """Eviction saves the state section, not 54 KB (§4.1)."""
        spec = adder_spec(clbs=coprocessor.config.pfu_clbs)
        instance, __ = load(coprocessor, 0, spec)
        __, saved = coprocessor.unload_circuit(0)
        assert saved == instance.bitstream.state_bytes
        assert saved * 20 < instance.bitstream.static_bytes
        # Whole frames move whatever the words hold: a stateful circuit
        # saves the same bytes after several executes.
        counter, __ = load(coprocessor, 1, counter_spec())
        for __ in range(5):
            coprocessor.execute(1, 2, 0, 1, max_cycles=10)
        assert counter.state == [5]
        __, saved = coprocessor.unload_circuit(1)
        assert saved == counter.bitstream.state_bytes

    def test_reload_same_circuit_without_reuse_pays_full_static(
        self, coprocessor
    ):
        """The paper's experiments disable static-image reuse (§5.1)."""
        assert not coprocessor.config.reuse_resident_static
        spec = adder_spec()
        instance, first = load(coprocessor, 0, spec)
        coprocessor.unload_circuit(0)
        moved = coprocessor.load_circuit(0, instance)
        assert moved == first

    def test_reload_with_reuse_moves_only_state(self, config):
        from repro.core.coprocessor import ProteusCoprocessor

        coprocessor = ProteusCoprocessor(
            config=config.derive(reuse_resident_static=True)
        )
        spec = adder_spec()
        instance, __ = load(coprocessor, 0, spec)
        coprocessor.unload_circuit(0)
        moved = coprocessor.load_circuit(0, instance)
        assert moved == instance.bitstream.state_bytes

    def test_load_into_occupied_pfu_rejected(self, coprocessor):
        load(coprocessor, 0, adder_spec())
        with pytest.raises(PFUError):
            load(coprocessor, 0, adder_spec("other"))

    def test_unload_unmaps_dispatch_entries(self, coprocessor):
        instance, __ = load(coprocessor, 0, adder_spec(), pid=1)
        coprocessor.dispatch.map_hardware(IDTuple(1, 1), 0)
        coprocessor.unload_circuit(0)
        from repro.core.dispatch import DispatchKind

        assert coprocessor.resolve(1, 1).kind is DispatchKind.FAULT

    def test_evicted_state_survives_reload(self, coprocessor):
        """Stateful circuit keeps its counter across evict + reload."""
        spec = counter_spec()
        instance, __ = load(coprocessor, 0, spec)
        coprocessor.execute(0, 2, 0, 1, max_cycles=10)
        assert coprocessor.mrc(2) == 1
        evicted, __ = coprocessor.unload_circuit(0)
        coprocessor.load_circuit(1, evicted)
        coprocessor.execute(1, 2, 0, 1, max_cycles=10)
        assert coprocessor.mrc(2) == 2


class TestContextSwitching:
    def test_save_restore_roundtrip(self, coprocessor):
        coprocessor.mcr(0, 111)
        coprocessor.capture_operands(2, 0, 0)
        saved = coprocessor.save_context()
        coprocessor.mcr(0, 222)
        coprocessor.store_soft_result(5)
        coprocessor.restore_context(saved)
        assert coprocessor.mrc(0) == 111
        assert coprocessor.operand_regs.valid

    def test_fresh_context_is_zeroed(self, coprocessor):
        coprocessor.mcr(0, 111)
        coprocessor.restore_context(coprocessor.fresh_context())
        assert coprocessor.mrc(0) == 0
        assert not coprocessor.operand_regs.valid

    def test_pfus_untouched_by_context_switch(self, coprocessor):
        """The architectural point: only the register file and operand
        registers move on a switch; PFUs and TLBs are PID-tagged."""
        load(coprocessor, 0, adder_spec())
        coprocessor.dispatch.map_hardware(IDTuple(1, 1), 0)
        coprocessor.restore_context(coprocessor.fresh_context())
        from repro.core.dispatch import DispatchKind

        assert coprocessor.resolve(1, 1).kind is DispatchKind.HARDWARE
        assert coprocessor.pfus.pfu(0).configured


class TestSoftDispatchSupport:
    def test_capture_reads_regfile(self, coprocessor):
        coprocessor.mcr(0, 7)
        coprocessor.mcr(1, 8)
        coprocessor.capture_operands(fd=5, fn=0, fm=1)
        assert coprocessor.operand_regs.read_operand(0) == 7
        assert coprocessor.operand_regs.read_operand(1) == 8

    def test_store_soft_result_writes_dest(self, coprocessor):
        coprocessor.capture_operands(fd=5, fn=0, fm=1)
        dest = coprocessor.store_soft_result(99)
        assert dest == 5
        assert coprocessor.mrc(5) == 99


class TestUsageStatistics:
    def test_read_usage_counters_clears(self, coprocessor):
        load(coprocessor, 0, adder_spec(latency=1))
        coprocessor.execute(0, 2, 0, 1, max_cycles=10)
        counters = coprocessor.read_usage_counters()
        assert counters[0] == 1
        assert coprocessor.read_usage_counters() == [0] * len(
            coprocessor.pfus
        )
