"""Faults and context switches on the inlined datapath, on every tier.

The compiled tiers reach the FPL register file and process memory
without a method call on the common path: a word load or store is
bounds- and alignment-checked inline, and an MCR/MRC naming a register
that exists is a list subscript.  Everything off that path must fail
exactly as the ``step`` reference does.  Each case below runs a loop
hot enough to be fused and traced, makes the loop fault part-way
through, and demands the same kill reason, PC, retired count, cycles,
core registers, FPL words and memory on ``step``, ``block`` and ``jit``.
"""

import pytest

from conftest import adder_spec
from repro.config import EXEC_TIERS, MachineConfig
from repro.cpu.assembler import DATA_BASE
from repro.cpu.program import Program
from repro.kernel.porsche import Porsche
from repro.kernel.process import ProcessState

#: Memory of every test program: the default 64 KB address space.
MEMORY_SIZE = 64 * 1024
#: The FPL register file is shrunk so that f12 names no register.
FPL_REGISTERS = 8

HEADER = """
.data
buf: .space 64
.text
main:
    MOV r4, #buf
    MOV r6, #0
    MOV r7, #0
loop:
    LDR r0, [r4]
    ADD r0, r0, r6
    STR r0, [r4, #4]
    MCR f1, r0
    MRC r2, f1
    LDRB r3, [r4, #4]
    STRB r3, [r4, #9]
    ADD r6, r6, #1
"""

#: ``past_end`` labels the index one past the last instruction.
FOOTER = """
    CMP r6, #100
    BNE loop
    MOV r0, #0
    SWI #0
past_end:
"""

#: name -> (loop-body tail that faults part-way through, reason fragment)
CASES = {
    # r8 turns 1 at iteration 16: the address loses its alignment.
    "unaligned_ldr": ("""
    LSR r8, r6, #4
    ADD r9, r4, r8
    LDR r1, [r9]
""", "unaligned word load"),
    "unaligned_str": ("""
    LSR r8, r6, #4
    ADD r9, r4, r8
    STR r6, [r9]
""", "unaligned word store"),
    # Walking down 64 bytes an iteration from buf reaches the guard page.
    "guard_ldr": ("""
    LSL r8, r6, #6
    SUB r9, r4, r8
    LDR r1, [r9]
""", "guard page"),
    "guard_str": ("""
    LSL r8, r6, #6
    SUB r9, r4, r8
    STR r6, [r9]
""", "guard page"),
    "guard_ldrb": ("""
    LSL r8, r6, #6
    SUB r9, r4, r8
    LDRB r1, [r9, #3]
""", "guard page"),
    # Walking up 1 KB an iteration runs off the end of the address space.
    "end_ldr": ("""
    LSL r8, r6, #10
    ADD r9, r4, r8
    LDR r1, [r9]
""", "beyond end"),
    "end_str": ("""
    LSL r8, r6, #10
    ADD r9, r4, r8
    STR r6, [r9, #-4]
""", "beyond end"),
    "end_strb": ("""
    LSL r8, r6, #10
    ADD r9, r4, r8
    STRB r6, [r9]
""", "beyond end"),
    # From iteration 16 the address wraps below zero to the top of the
    # 32-bit space, far past the end.
    "wrapped_ldr": ("""
    LSR r8, r6, #4
    LSL r8, r8, #13
    SUB r9, r4, r8
    LDR r1, [r9], #4
""", "beyond end"),
    # The forward BNE is predicted not taken, so the trace holds the
    # MCR/MRC of a register the file does not have; iteration 20 runs it.
    "mcr_out_of_range": ("""
    CMP r6, #20
    BNE skip
    MCR f12, r0
skip:
""", "out of range"),
    "mrc_out_of_range": ("""
    CMP r6, #20
    BNE skip
    MRC r5, f12
skip:
""", "out of range"),
    # Writing the pc with MRC is rejected when the code is translated.
    "mrc_to_pc": ("""
    CMP r6, #20
    BNE skip
    MRC r15, f1
skip:
""", "direct writes to pc"),
    # LDO/STO outside a software dispatch are program errors, too.
    "ldo_without_dispatch": ("""
    CMP r6, #20
    BNE skip
    LDO r5, #0
skip:
""", "LDO with no captured operands"),
    "sto_without_dispatch": ("""
    CMP r6, #20
    BNE skip
    STO r5
skip:
""", "STO with no software dispatch"),
    # A pc write is rejected before it reads an operand, memory or an
    # FPL register, so none of these dies on what it would have read.
    "ldo_to_pc": ("""
    CMP r6, #20
    BNE skip
    LDO r15, #0
skip:
""", "direct writes to pc"),
    "mrc_to_pc_out_of_range": ("""
    CMP r6, #20
    BNE skip
    MRC r15, f12
skip:
""", "direct writes to pc"),
    "ldr_to_pc_guard": ("""
    CMP r6, #20
    BNE skip
    MOV r9, #0
    LDR r15, [r9]
skip:
""", "direct writes to pc"),
    # A branch out of the program is rejected even when not taken.
    "branch_past_end_not_taken": ("""
    CMP r6, #20
    BNE skip
    BNE past_end
skip:
""", "branch target index"),
}

#: A hot loop of hardware custom instructions; iteration 20 issues one
#: naming f12, which the traced path holds.
CDP_OUT_OF_RANGE = """
main:
    MOV r0, #1
    MOV r1, #0
    MOV r2, #0
    SWI #1
    MOV r6, #0
loop:
    MCR f0, r6
    MCR f1, r6
    CDP #1, f4, f0, f1
    MRC r3, f4
    ADD r6, r6, #1
    CMP r6, #20
    BNE skip
    CDP #1, f12, f0, f1
skip:
    CMP r6, #100
    BNE loop
    MOV r0, #0
    SWI #0
"""


def make_config(tier: str, **overrides) -> MachineConfig:
    fields = dict(cycles_per_ms=1000, quantum_ms=10.0,
                  fpl_registers=FPL_REGISTERS, exec_tier=tier)
    fields.update(overrides)
    return MachineConfig(**fields)


def observe(kernel: Porsche, process) -> dict:
    """Everything the tiers must agree on after a process ended."""
    state = process.cpu_state
    return {
        "state": process.state,
        "kill_reason": process.kill_reason,
        "exit_status": process.exit_status,
        "pc": state.pc,
        "retired": state.instructions_retired,
        "completion": process.completion_cycle,
        "cpu_cycles": process.stats.cpu_cycles,
        "clock": kernel.clock,
        "regs": list(state.regs),
        "fpl": list(kernel.coprocessor.regfile.words),
        "memory": process.memory.read_block(DATA_BASE, 64),
    }


def run_case(tier: str, tail: str, source: str | None = None,
             circuits=()) -> tuple[dict, int]:
    """Run one faulting loop alone; returns its observation and the
    number of traces the jit installed."""
    kernel = Porsche(make_config(tier))
    process = kernel.spawn(Program.from_source(
        "inline", source or HEADER + tail + FOOTER,
        circuit_table=list(circuits), memory_size=MEMORY_SIZE,
    ))
    kernel.run()
    manager = getattr(process.cpu._ops, "manager", None)
    return observe(kernel, process), 0 if manager is None else manager.installed


@pytest.mark.parametrize("case", sorted(CASES))
def test_fault_is_identical_on_every_tier(case):
    tail, reason = CASES[case]
    seen = {}
    for tier in EXEC_TIERS:
        seen[tier], installed = run_case(tier, tail)
        if tier == "jit":
            assert installed >= 1, "the loop never reached the trace tier"
    reference = seen["step"]
    assert reference["state"] is ProcessState.KILLED
    assert reason in reference["kill_reason"]
    # The fault lands well after the loop went hot.
    assert reference["regs"][6] >= 16
    for tier in EXEC_TIERS:
        assert seen[tier] == reference, tier


def test_cdp_naming_a_missing_register_is_identical_on_every_tier():
    seen = {}
    for tier in EXEC_TIERS:
        seen[tier], installed = run_case(
            tier, "", CDP_OUT_OF_RANGE, circuits=[adder_spec()]
        )
        if tier == "jit":
            assert installed >= 1
    assert "f12 out of range" in seen["step"]["kill_reason"]
    assert seen["step"]["regs"][6] == 20
    for tier in EXEC_TIERS:
        assert seen[tier] == seen["step"], tier


def test_last_word_and_byte_of_memory_are_reachable():
    """The inline bounds test is inclusive of the final word."""
    tail = """
    MOV r9, #0x10000
    LDR r1, [r9, #-4]
    STR r6, [r9, #-4]
    LDRB r1, [r9, #-1]
    STRB r6, [r9, #-1]
"""
    seen = {tier: run_case(tier, tail)[0] for tier in EXEC_TIERS}
    assert seen["step"]["state"] is ProcessState.EXITED
    for tier in EXEC_TIERS:
        assert seen[tier] == seen["step"], tier


def accumulator(initial: int, step: int) -> Program:
    """A hot loop that keeps its running sum in FPL register f3 only."""
    source = f"""
main:
    MOV r7, #{step}
    MOV r6, #0
    MOV r1, #{initial}
    MCR f3, r1
loop:
    MRC r1, f3
    ADD r1, r1, r7
    MCR f3, r1
    ADD r6, r6, #1
    CMP r6, #300
    BNE loop
    MRC r0, f3
    SWI #0
"""
    return Program.from_source(f"acc{step}", source)


def test_processes_switching_mid_trace_keep_their_fpl_words():
    """Fifty-cycle quanta preempt both loops inside their traces; each
    must still see only its own FPL register file."""
    seen = {}
    for tier in EXEC_TIERS:
        kernel = Porsche(make_config(tier, quantum_ms=0.05))
        first = kernel.spawn(accumulator(1000, 3))
        second = kernel.spawn(accumulator(50000, 7))
        kernel.run()
        assert first.exit_status == 1000 + 300 * 3, tier
        assert second.exit_status == 50000 + 300 * 7, tier
        assert kernel.stats.context_switches > 20, tier
        if tier == "jit":
            assert first.cpu._ops.manager.installed >= 1
        seen[tier] = (observe(kernel, first), observe(kernel, second))
    for tier in EXEC_TIERS:
        assert seen[tier] == seen["step"], tier
