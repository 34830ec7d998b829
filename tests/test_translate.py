"""Equivalence of the compiled tiers and the reference interpreter,
instruction by instruction and over whole programs."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import adder_spec
from repro.config import MachineConfig
from repro.core.coprocessor import ProteusCoprocessor
from repro.core.tlb import IDTuple
from repro.cpu.assembler import assemble
from repro.cpu.core import CPU, CPUState
from repro.cpu.isa import code_address
from repro.cpu.memory import Memory

CONFIG = MachineConfig(cycles_per_ms=1000)

#: The compiled tiers, each checked against the reference interpreter.
COMPILED_TIERS = ("block", "jit")


def make_cpu(source: str, with_circuit: bool = False, pid: int = 1,
             config: MachineConfig = CONFIG):
    program = assemble(source)
    memory = Memory(size=16 * 1024)
    memory.write_block(program.data_base, program.data)
    state = CPUState(memory=memory)
    state.pc = code_address(program.entry_index)
    coprocessor = ProteusCoprocessor(config=config)
    if with_circuit:
        instance = adder_spec(latency=4).instantiate(pid, config)
        coprocessor.load_circuit(0, instance)
        coprocessor.dispatch.map_hardware(IDTuple(pid, 1), 0)
    return CPU(
        config=config,
        program=program.instructions,
        state=state,
        coprocessor=coprocessor,
        pid=pid,
    )


def run_both(source: str, budgets: list[int], with_circuit: bool = False,
             tier: str | None = None):
    """Run the same program on both paths in identical bursts.

    ``tier`` picks the compiled tier of the fast CPU; ``None`` keeps
    whichever tier ``CONFIG`` selects.
    """
    config = CONFIG if tier is None else replace(CONFIG, exec_tier=tier)
    fast = make_cpu(source, with_circuit, config=config)
    slow = make_cpu(source, with_circuit)
    fast_log, slow_log = [], []
    for budget in budgets:
        rf = fast.run(budget)
        rs = slow.run_interpreted(budget)
        fast_log.append((rf.cycles, type(rf.event).__name__))
        slow_log.append((rs.cycles, type(rs.event).__name__))
    return fast, slow, fast_log, slow_log


def assert_same_state(fast: CPU, slow: CPU):
    assert fast.state.regs == slow.state.regs
    assert fast.state.pc == slow.state.pc
    assert fast.state.halted == slow.state.halted
    assert (
        fast.state.memory.read_block(0x1000, 256)
        == slow.state.memory.read_block(0x1000, 256)
    )
    flags_f, flags_s = fast.state.flags, slow.state.flags
    assert (flags_f.n, flags_f.z, flags_f.c, flags_f.v) == (
        flags_s.n, flags_s.z, flags_s.c, flags_s.v,
    )


FIBONACCI = """
.data
out: .space 64
.text
main:
    MOV r0, #0
    MOV r1, #1
    MOV r2, #out
    MOV r3, #12
loop:
    STR r0, [r2], #4
    ADD r4, r0, r1
    MOV r0, r1
    MOV r1, r4
    SUB r3, r3, #1
    CMP r3, #0
    BNE loop
    MOV r0, #0
    HALT
"""

MIXED = """
.data
buf: .word 5, -3, 100, 0x7FFF
.text
main:
    MOV r4, #buf
    LDR r0, [r4], #4
    LDR r1, [r4], #4
    ADD r2, r0, r1
    MUL r3, r2, r0
    LSR r5, r3, #1
    ASR r6, r1, #2
    ROR r7, r3, #5
    CMP r0, r1
    BGT big
    MOV r8, #0
    B done
big:
    MOV r8, #1
done:
    TST r8, #1
    CMN r0, r1
    STRB r8, [r4]
    LDRB r9, [r4]
    MOV r0, #0
    HALT
"""

CDP_PROGRAM = """
main:
    MOV r0, #1000
    MOV r1, #2345
    MCR f0, r0
    MCR f1, r1
    CDP #1, f2, f0, f1
    MRC r2, f2
    CDP #1, f3, f1, f1
    MRC r3, f3
    MOV r0, #0
    HALT
"""


class TestProgramEquivalence:
    @pytest.mark.parametrize("source", [FIBONACCI, MIXED], ids=["fib", "mixed"])
    def test_single_burst(self, source):
        fast, slow, flog, slog = run_both(source, [1 << 20])
        assert flog == slog
        assert_same_state(fast, slow)

    @pytest.mark.parametrize("budget", [1, 2, 3, 7, 13])
    def test_tiny_bursts(self, budget):
        for tier in COMPILED_TIERS:
            fast, slow, flog, slog = run_both(FIBONACCI, [budget] * 200,
                                              tier=tier)
            assert flog == slog, tier
            assert_same_state(fast, slow)

    def test_cdp_with_interruptions(self):
        """Quantum boundaries land mid-CDP; both paths must agree."""
        for tier in COMPILED_TIERS:
            for budget in (2, 3, 5, 100):
                fast, slow, flog, slog = run_both(
                    CDP_PROGRAM, [budget] * 50, with_circuit=True, tier=tier
                )
                assert flog == slog, (tier, budget)
                assert_same_state(fast, slow)

    def test_fault_equivalence(self):
        source = "CDP #9, f0, f0, f0\nMOV r0, #0\nHALT"
        fast, slow, flog, slog = run_both(source, [100])
        assert flog == slog
        assert flog[0][1] == "CustomInstructionFault"
        assert_same_state(fast, slow)

    def test_memory_fault_equivalence(self):
        source = "MOV r0, #0\nLDR r1, [r0]\nHALT"
        fast = make_cpu(source)
        slow = make_cpu(source)
        from repro.errors import MemoryFault

        with pytest.raises(MemoryFault):
            fast.run(100)
        with pytest.raises(MemoryFault):
            slow.run_interpreted(100)


class TestCompileTimeChecks:
    def _cpu(self, instructions):
        memory = Memory(size=16 * 1024)
        state = CPUState(memory=memory)
        state.pc = code_address(0)
        return CPU(
            config=CONFIG,
            program=instructions,
            state=state,
            coprocessor=ProteusCoprocessor(config=CONFIG),
            pid=1,
        )

    def test_branch_to_one_past_end_is_rejected(self):
        """Regression: a branch to ``length`` (one past the last
        instruction) used to compile and then die later with a generic
        pc-out-of-program error after the branch had already retired."""
        from repro.cpu.isa import Instruction, Op
        from repro.errors import CPUError

        program = [
            Instruction(op=Op.B, imm=1, uses_imm=True),  # target index 2
            Instruction(op=Op.HALT),
        ]
        with pytest.raises(CPUError, match="branch target index 2"):
            self._cpu(program).run(100)

    def test_branch_to_last_instruction_is_allowed(self):
        from repro.cpu.isa import Instruction, Op

        program = [
            Instruction(op=Op.B, imm=0, uses_imm=True),  # target index 1
            Instruction(op=Op.HALT),
        ]
        cpu = self._cpu(program)
        result = cpu.run(100)
        assert type(result.event).__name__ == "ExitTrap"

    @pytest.mark.parametrize("opname", ["LSL", "LSR", "ASR", "ROR"])
    def test_shift_to_pc_is_rejected(self, opname):
        """Regression: shifts were missing from the rd=15 raiser check,
        so the per-instruction closure silently wrote ``regs[15]`` where the
        reference interpreter raises."""
        from repro.cpu.isa import Instruction, Op
        from repro.errors import CPUError

        program = [
            Instruction(op=Op[opname], rd=15, rn=0, imm=1, uses_imm=True),
            Instruction(op=Op.HALT),
        ]
        with pytest.raises(CPUError, match="writes to pc"):
            self._cpu(program).run(100)


ALU_OPS = ["ADD", "SUB", "RSB", "AND", "ORR", "EOR", "BIC"]
SHIFT_OPS = ["LSL", "LSR", "ASR", "ROR"]
CONDITIONS = ["EQ", "NE", "LT", "LE", "GT", "GE", "CC", "CS", "HI", "LS",
              "MI", "PL"]
#: Base register of every load and store; set to ``buf`` before each.
BASE = 10


@st.composite
def simple_instruction(draw):
    """One random register, flag or memory instruction over r0-r9."""
    kind = draw(st.sampled_from(
        ["alu", "mul", "cmp", "shift", "move", "mem", "nop"]
    ))
    rd = draw(st.integers(0, 9))
    rn = draw(st.integers(0, 9))
    rm = draw(st.integers(0, 9))
    if kind == "alu":
        op = draw(st.sampled_from(ALU_OPS))
        if draw(st.booleans()):
            return [f"{op} r{rd}, r{rn}, #{draw(st.integers(-100, 100))}"]
        return [f"{op} r{rd}, r{rn}, r{rm}"]
    if kind == "mul":
        return [f"MUL r{rd}, r{rn}, r{rm}"]
    if kind == "cmp":
        op = draw(st.sampled_from(["CMP", "CMN", "TST"]))
        if draw(st.booleans()):
            return [f"{op} r{rn}, #{draw(st.integers(-100, 100))}"]
        return [f"{op} r{rn}, r{rm}"]
    if kind == "shift":
        op = draw(st.sampled_from(SHIFT_OPS))
        if draw(st.booleans()):
            return [f"{op} r{rd}, r{rn}, #{draw(st.integers(0, 40))}"]
        return [f"{op} r{rd}, r{rn}, r{rm}"]
    if kind == "move":
        op = draw(st.sampled_from(["MOV", "MVN"]))
        if draw(st.booleans()):
            return [f"{op} r{rd}, #{draw(st.integers(-1000, 1000))}"]
        return [f"{op} r{rd}, r{rm}"]
    if kind == "nop":
        return ["NOP"]
    op = draw(st.sampled_from(["LDR", "LDRB", "STR", "STRB"]))
    # rd == rn: the base is also the loaded or stored register.
    rd = BASE if draw(st.integers(0, 3)) == 0 else rd
    step = 1 if op.endswith("B") else 4
    amount = step * draw(st.integers(0, 8))
    if draw(st.booleans()):
        access = f"{op} r{rd}, [r{BASE}], #{amount}"
    else:
        access = f"{op} r{rd}, [r{BASE}, #{amount}]"
    return [f"MOV r{BASE}, #buf", access]


@st.composite
def straight_line_program(draw):
    """A random forward-only program over r0-r10 ending in HALT.

    Register, flag and memory instructions (loads and stores go to a
    ``.data`` buffer), with forward conditional branches over some.
    """
    lines = [f"MOV r{i}, #{draw(st.integers(-1000, 1000))}" for i in range(4)]
    count = draw(st.integers(min_value=1, max_value=25))
    for label in range(count):
        if draw(st.integers(0, 5)) == 0:
            cond = draw(st.sampled_from(CONDITIONS))
            lines.append(f"B{cond} skip{label}")
            for _ in range(draw(st.integers(1, 3))):
                lines += draw(simple_instruction())
            lines.append(f"skip{label}:")
        else:
            lines += draw(simple_instruction())
    lines.append("MOV r0, #0")
    lines.append("HALT")
    return ".data\nbuf: .space 64\n.text\nmain:\n" + "\n".join(lines)


class TestRandomPrograms:
    @given(source=straight_line_program(), burst=st.integers(1, 50))
    @settings(max_examples=80, deadline=None)
    def test_equivalence(self, source, burst):
        for tier in COMPILED_TIERS:
            fast, slow, flog, slog = run_both(source, [burst] * 80,
                                              tier=tier)
            assert flog == slog, tier
            assert_same_state(fast, slow)
