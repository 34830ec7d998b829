"""Cycle-costed interpreter for the ProteanARM instruction set.

The interpreter executes one process's decoded instruction stream against
its private memory and the (shared) Proteus coprocessor.  It is driven by
the kernel in bounded bursts — ``run(budget)`` executes until the cycle
budget is spent or an architectural event (syscall trap, custom
instruction fault, halt) transfers control to the kernel.

Cycle costs follow the ARM7TDMI flavour configured in
:class:`~repro.config.MachineConfig` (loads 3 cycles, taken branches 3,
multiplies 4, ALU 1, ...).  Custom instructions consume their circuit
latency inside the coprocessor; when the quantum expires mid-instruction
the program counter stays on the CDP so the next quantum transparently
re-issues it (paper §4.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import MachineConfig
from ..core.coprocessor import ProteusCoprocessor
from ..core.dispatch import DispatchKind
from ..errors import CPUError
from ..state import Snapshotable
from .exceptions import CPUEvent, CustomInstructionFault, ExitTrap, SyscallTrap
from .isa import (
    CODE_BASE,
    COMPARE_OPS,
    Flags,
    Instruction,
    MASK32,
    Op,
    PC_WRITERS,
    code_address,
    to_signed,
)
from .memory import Memory


def _pc_index(pc: int) -> int:
    """Instruction index of ``pc``; a PC off the code grid is fatal."""
    if pc < CODE_BASE or (pc - CODE_BASE) & 3:
        raise CPUError(f"pc {pc:#010x} is not a code address")
    return (pc - CODE_BASE) >> 2


@dataclass
class CPUState(Snapshotable):
    """The per-process architectural state of the ARM core.

    Restored in place: the compiled tiers capture the register list,
    flags object and memory, so rebinding any of them would desync the
    compiled program from the architectural state.
    """

    STATE = ("regs", "flags", "halted", "instructions_retired", "memory")

    memory: Memory
    regs: list[int] = field(default_factory=lambda: [0] * 16)
    flags: Flags = field(default_factory=Flags)
    halted: bool = False
    #: Lifetime statistics.
    instructions_retired: int = 0

    def __post_init__(self) -> None:
        if len(self.regs) != 16:
            raise CPUError("ARM state requires 16 registers")
        if self.regs[13] == 0:
            self.regs[13] = self.memory.stack_top

    @property
    def pc(self) -> int:
        return self.regs[15]

    @pc.setter
    def pc(self, value: int) -> None:
        self.regs[15] = value & MASK32

    def restore(self, state: dict) -> None:
        super().restore(state)
        regs = self.regs
        regs[:] = [value & MASK32 for value in regs]


@dataclass
class StepResult:
    """Outcome of executing (or partially executing) one instruction."""

    cycles: int
    #: False when a CDP ran out of budget and must be re-issued.
    retired: bool = True


class RunResult:
    """Outcome of one bounded execution burst.

    A :class:`CPU` refills and returns the same record on every burst,
    so read its fields before the next :meth:`CPU.run`.
    """

    __slots__ = ("cycles", "event", "instructions")

    def __init__(self) -> None:
        self.cycles = 0
        #: The event that ended the burst, or ``None`` if the budget
        #: expired.
        self.event: CPUEvent | None = None
        #: Instructions retired during the burst (feeds CpuBurst trace
        #: events).
        self.instructions = 0

    def __repr__(self) -> str:
        return (
            f"RunResult(cycles={self.cycles}, event={self.event!r}, "
            f"instructions={self.instructions})"
        )


class CPU(Snapshotable):
    """Interpreter binding one process's state to the shared coprocessor.

    Three execution tiers share the same semantics, selected by
    ``MachineConfig.exec_tier``:

    * ``"step"`` — the readable reference interpreter (:meth:`step`,
      driven in bursts by :meth:`run_interpreted`);
    * ``"block"`` — bounded bursts over one generated function per
      instruction, with straight-line runs fused into basic-block
      superinstructions, all emitted from one source of each op's
      compiled semantics (see :mod:`repro.cpu.blocks`); a CDP runs a
      hand-written closure (see :mod:`repro.cpu.translate`);
    * ``"jit"`` — the block tier plus a trace compiler that turns hot
      paths into generated straight-line Python (see
      :mod:`repro.cpu.traces`), the default and fastest tier.

    All tiers are cycle- and trace-identical; the equivalence tests in
    ``tests/test_blocks.py`` hold them to that.

    A checkpoint holds the architectural state, the same on every tier.
    The compiled tiers' :class:`~repro.cpu.translate.RunContext` cursor
    is not saved (older checkpoints carry one; it is ignored): ``run``
    reloads ``ctx.idx`` from the PC on entry, clears ``interrupted`` and
    ``event`` before returning, and uses ``retired`` only as a
    difference.  An interrupted CDP re-issues from the PC (§4.4), so the
    PC is the whole cursor.  A not-yet-compiled CPU stays lazy after a
    restore: the next ``run`` compiles against the restored state.
    """

    STATE = ("state",)

    def __init__(
        self,
        config: MachineConfig,
        program: list[Instruction],
        state: CPUState,
        coprocessor: ProteusCoprocessor,
        pid: int,
    ) -> None:
        self.config = config
        self.program = program
        self.state = state
        self.coprocessor = coprocessor
        self.pid = pid
        #: Execution tier (see ``MachineConfig.exec_tier``): "jit"
        #: trace-compiles hot paths to generated Python, "block" fuses
        #: straight-line runs into superinstructions, "step" drives the
        #: reference interpreter.  All three are bit-identical.
        self._tier = config.exec_tier
        #: What an event that did no work of its own costs the burst.
        self._alu_cycles = config.alu_cycles
        self._ctx: "RunContext | None" = None
        self._ops = None
        #: The one burst record :meth:`run` refills.
        self._result = RunResult()

    def retarget(self, program: list[Instruction]) -> None:
        """Swap the instruction image (custom-instruction adoption).

        Drops any compiled tier state; the next :meth:`run` recompiles
        against the new image.  Safe between bursts because compilation
        reads the live register list, flags and memory, and ``run``
        reloads its cursor from the architectural PC on entry.
        """
        self.program = program
        self._ctx = None
        self._ops = None

    # ------------------------------------------------------------------
    def _compile(self):
        from .translate import RunContext

        if self._tier == "jit":
            from .traces import translate_traces as translate_fn
        else:
            from .blocks import translate_blocks as translate_fn

        ctx = RunContext()
        ops = translate_fn(
            self.program,
            ctx,
            self.state.regs,
            self.state.flags,
            self.state.memory,
            self.coprocessor,
            self.config,
            self.pid,
            self.state,
        )
        self._ctx = ctx
        self._ops = ops
        return ctx, ops

    def run(self, budget: int) -> RunResult:
        """Execute until ``budget`` cycles are consumed or an event fires.

        The final instruction may overrun the budget slightly (a real
        pipeline does not abandon a committed instruction); CDP
        instructions are the exception — they are interruptible and stop
        clocking exactly at the boundary.

        On the compiled tiers the most frequent event, a dispatch fault
        (:class:`CustomInstructionFault`), is not raised: the CDP closure
        parks its prebuilt event in ``ctx.event``, sets
        ``ctx.interrupted`` and returns 0, and this loop charges it the
        base issue cost, as it does a raised trap.  Syscalls, exits and
        fabric faults are rare and still arrive as exceptions.  The
        burst record is reused (see :class:`RunResult`).
        """
        if self._tier == "step":
            return self.run_interpreted(budget)
        result = self._result
        if budget <= 0:
            result.cycles = 0
            result.event = None
            result.instructions = 0
            return result
        ctx = self._ctx
        ops = self._ops
        if ops is None:
            ctx, ops = self._compile()
        state = self.state
        regs = state.regs
        offset = regs[15] - CODE_BASE
        if offset < 0 or offset & 3:
            _pc_index(regs[15])  # raises the CPUError
        ctx.idx = offset >> 2
        base_retired = ctx.retired
        used = 0
        event: CPUEvent | None = None
        length = len(ops)
        try:
            if state.halted:
                # Only HALT sets ``halted``, and it raises, ending the
                # burst: testing on entry covers every instruction.
                event = ExitTrap()
            else:
                while used < budget:
                    index = ctx.idx
                    if not 0 <= index < length:
                        raise CPUError(
                            f"pc {code_address(index):#010x} outside "
                            f"program (0..{length - 1})"
                        )
                    used += ops[index](budget - used)
                    if ctx.interrupted:
                        ctx.interrupted = False
                        event = ctx.event
                        if event is not None:
                            ctx.event = None
                            used += self._alu_cycles
                        break
        except CPUEvent as trap:
            # The raising instruction charged no cycles itself; charge the
            # base issue cost so traps are not free.  Events that consumed
            # real work before trapping (a fabric fault caught at the
            # would-be completion) carry their own charge.
            used += getattr(trap, "charge_cycles", self._alu_cycles)
            # The record outlives the burst; a traceback would tie it
            # to this frame, and the CPU to the cyclic collector.
            event = trap.with_traceback(None)
        finally:
            regs[15] = CODE_BASE + 4 * ctx.idx
            retired = ctx.retired - base_retired
            state.instructions_retired += retired
        result.cycles = used
        result.event = event
        result.instructions = retired
        return result

    def run_interpreted(self, budget: int) -> RunResult:
        """The same burst semantics on the reference interpreter."""
        result = self._result
        state = self.state
        base_retired = state.instructions_retired
        used = 0
        event: CPUEvent | None = None
        while used < budget:
            if state.halted:
                event = ExitTrap()
                break
            try:
                step = self.step(budget - used)
            except CPUEvent as trap:
                used += getattr(trap, "charge_cycles", self._alu_cycles)
                event = trap.with_traceback(None)  # as in run()
                break
            used += step.cycles
            if not step.retired:
                # CDP interrupted at the budget boundary.
                break
        result.cycles = used
        result.event = event
        result.instructions = state.instructions_retired - base_retired
        return result

    # ---------------------------------------------------------------------
    def step(self, budget: int = 1 << 30) -> StepResult:
        """Execute the instruction at the current PC.

        ``budget`` bounds only multi-cycle custom instructions; ordinary
        instructions always complete.
        """
        state = self.state
        config = self.config
        index = _pc_index(state.regs[15])
        if not 0 <= index < len(self.program):
            raise CPUError(
                f"pc {state.pc:#010x} outside program "
                f"(0..{len(self.program) - 1})"
            )
        instruction = self.program[index]
        op = instruction.op
        regs = state.regs
        # Rejected before any operand is read, as the compiled tiers
        # reject it when they translate the program.
        if op in PC_WRITERS and instruction.rd == 15:
            raise CPUError("direct writes to pc are not supported; use B/BL/BX")

        # ---- data processing ------------------------------------------------
        if op is Op.MOV or op is Op.MVN:
            value = self._op2(instruction)
            if op is Op.MVN:
                value = ~value
            self._write_reg(instruction.rd, value)
            return self._retire(config.alu_cycles)

        if op is Op.ADD:
            return self._alu(instruction, regs[instruction.rn] + self._op2(instruction))
        if op is Op.SUB:
            return self._alu(instruction, regs[instruction.rn] - self._op2(instruction))
        if op is Op.RSB:
            return self._alu(instruction, self._op2(instruction) - regs[instruction.rn])
        if op is Op.AND:
            return self._alu(instruction, regs[instruction.rn] & self._op2(instruction))
        if op is Op.ORR:
            return self._alu(instruction, regs[instruction.rn] | self._op2(instruction))
        if op is Op.EOR:
            return self._alu(instruction, regs[instruction.rn] ^ self._op2(instruction))
        if op is Op.BIC:
            return self._alu(instruction, regs[instruction.rn] & ~self._op2(instruction))

        if op in (Op.LSL, Op.LSR, Op.ASR, Op.ROR):
            return self._alu(instruction, self._shift(op, instruction))

        if op is Op.MUL:
            product = regs[instruction.rn] * regs[instruction.rm]
            self._write_reg(instruction.rd, product)
            return self._retire(config.mul_cycles)

        if op in COMPARE_OPS:
            a = regs[instruction.rn]
            b = self._op2(instruction)
            if op is Op.CMP:
                state.flags.set_from_sub(a, b)
            elif op is Op.CMN:
                state.flags.set_from_add(a, b)
            else:  # TST
                state.flags.set_from_logical(a & b)
            return self._retire(config.alu_cycles)

        # ---- branches --------------------------------------------------------
        if op is Op.B or op is Op.BL:
            target = index + 1 + instruction.imm
            if not 0 <= target < len(self.program):
                raise CPUError(f"branch target index {target} out of program")
            if not state.flags.passes(instruction.cond):
                return self._retire(config.alu_cycles)
            if op is Op.BL:
                regs[14] = code_address(index + 1)
            state.pc = code_address(target)
            state.instructions_retired += 1
            return StepResult(cycles=config.branch_cycles)

        if op is Op.BX:
            target = regs[instruction.rn]
            if target < CODE_BASE or (target - CODE_BASE) % 4:
                raise CPUError(f"BX to non-code address {target:#010x}")
            state.pc = target
            state.instructions_retired += 1
            return StepResult(cycles=config.branch_cycles)

        # ---- memory -----------------------------------------------------------
        if op is Op.LDR or op is Op.LDRB:
            address = regs[instruction.rn]
            if not instruction.post_inc:
                address = (address + instruction.imm) & MASK32
            if op is Op.LDR:
                value = state.memory.load_word(address)
            else:
                value = state.memory.load_byte(address)
            self._write_reg(instruction.rd, value)
            if instruction.post_inc:
                regs[instruction.rn] = (regs[instruction.rn] + instruction.imm) & MASK32
            return self._retire(config.load_cycles)

        if op is Op.STR or op is Op.STRB:
            address = regs[instruction.rn]
            if not instruction.post_inc:
                address = (address + instruction.imm) & MASK32
            if op is Op.STR:
                state.memory.store_word(address, regs[instruction.rd])
            else:
                state.memory.store_byte(address, regs[instruction.rd])
            if instruction.post_inc:
                regs[instruction.rn] = (regs[instruction.rn] + instruction.imm) & MASK32
            return self._retire(config.store_cycles)

        # ---- traps --------------------------------------------------------------
        if op is Op.SWI:
            state.pc = code_address(index + 1)
            state.instructions_retired += 1
            raise SyscallTrap(number=instruction.imm)

        if op is Op.HALT:
            state.halted = True
            state.instructions_retired += 1
            raise ExitTrap(status=regs[0])

        if op is Op.NOP:
            return self._retire(config.alu_cycles)

        # ---- coprocessor ------------------------------------------------------
        if op is Op.MCR:
            self.coprocessor.mcr(instruction.rd, regs[instruction.rn])
            return self._retire(config.coproc_transfer_cycles)

        if op is Op.MRC:
            self._write_reg(instruction.rd, self.coprocessor.mrc(instruction.rn))
            return self._retire(config.coproc_transfer_cycles)

        if op is Op.CDP:
            return self._cdp(instruction, index, budget)

        if op is Op.LDO:
            value = self.coprocessor.operand_regs.read_operand(instruction.imm)
            self._write_reg(instruction.rd, value)
            return self._retire(config.operand_reg_cycles)

        if op is Op.STO:
            self.coprocessor.store_soft_result(regs[instruction.rn])
            return self._retire(config.operand_reg_cycles)

        raise CPUError(f"unimplemented opcode {op.name}")

    # ----------------------------------------------------------------------
    def _cdp(self, instruction: Instruction, index: int, budget: int) -> StepResult:
        """Execute a custom instruction via the dispatch unit (Figure 1)."""
        config = self.config
        state = self.state
        resolution = self.coprocessor.resolve(self.pid, instruction.imm)

        if resolution.kind is DispatchKind.FAULT:
            raise CustomInstructionFault(cid=instruction.imm, fault_pc=state.pc)

        if resolution.kind is DispatchKind.SOFTWARE:
            # Special branch: capture operands, link, jump (§4.3).
            self.coprocessor.capture_operands(
                instruction.rd, instruction.rn, instruction.rm
            )
            state.regs[14] = code_address(index + 1)
            assert resolution.address is not None
            state.pc = resolution.address
            state.instructions_retired += 1
            return StepResult(cycles=config.soft_dispatch_branch_cycles)

        assert resolution.pfu_index is not None
        issue = config.cdp_issue_cycles
        pfu_budget = max(1, budget - issue)
        cycles, result = self.coprocessor.execute(
            resolution.pfu_index,
            instruction.rd,
            instruction.rn,
            instruction.rm,
            pfu_budget,
        )
        if result is not None:
            state.pc = code_address(index + 1)
            state.instructions_retired += 1
            return StepResult(cycles=issue + cycles)
        # Interrupted: leave the PC on the CDP for transparent re-issue.
        return StepResult(cycles=issue + cycles, retired=False)

    # -----------------------------------------------------------------------
    def _op2(self, instruction: Instruction) -> int:
        if instruction.uses_imm:
            return instruction.imm & MASK32
        return self.state.regs[instruction.rm]

    def _shift(self, op: Op, instruction: Instruction) -> int:
        value = self.state.regs[instruction.rn]
        amount = self._op2(instruction) & 0xFF
        if amount == 0:
            return value
        if op is Op.LSL:
            return (value << amount) & MASK32 if amount < 32 else 0
        if op is Op.LSR:
            return (value >> amount) if amount < 32 else 0
        if op is Op.ASR:
            signed = to_signed(value)
            return (signed >> min(amount, 31)) & MASK32
        # ROR
        amount %= 32
        return ((value >> amount) | (value << (32 - amount))) & MASK32

    def _alu(self, instruction: Instruction, value: int) -> StepResult:
        self._write_reg(instruction.rd, value)
        return self._retire(self.config.alu_cycles)

    def _write_reg(self, index: int, value: int) -> None:
        self.state.regs[index] = value & MASK32

    def _retire(self, cycles: int) -> StepResult:
        state = self.state
        state.pc = state.pc + 4
        state.instructions_retired += 1
        return StepResult(cycles=cycles)
