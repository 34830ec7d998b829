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
from .exceptions import CPUEvent, CustomInstructionFault, ExitTrap, SyscallTrap
from .isa import (
    COMPARE_OPS,
    Flags,
    Instruction,
    MASK32,
    Op,
    code_address,
    code_index,
    to_signed,
)
from .memory import Memory


@dataclass
class CPUState:
    """The per-process architectural state of the ARM core."""

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

    # ---- machine-state protocol -------------------------------------------
    def snapshot(self) -> dict:
        return {
            "regs": list(self.regs),
            "flags": self.flags.snapshot(),
            "halted": self.halted,
            "instructions_retired": self.instructions_retired,
            "memory": self.memory.snapshot(),
        }

    def restore(self, state: dict) -> None:
        # In place: the translated closures capture the register list,
        # flags object and memory; rebinding any of them would desync
        # the compiled program from the architectural state.
        self.regs[:] = [value & MASK32 for value in state["regs"]]
        self.flags.restore(state["flags"])
        self.halted = bool(state["halted"])
        self.instructions_retired = state["instructions_retired"]
        self.memory.restore(state["memory"])


@dataclass
class StepResult:
    """Outcome of executing (or partially executing) one instruction."""

    cycles: int
    #: False when a CDP ran out of budget and must be re-issued.
    retired: bool = True


@dataclass
class RunResult:
    """Outcome of one bounded execution burst."""

    cycles: int
    #: The event that ended the burst, or ``None`` if the budget expired.
    event: CPUEvent | None = None
    #: Instructions retired during the burst (feeds CpuBurst trace events).
    instructions: int = 0


class CPU:
    """Interpreter binding one process's state to the shared coprocessor.

    Four execution tiers share the same semantics, selected by
    ``MachineConfig.exec_tier``:

    * ``"step"`` — the readable reference interpreter (:meth:`step`,
      driven in bursts by :meth:`run_interpreted`);
    * ``"closure"`` — bounded bursts over closure-compiled instructions
      (see :mod:`repro.cpu.translate`), several times faster;
    * ``"block"`` — the closure tier with straight-line runs fused into
      basic-block superinstructions (see :mod:`repro.cpu.blocks`);
    * ``"jit"`` — the block tier plus a trace compiler that turns hot
      paths into generated straight-line Python (see
      :mod:`repro.cpu.traces`), the default and fastest tier.

    All tiers are cycle- and trace-identical; the equivalence tests in
    ``tests/test_blocks.py`` hold them to that.
    """

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
        #: straight-line runs into superinstructions, "closure" compiles
        #: one closure per instruction, "step" drives the reference
        #: interpreter.  All four are bit-identical.
        self._tier = config.exec_tier
        self._ctx: "translate_module.RunContext | None" = None
        self._ops = None

    # ---- machine-state protocol -------------------------------------------
    def snapshot(self) -> dict:
        """Capture interpreter state beyond :class:`CPUState`.

        The translated :class:`~repro.cpu.translate.RunContext` cursor is
        included for completeness; between bursts the architectural PC is
        authoritative (``run`` reloads ``ctx.idx`` from it on entry), so
        the cursor is observational rather than load-bearing.
        """
        ctx = self._ctx
        return {
            "state": self.state.snapshot(),
            "ctx": None if ctx is None else {
                "idx": ctx.idx,
                "interrupted": ctx.interrupted,
                "retired": ctx.retired,
            },
        }

    def restore(self, state: dict) -> None:
        self.state.restore(state["state"])
        saved_ctx = state.get("ctx")
        if self._ctx is not None and saved_ctx is not None:
            self._ctx.idx = saved_ctx["idx"]
            self._ctx.interrupted = saved_ctx["interrupted"]
            self._ctx.retired = saved_ctx["retired"]
        # A not-yet-compiled CPU stays lazy: the next run() compiles
        # against the (already restored) architectural state.

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
        from . import translate as translate_module

        if self._tier == "jit":
            from .traces import translate_traces as translate_fn
        elif self._tier == "block":
            from .blocks import translate_blocks as translate_fn
        else:
            translate_fn = translate_module.translate

        ctx = translate_module.RunContext()
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
        """
        if self._tier == "step":
            return self.run_interpreted(budget)
        if budget <= 0:
            return RunResult(cycles=0)
        ctx, ops = (self._ctx, self._ops)
        if ops is None:
            ctx, ops = self._compile()
        state = self.state
        ctx.idx = code_index(state.pc)
        base_retired = ctx.retired
        used = 0
        event: CPUEvent | None = None
        length = len(ops)
        retired = 0
        try:
            while used < budget:
                if state.halted:
                    event = ExitTrap()
                    break
                index = ctx.idx
                if not 0 <= index < length:
                    raise CPUError(
                        f"pc {code_address(index):#010x} outside program "
                        f"(0..{length - 1})"
                    )
                used += ops[index](budget - used)
                if ctx.interrupted:
                    ctx.interrupted = False
                    break
        except CPUEvent as trap:
            # The raising instruction charged no cycles itself; charge the
            # base issue cost so traps are not free.  Events that consumed
            # real work before trapping (a fabric fault caught at the
            # would-be completion) carry their own charge.
            used += getattr(trap, "charge_cycles", self.config.alu_cycles)
            event = trap
        finally:
            state.pc = code_address(ctx.idx)
            retired = ctx.retired - base_retired
            state.instructions_retired += retired
        return RunResult(cycles=used, event=event, instructions=retired)

    def run_interpreted(self, budget: int) -> RunResult:
        """The same burst semantics on the reference interpreter."""
        if budget <= 0:
            return RunResult(cycles=0)
        used = 0
        state = self.state
        base_retired = state.instructions_retired

        def finish(event: CPUEvent | None = None) -> RunResult:
            return RunResult(
                cycles=used,
                event=event,
                instructions=state.instructions_retired - base_retired,
            )

        while used < budget:
            if state.halted:
                return finish(ExitTrap())
            try:
                step = self.step(budget - used)
            except CPUEvent as event:
                used += getattr(event, "charge_cycles", self.config.alu_cycles)
                return finish(event)
            used += step.cycles
            if not step.retired:
                # CDP interrupted at the budget boundary.
                break
        return finish()

    # ---------------------------------------------------------------------
    def step(self, budget: int = 1 << 30) -> StepResult:
        """Execute the instruction at the current PC.

        ``budget`` bounds only multi-cycle custom instructions; ordinary
        instructions always complete.
        """
        state = self.state
        config = self.config
        index = code_index(state.pc)
        if not 0 <= index < len(self.program):
            raise CPUError(
                f"pc {state.pc:#010x} outside program "
                f"(0..{len(self.program) - 1})"
            )
        instruction = self.program[index]
        op = instruction.op
        regs = state.regs

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
            if not state.flags.passes(instruction.cond):
                return self._retire(config.alu_cycles)
            if op is Op.BL:
                regs[14] = code_address(index + 1)
            state.pc = code_address(index + 1 + instruction.imm)
            state.instructions_retired += 1
            return StepResult(cycles=config.branch_cycles)

        if op is Op.BX:
            target = regs[instruction.rn]
            code_index(target)  # validates
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
        if index == 15:
            raise CPUError(
                "direct writes to pc are not supported; use B/BL/BX"
            )
        self.state.regs[index] = value & MASK32

    def _retire(self, cycles: int) -> StepResult:
        state = self.state
        state.pc = state.pc + 4
        state.instructions_retired += 1
        return StepResult(cycles=cycles)
