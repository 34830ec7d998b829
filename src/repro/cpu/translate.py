"""Closure-compiled fast path for the ProteanARM interpreter.

:meth:`repro.cpu.core.CPU.step` is the readable reference semantics; this
module pre-translates every instruction into a specialised Python closure
so bounded execution bursts run several times faster.  Each closure:

* performs the architectural effect against captured references (register
  list, flags, memory, coprocessor);
* updates the instruction index in the shared :class:`RunContext`;
* returns the cycles consumed (custom instructions receive the remaining
  budget so they can stop clocking at the quantum boundary, §4.4).

``tests/test_translate.py`` checks closure-for-closure equivalence with
the reference interpreter on both hand-written and generated programs.
"""

from __future__ import annotations

from typing import Callable

from ..config import MachineConfig
from ..core.coprocessor import ProteusCoprocessor
from ..core.dispatch import DispatchKind
from ..errors import CPUError
from .exceptions import CustomInstructionFault, ExitTrap, SyscallTrap
from .isa import (
    CODE_BASE,
    COMPARE_OPS,
    Cond,
    Flags,
    Instruction,
    MASK32,
    Op,
    to_signed,
)
from .memory import Memory

OpClosure = Callable[[int], int]


class RunContext:
    """Mutable per-CPU execution cursor shared by all closures."""

    __slots__ = ("idx", "interrupted", "retired")

    def __init__(self) -> None:
        self.idx = 0
        self.interrupted = False
        self.retired = 0


def _cond_checker(cond: Cond) -> Callable[[Flags], bool] | None:
    """A flag predicate for a condition; ``None`` means always-taken."""
    if cond is Cond.AL:
        return None
    return lambda flags, _cond=cond: flags.passes(_cond)


def _raiser(message: str) -> OpClosure:
    def handler(_budget: int) -> int:
        raise CPUError(message)

    return handler


def translate(
    program: list[Instruction],
    ctx: RunContext,
    regs: list[int],
    flags: Flags,
    memory: Memory,
    coprocessor: ProteusCoprocessor,
    config: MachineConfig,
    pid: int,
    state,
) -> list[OpClosure]:
    """Compile a program into one closure per instruction."""
    return [
        _translate_one(
            instruction, index, len(program), ctx, regs, flags, memory,
            coprocessor, config, pid, state,
        )
        for index, instruction in enumerate(program)
    ]


def _translate_one(
    i: Instruction,
    index: int,
    length: int,
    ctx: RunContext,
    regs: list[int],
    flags: Flags,
    memory: Memory,
    coprocessor: ProteusCoprocessor,
    config: MachineConfig,
    pid: int,
    state,
) -> OpClosure:
    op = i.op
    alu = config.alu_cycles
    rd, rn, rm, imm = i.rd, i.rn, i.rm, i.imm

    if op in _PC_WRITERS and rd == 15:
        return _raiser("direct writes to pc are not supported; use B/BL/BX")

    # ---- data processing -------------------------------------------------
    if op in _ALU_BINOPS:
        fn = _ALU_BINOPS[op]
        if i.uses_imm:
            value = imm & MASK32

            def handler(_b: int, _fn=fn, _v=value) -> int:
                regs[rd] = _fn(regs[rn], _v) & MASK32
                ctx.idx += 1
                ctx.retired += 1
                return alu

        else:

            def handler(_b: int, _fn=fn) -> int:
                regs[rd] = _fn(regs[rn], regs[rm]) & MASK32
                ctx.idx += 1
                ctx.retired += 1
                return alu

        return handler

    if op is Op.MOV or op is Op.MVN:
        invert = op is Op.MVN
        if i.uses_imm:
            value = (~imm if invert else imm) & MASK32

            def handler(_b: int, _v=value) -> int:
                regs[rd] = _v
                ctx.idx += 1
                ctx.retired += 1
                return alu

        else:

            def handler(_b: int, _inv=invert) -> int:
                value = regs[rm]
                regs[rd] = (~value & MASK32) if _inv else value
                ctx.idx += 1
                ctx.retired += 1
                return alu

        return handler

    if op in (Op.LSL, Op.LSR, Op.ASR, Op.ROR):
        shifter = _SHIFTERS[op]
        if i.uses_imm:

            def handler(_b: int, _s=shifter, _a=imm & 0xFF) -> int:
                regs[rd] = _s(regs[rn], _a)
                ctx.idx += 1
                ctx.retired += 1
                return alu

        else:

            def handler(_b: int, _s=shifter) -> int:
                regs[rd] = _s(regs[rn], regs[rm] & 0xFF)
                ctx.idx += 1
                ctx.retired += 1
                return alu

        return handler

    if op is Op.MUL:
        mul_cycles = config.mul_cycles

        def handler(_b: int) -> int:
            regs[rd] = (regs[rn] * regs[rm]) & MASK32
            ctx.idx += 1
            ctx.retired += 1
            return mul_cycles

        return handler

    if op in COMPARE_OPS:
        if op is Op.CMP:
            setter = flags.set_from_sub
        elif op is Op.CMN:
            setter = flags.set_from_add
        else:
            setter = None  # TST handled inline
        if i.uses_imm:
            value = imm & MASK32

            def handler(_b: int, _set=setter, _v=value, _tst=op is Op.TST) -> int:
                if _tst:
                    flags.set_from_logical(regs[rn] & _v)
                else:
                    _set(regs[rn], _v)
                ctx.idx += 1
                ctx.retired += 1
                return alu

        else:

            def handler(_b: int, _set=setter, _tst=op is Op.TST) -> int:
                if _tst:
                    flags.set_from_logical(regs[rn] & regs[rm])
                else:
                    _set(regs[rn], regs[rm])
                ctx.idx += 1
                ctx.retired += 1
                return alu

        return handler

    # ---- branches -----------------------------------------------------------
    if op is Op.B or op is Op.BL:
        target = index + 1 + imm
        if not 0 <= target < length:
            return _raiser(f"branch target index {target} out of program")
        branch_cycles = config.branch_cycles
        link = op is Op.BL
        return_address = CODE_BASE + 4 * (index + 1)
        checker = _cond_checker(i.cond)

        def handler(_b: int, _t=target, _chk=checker) -> int:
            if _chk is not None and not _chk(flags):
                ctx.idx += 1
                ctx.retired += 1
                return alu
            if link:
                regs[14] = return_address
            ctx.idx = _t
            ctx.retired += 1
            return branch_cycles

        return handler

    if op is Op.BX:
        branch_cycles = config.branch_cycles

        def handler(_b: int) -> int:
            address = regs[rn]
            if address < CODE_BASE or (address - CODE_BASE) % 4:
                raise CPUError(f"BX to non-code address {address:#010x}")
            ctx.idx = (address - CODE_BASE) >> 2
            ctx.retired += 1
            return branch_cycles

        return handler

    # ---- memory ---------------------------------------------------------------
    if op in (Op.LDR, Op.LDRB, Op.STR, Op.STRB):
        is_load = op in (Op.LDR, Op.LDRB)
        is_byte = op in (Op.LDRB, Op.STRB)
        cycles = config.load_cycles if is_load else config.store_cycles
        post_inc = i.post_inc
        if is_byte:
            reader, writer = memory.load_byte, memory.store_byte
        else:
            reader, writer = memory.load_word, memory.store_word

        def handler(_b: int, _rd=reader, _wr=writer) -> int:
            address = regs[rn]
            if not post_inc:
                address = (address + imm) & MASK32
            if is_load:
                regs[rd] = _rd(address)
            else:
                _wr(address, regs[rd])
            if post_inc:
                regs[rn] = (regs[rn] + imm) & MASK32
            ctx.idx += 1
            ctx.retired += 1
            return cycles

        return handler

    # ---- traps ---------------------------------------------------------------
    if op is Op.SWI:

        def handler(_b: int) -> int:
            ctx.idx += 1
            ctx.retired += 1
            raise SyscallTrap(number=imm)

        return handler

    if op is Op.HALT:

        def handler(_b: int) -> int:
            state.halted = True
            ctx.retired += 1
            raise ExitTrap(status=regs[0])

        return handler

    if op is Op.NOP:

        def handler(_b: int) -> int:
            ctx.idx += 1
            ctx.retired += 1
            return alu

        return handler

    # ---- coprocessor -----------------------------------------------------------
    transfer = config.coproc_transfer_cycles
    if op is Op.MCR:
        write_fpl = coprocessor.regfile.write

        def handler(_b: int, _wr=write_fpl) -> int:
            _wr(rd, regs[rn])
            ctx.idx += 1
            ctx.retired += 1
            return transfer

        return handler

    if op is Op.MRC:
        read_fpl = coprocessor.regfile.read

        def handler(_b: int, _rdf=read_fpl) -> int:
            regs[rd] = _rdf(rn)
            ctx.idx += 1
            ctx.retired += 1
            return transfer

        return handler

    if op is Op.CDP:
        # Bind the dispatch unit directly: the coprocessor's ``resolve``
        # is a pure delegation hop, and CDP decode is the hottest call
        # site in a burst.  Each site memoizes its last resolution
        # against the unit's generation counter: equal generation means
        # no mapping anywhere changed since, so the cached result still
        # holds and the two TLB probes can be replayed arithmetically.
        dispatch = coprocessor.dispatch
        resolve = dispatch.resolve
        hw_tlb = dispatch.hardware_tlb
        sw_tlb = dispatch.software_tlb
        execute = coprocessor.execute
        capture = coprocessor.capture_operands
        issue = config.cdp_issue_cycles
        soft_cost = config.soft_dispatch_branch_cycles
        fault_pc = CODE_BASE + 4 * index
        return_address = CODE_BASE + 4 * (index + 1)
        _OUTCOMES = {
            DispatchKind.HARDWARE: "hit",
            DispatchKind.SOFTWARE: "soft",
            DispatchKind.FAULT: "fault",
        }
        cached_gen = -1  # DispatchUnit generations start at 0
        cached_resolution = None
        cached_outcome = ""

        def handler(budget: int) -> int:
            nonlocal cached_gen, cached_resolution, cached_outcome
            if dispatch.generation == cached_gen:
                resolution = cached_resolution
                kind = resolution.kind
                # Keep the TLB statistics and the dispatch counters
                # bit-identical with an unmemoized resolution: hardware
                # probes first, software only probes on a hardware miss.
                hw_tlb.lookups += 1
                if kind is DispatchKind.HARDWARE:
                    hw_tlb.hits += 1
                else:
                    sw_tlb.lookups += 1
                    if kind is DispatchKind.SOFTWARE:
                        sw_tlb.hits += 1
                # Emitter looked up at call time: the bus rebinds it when
                # event sinks attach or detach.
                dispatch.trace.dispatch_resolved(pid, imm, cached_outcome)
            else:
                resolution = resolve(pid, imm)
                kind = resolution.kind
                # Read the generation *after* resolving so a concurrent
                # management call can only force one extra re-resolve.
                cached_gen = dispatch.generation
                cached_resolution = resolution
                cached_outcome = _OUTCOMES[kind]
            if kind is DispatchKind.HARDWARE:
                cycles, result = execute(
                    resolution.pfu_index, rd, rn, rm, max(1, budget - issue)
                )
                if result is not None:
                    ctx.idx += 1
                    ctx.retired += 1
                else:
                    ctx.interrupted = True
                return issue + cycles
            if kind is DispatchKind.SOFTWARE:
                capture(rd, rn, rm)
                regs[14] = return_address
                ctx.idx = (resolution.address - CODE_BASE) >> 2
                ctx.retired += 1
                return soft_cost
            raise CustomInstructionFault(cid=imm, fault_pc=fault_pc)

        return handler

    if op is Op.LDO:
        read_operand = coprocessor.operand_regs.read_operand
        operand_cycles = config.operand_reg_cycles

        def handler(_b: int, _rdo=read_operand) -> int:
            regs[rd] = _rdo(imm)
            ctx.idx += 1
            ctx.retired += 1
            return operand_cycles

        return handler

    if op is Op.STO:
        store_result = coprocessor.store_soft_result
        operand_cycles = config.operand_reg_cycles

        def handler(_b: int, _sto=store_result) -> int:
            _sto(regs[rn])
            ctx.idx += 1
            ctx.retired += 1
            return operand_cycles

        return handler

    return _raiser(f"unimplemented opcode {op.name}")


# ---------------------------------------------------------------------------
# operation tables


def _asr(value: int, amount: int) -> int:
    if amount == 0:
        return value & MASK32
    return (to_signed(value) >> min(amount, 31)) & MASK32


def _ror(value: int, amount: int) -> int:
    if amount == 0:
        return value & MASK32
    amount %= 32
    if amount == 0:
        return value & MASK32
    value &= MASK32
    return ((value >> amount) | (value << (32 - amount))) & MASK32


_SHIFTERS = {
    Op.LSL: lambda v, a: ((v << a) & MASK32) if a < 32 else (0 if a else v & MASK32),
    Op.LSR: lambda v, a: ((v & MASK32) >> a) if a < 32 else (0 if a else v & MASK32),
    Op.ASR: _asr,
    Op.ROR: _ror,
}

_ALU_BINOPS = {
    Op.ADD: lambda a, b: a + b,
    Op.SUB: lambda a, b: a - b,
    Op.RSB: lambda a, b: b - a,
    Op.AND: lambda a, b: a & b,
    Op.ORR: lambda a, b: a | b,
    Op.EOR: lambda a, b: a ^ b,
    Op.BIC: lambda a, b: a & ~b,
}

#: Every op whose ``rd`` is a general-register destination.  Writing the
#: pc this way is rejected at translation time, matching ``CPU.step``.
_PC_WRITERS = frozenset(_ALU_BINOPS) | {
    Op.MOV, Op.MVN, Op.LSL, Op.LSR, Op.ASR, Op.ROR, Op.MUL,
    Op.LDR, Op.LDRB, Op.MRC, Op.LDO,
}
