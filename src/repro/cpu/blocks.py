"""Basic-block superinstruction compiler — the ``block`` execution tier.

:mod:`repro.cpu.translate` compiles one closure per instruction; this
module overlays that list with *fused* closures covering straight-line
runs of simple instructions, so a burst dispatches once per basic block
instead of once per instruction.  The tier is purely a simulator-speed
choice: cycle accounting, trace counters, fault state and checkpoint
bytes are bit-identical to the ``step`` tier.

**Partitioning.**  Block leaders are instruction 0, every static branch
target, and the instruction after each terminator (B/BL/BX/SWI/HALT/CDP
— see :data:`~repro.cpu.isa.BLOCK_TERMINATORS`).  A *fusible run* is a
maximal stretch of :data:`~repro.cpu.isa.FUSIBLE_OPS` instructions that
crosses no leader and contains no translation-time raiser (an ``rd=15``
write); runs of at least two instructions are fused.

**Why fusion preserves semantics.**  A fused run contains no control
flow, no traps, and nothing that sets ``halted`` or ``interrupted``, so
the per-iteration checks of :meth:`repro.cpu.core.CPU.run` cannot fire
inside it.  Each fused closure guards on its precomputed cycle total and
falls back to the leader's original per-instruction closure when the
remaining budget is smaller — in exactly those bursts the reference
interpreter also steps the run one instruction at a time, so quantum
boundaries and the overrun of the final committed instruction land on
the same instruction with the same cycle count.  Memory operations keep
their own ``except MemoryFault`` bookkeeping so a faulting instruction
leaves ``ctx.idx`` on itself and ``ctx.retired`` counting its completed
predecessors, as the unfused closures do.  Indexes *inside* a run keep
their per-instruction closures, so BX targets, software-dispatch
returns, and checkpoints restored mid-run enter the middle of a block
correctly.

The fused bodies are generated as Python source and ``exec``-ed once
per program; captured objects (register file, run context, memory
accessors, flag setters) are bound through default arguments so the hot
path uses local loads only.  The source thus names no machine state,
and :func:`_code_for` compiles each distinct source once per process.

**Direct memory access.**  A load or store does not call the
:class:`~repro.cpu.memory.Memory` accessor on its common path: it tests
the address against the guard and size (and, for words, alignment)
inline, then indexes the bound backing ``bytearray`` (``struct``
``unpack_from``/``pack_into`` for words).  An address off that path
calls the accessor, which raises the fault every tier raises.  The
guard and size are literals in the source; the binding stays exact
because a ``Memory`` never changes its geometry and
:meth:`~repro.cpu.memory.Memory.restore` copies into the same
``bytearray`` (and rejects a snapshot of another layout).
"""

from __future__ import annotations

import struct
from types import CodeType

from ..config import MachineConfig
from ..core.coprocessor import ProteusCoprocessor
from ..errors import CPUError, MemoryFault
from .isa import BLOCK_TERMINATORS, FUSIBLE_OPS, Flags, Instruction, MASK32, Op
from .memory import Memory
from .translate import (
    OpClosure,
    RunContext,
    _PC_WRITERS,
    _SHIFTERS,
    translate,
)

__all__ = ["translate_blocks", "fusible_runs", "block_leaders"]

#: Runs shorter than this are left to the per-instruction closures.
MIN_RUN = 2

#: Distinct generated sources kept compiled; a full cache starts over.
CODE_CACHE_SIZE = 1024

#: Process-wide code cache: generated source -> code object.  A code
#: object depends on its source alone, so sharing it changes no result.
_CODE_CACHE: dict[str, CodeType] = {}

#: One little-endian memory word, for the inline LDR/STR fast path.
_WORD = struct.Struct("<I")

_BINOP_EXPR = {
    Op.ADD: "({a} + {b})",
    Op.SUB: "({a} - {b})",
    Op.RSB: "({b} - {a})",
    Op.AND: "({a} & {b})",
    Op.ORR: "({a} | {b})",
    Op.EOR: "({a} ^ {b})",
    Op.BIC: "({a} & ~{b})",
}

#: Binops whose result is already 32-bit when both operands are: the
#: register file holds only masked values (every write masks, restore
#: masks), so the ``& MASK32`` would be a no-op and is elided.  BIC
#: qualifies because ``a & ~b`` of a non-negative ``a`` never exceeds
#: ``a``.  ADD/SUB/RSB can overflow or go negative and keep the mask.
_MASKLESS_BINOPS = frozenset((Op.AND, Op.ORR, Op.EOR, Op.BIC))

#: Generated-parameter name → key in the codegen environment.
_ENV_NAMES = {
    "_lw": "_LW",
    "_sw": "_SW",
    "_lb": "_LB",
    "_sb": "_SB",
    "_MF": "_MFAULT",
    "_m": "_MEM",
    "_ldw": "_LDW",
    "_stw": "_STW",
    "_fsub": "_FSUB",
    "_fadd": "_FADD",
    "_flog": "_FLOG",
    "_lsl": "_LSL",
    "_lsr": "_LSR",
    "_asr": "_ASR",
    "_ror": "_ROR",
}


def block_leaders(program: list[Instruction]) -> set[int]:
    """Indexes where a basic block may begin."""
    length = len(program)
    leaders = {0}
    for index, instruction in enumerate(program):
        op = instruction.op
        if op in BLOCK_TERMINATORS:
            leaders.add(index + 1)
        if op is Op.B or op is Op.BL:
            target = index + 1 + instruction.imm
            if 0 <= target < length:
                leaders.add(target)
    leaders.discard(length)
    return leaders


def _fusible(instruction: Instruction) -> bool:
    op = instruction.op
    if op not in FUSIBLE_OPS:
        return False
    if op in _PC_WRITERS and instruction.rd == 15:
        return False  # translate emits a raiser; leave it unfused
    return True


def fusible_runs(program: list[Instruction]) -> list[tuple[int, int]]:
    """Half-open ``(start, end)`` runs eligible for fusion, in order."""
    leaders = block_leaders(program)
    length = len(program)
    runs: list[tuple[int, int]] = []
    start: int | None = None
    for index in range(length + 1):
        at_end = index == length
        fusible = not at_end and _fusible(program[index])
        if start is not None and (at_end or not fusible or index in leaders):
            if index - start >= MIN_RUN:
                runs.append((start, index))
            start = None
        if not at_end and fusible and start is None:
            start = index
    return runs


# ---------------------------------------------------------------------------
# code generation


def _list_reg(index: int) -> str:
    """Default register expression: a register-file subscript."""
    return f"_r[{index}]"


def _emit_instruction(
    index: int,
    instruction: Instruction,
    offset: int,
    config: MachineConfig,
    bounds: tuple[int, int],
    needs: set[str],
    reg=_list_reg,
    fault_extra: list[str] | tuple[str, ...] = (),
) -> tuple[list[str], int]:
    """Source lines + cycle cost for one fused instruction.

    ``offset`` is the number of block instructions retired before this
    one; memory operations use it to reconstruct the exact mid-block
    fault state the per-instruction closures would leave.  ``bounds``
    is the process memory's ``(guard_below, size)``, which the inline
    load/store fast path compares against as literals.

    ``reg`` maps a register number to its source expression — the trace
    tier (:mod:`repro.cpu.traces`) substitutes Python locals for the
    register-file subscripts, and supplies ``fault_extra`` (its spill
    code) to run before a :class:`~repro.errors.MemoryFault` propagates.
    """
    op = instruction.op
    rd, rn, rm, imm = (
        instruction.rd, instruction.rn, instruction.rm, instruction.imm,
    )

    if op in _BINOP_EXPR:
        b = str(imm & MASK32) if instruction.uses_imm else reg(rm)
        expr = _BINOP_EXPR[op].format(a=reg(rn), b=b)
        if op in _MASKLESS_BINOPS:
            return [f"{reg(rd)} = {expr}"], config.alu_cycles
        return [f"{reg(rd)} = {expr} & {MASK32}"], config.alu_cycles

    if op is Op.MOV or op is Op.MVN:
        if instruction.uses_imm:
            value = (~imm if op is Op.MVN else imm) & MASK32
            line = f"{reg(rd)} = {value}"
        elif op is Op.MVN:
            line = f"{reg(rd)} = ~{reg(rm)} & {MASK32}"
        else:
            line = f"{reg(rd)} = {reg(rm)}"
        return [line], config.alu_cycles

    if op in (Op.LSL, Op.LSR, Op.ASR, Op.ROR):
        if instruction.uses_imm:
            amount = imm & 0xFF
            if op in (Op.LSL, Op.LSR):
                if amount == 0:
                    line = f"{reg(rd)} = {reg(rn)}"  # already masked
                elif amount >= 32:
                    line = f"{reg(rd)} = 0"
                elif op is Op.LSL:
                    line = f"{reg(rd)} = ({reg(rn)} << {amount}) & {MASK32}"
                else:
                    line = f"{reg(rd)} = {reg(rn)} >> {amount}"
            else:
                helper = "_asr" if op is Op.ASR else "_ror"
                needs.add(helper)
                line = f"{reg(rd)} = {helper}({reg(rn)}, {amount})"
        else:
            helper = f"_{op.name.lower()}"
            needs.add(helper)
            line = f"{reg(rd)} = {helper}({reg(rn)}, {reg(rm)} & 255)"
        return [line], config.alu_cycles

    if op is Op.MUL:
        line = f"{reg(rd)} = ({reg(rn)} * {reg(rm)}) & {MASK32}"
        return [line], config.mul_cycles

    if op in (Op.CMP, Op.CMN, Op.TST):
        b = str(imm & MASK32) if instruction.uses_imm else reg(rm)
        if op is Op.TST:
            needs.add("_flog")
            line = f"_flog({reg(rn)} & {b})"
        elif op is Op.CMP:
            needs.add("_fsub")
            line = f"_fsub({reg(rn)}, {b})"
        else:
            needs.add("_fadd")
            line = f"_fadd({reg(rn)}, {b})"
        return [line], config.alu_cycles

    if op in (Op.LDR, Op.LDRB, Op.STR, Op.STRB):
        is_load = op in (Op.LDR, Op.LDRB)
        is_byte = op in (Op.LDRB, Op.STRB)
        accessor = ("_lb" if is_byte else "_lw") if is_load else (
            "_sb" if is_byte else "_sw"
        )
        needs.update((accessor, "_MF", "_m"))
        if instruction.post_inc or not imm:
            address = reg(rn)
        else:
            address = f"({reg(rn)} + {imm}) & {MASK32}"
        # Inline fast path: an in-bounds (and, for words, aligned)
        # access goes straight to the backing bytearray.  Anything else
        # calls the Memory accessor, which raises the same fault the
        # other tiers raise.  Core registers hold masked values, so a
        # stored word needs no mask.
        guard, size = bounds
        if is_byte:
            test = f"{guard} <= _a < {size}"
            fast = f"{reg(rd)} = _m[_a]" if is_load else (
                f"_m[_a] = {reg(rd)} & 255"
            )
        else:
            needs.add("_ldw" if is_load else "_stw")
            test = f"{guard} <= _a <= {size - 4} and not _a & 3"
            fast = f"{reg(rd)} = _ldw(_m, _a)[0]" if is_load else (
                f"_stw(_m, _a, {reg(rd)})"
            )
        slow = f"{reg(rd)} = {accessor}(_a)" if is_load else (
            f"{accessor}(_a, {reg(rd)})"
        )
        body = [f"_a = {address}", f"if {test}:", f"    {fast}", "else:",
                f"    {slow}"]
        if instruction.post_inc and imm:
            # Order matters for LDR rd, [rn]+imm with rd == rn: the
            # increment re-reads the register *after* the load wrote it,
            # exactly as the unfused closure does.
            body.append(f"{reg(rn)} = ({reg(rn)} + {imm}) & {MASK32}")
        lines = ["try:"]
        lines += ["    " + line for line in body]
        lines += ["except _MF:", f"    _ctx.idx = {index}"]
        if offset:
            lines.append(f"    _ctx.retired += {offset}")
        lines += ["    " + line for line in fault_extra]
        lines.append("    raise")
        cycles = config.load_cycles if is_load else config.store_cycles
        return lines, cycles

    if op is Op.NOP:
        return [], config.alu_cycles

    raise CPUError(f"opcode {op.name} is not fusible")


def _emit_block(
    program: list[Instruction],
    start: int,
    end: int,
    config: MachineConfig,
    bounds: tuple[int, int],
) -> str:
    """The source of one fused-block function, ``_block_{start}``."""
    needs: set[str] = set()
    body: list[str] = []
    total = 0
    for offset, index in enumerate(range(start, end)):
        lines, cycles = _emit_instruction(
            index, program[index], offset, config, bounds, needs
        )
        body.extend(lines)
        total += cycles
    params = ", ".join(
        [f"_single=_SINGLE_{start}", "_r=_REGS", "_ctx=_CTX"]
        + [f"{name}={_ENV_NAMES[name]}" for name in sorted(needs)]
    )
    out = [
        f"def _block_{start}(_b, {params}):",
        f"    if _b < {total}:",
        "        return _single(_b)",
    ]
    out += ["    " + line for line in body]
    out += [
        f"    _ctx.idx = {end}",
        f"    _ctx.retired += {end - start}",
        f"    return {total}",
    ]
    return "\n".join(out)


def _code_for(source: str, filename: str) -> CodeType:
    """``source`` compiled, once per process (blocks and traces)."""
    code = _CODE_CACHE.get(source)
    if code is None:
        if len(_CODE_CACHE) >= CODE_CACHE_SIZE:
            _CODE_CACHE.clear()
        code = _CODE_CACHE[source] = compile(source, filename, "exec")
    return code


def _base_env(regs: list[int], ctx: RunContext, flags: Flags,
             memory: Memory) -> dict[str, object]:
    """The binding environment shared by fused blocks and traces."""
    return {
        "__builtins__": {},
        "_REGS": regs,
        "_CTX": ctx,
        "_LW": memory.load_word,
        "_SW": memory.store_word,
        "_LB": memory.load_byte,
        "_SB": memory.store_byte,
        "_MFAULT": MemoryFault,
        "_MEM": memory.buffer,
        "_LDW": _WORD.unpack_from,
        "_STW": _WORD.pack_into,
        "_FSUB": flags.set_from_sub,
        "_FADD": flags.set_from_add,
        "_FLOG": flags.set_from_logical,
        "_LSL": _SHIFTERS[Op.LSL],
        "_LSR": _SHIFTERS[Op.LSR],
        "_ASR": _SHIFTERS[Op.ASR],
        "_ROR": _SHIFTERS[Op.ROR],
    }


def translate_blocks(
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
    """Compile a program, then fuse its straight-line runs in place.

    Drop-in replacement for :func:`repro.cpu.translate.translate`: the
    returned list still holds one callable per instruction index, with
    fused closures installed at run leaders and the original closures
    everywhere else (so mid-block entry needs no special casing).
    """
    ops = translate(
        program, ctx, regs, flags, memory, coprocessor, config, pid, state
    )
    runs = fusible_runs(program)
    if not runs:
        return ops
    env = _base_env(regs, ctx, flags, memory)
    bounds = (memory.guard_below, memory.size)
    parts = []
    for start, end in runs:
        env[f"_SINGLE_{start}"] = ops[start]
        parts.append(_emit_block(program, start, end, config, bounds))
    source = "\n\n".join(parts)
    exec(_code_for(source, "<blocks>"), env)
    for start, _end in runs:
        # Popped: a function its own globals hold is a reference cycle,
        # and a block binds all it uses as defaults at definition.
        ops[start] = env.pop(f"_block_{start}")  # type: ignore[assignment]
    return ops
