"""Generated-code compiler — the ``block`` execution tier.

Every instruction but CDP gets a generated one-instruction Python
function, and straight-line runs of simple instructions are *fused*
into one function per run, so a burst dispatches once per basic block
instead of once per instruction.  :func:`_emit_instruction` is the one
source of each op's compiled semantics: the one-instruction functions,
the fused runs and the traces of :mod:`repro.cpu.traces` are all
emitted from it.  A CDP keeps a hand-written closure
(:func:`repro.cpu.translate.cdp_closure`), because its per-site memo is
mutable state.  The tier is purely a simulator-speed choice: cycle
accounting, trace counters, fault state and checkpoint bytes are
bit-identical to the ``step`` tier.

**Partitioning.**  Block leaders are instruction 0, every static branch
target, and the instruction after each terminator (B/BL/BX/SWI/HALT/CDP
— see :data:`~repro.cpu.isa.BLOCK_TERMINATORS`).  A *fusible run* is a
maximal stretch of :data:`~repro.cpu.isa.FUSIBLE_OPS` instructions that
crosses no leader and contains no translation-time raiser (an ``rd=15``
write); runs of at least two instructions are fused.

**Why fusion preserves semantics.**  A fused run contains no control
flow, no traps, and nothing that sets ``halted`` or ``interrupted``, so
the per-iteration checks of :meth:`repro.cpu.core.CPU.run` cannot fire
inside it.  Each fused function guards on its precomputed cycle total
and falls back to the leader's one-instruction function when the
remaining budget is smaller — in exactly those bursts the reference
interpreter also steps the run one instruction at a time, so quantum
boundaries and the overrun of the final committed instruction land on
the same instruction with the same cycle count.  Memory operations keep
their own ``except MemoryFault`` bookkeeping so a faulting instruction
leaves ``ctx.idx`` on itself and ``ctx.retired`` counting its completed
predecessors, as stepping does.  Every index keeps its one-instruction
function, so BX targets, software-dispatch returns, and checkpoints
restored mid-run enter the middle of a block correctly.

**Translation-time raisers.**  A pc write (``rd=15``), a branch out of
the program and an opcode no tier implements are rejected when the
program is translated: the instruction's entry is a closure that raises
the error :meth:`~repro.cpu.core.CPU.step` raises, when it executes.

All functions of a program are generated as Python source, in pieces
of at most :data:`SOURCE_CHUNK` characters, and ``exec``-ed once per
program; captured objects (register file, run context, memory
accessors, flag setters) are bound through default arguments so the hot
path uses local loads only.  The source thus names no machine state,
and :func:`_code_for` compiles each distinct source once per process.

**Direct datapath access.**  A load or store does not call the
:class:`~repro.cpu.memory.Memory` accessor on its common path: it tests
the address against the guard and size (and, for words, alignment)
inline, then indexes the bound backing ``bytearray`` (``struct``
``unpack_from``/``pack_into`` for words).  An address off that path
calls the accessor, which raises the fault every tier raises.  The
guard and size are literals in the source; the binding stays exact
because a ``Memory`` never changes its geometry and
:meth:`~repro.cpu.memory.Memory.restore` copies into the same
``bytearray`` (and rejects a snapshot of another layout).  An MCR or
MRC is a subscript of the FPL register file's bound word list, which is
never rebound either (:meth:`~repro.core.regfile.FPLRegisterFile.load`
copies into it); core registers hold 32-bit values, so nothing is left
to mask.  One naming a register the file does not have calls the
file's range check first, which raises what ``step`` raises.
"""

from __future__ import annotations

import struct
from types import CodeType
from typing import NamedTuple

from ..config import MachineConfig
from ..core.coprocessor import ProteusCoprocessor
from ..errors import CPUError, MemoryFault
from .exceptions import ExitTrap, SyscallTrap
from .isa import (
    BLOCK_TERMINATORS,
    CODE_BASE,
    Cond,
    FUSIBLE_OPS,
    Flags,
    Instruction,
    MASK32,
    Op,
    PC_WRITERS,
)
from .memory import Memory
from .translate import OpClosure, RunContext, _SHIFTERS, cdp_closure

__all__ = ["translate_blocks", "fusible_runs", "block_leaders"]

#: Runs shorter than this are left to the one-instruction functions.
MIN_RUN = 2

#: Distinct generated sources kept compiled; a full cache starts over.
CODE_CACHE_SIZE = 1024

#: Generated source per ``compile`` call, in characters: ``compile``
#: holds a whole source's syntax tree at once, about 140 bytes per
#: source character, so one large program's source would set the
#: process's peak memory.
SOURCE_CHUNK = 16_384

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

#: Condition -> inline predicate over the bound flags object ``_fl`` —
#: exactly :meth:`repro.cpu.isa.Flags.passes`, without the call.
_COND_EXPR = {
    Cond.EQ: "_fl.z",
    Cond.NE: "not _fl.z",
    Cond.LT: "_fl.n != _fl.v",
    Cond.LE: "_fl.z or _fl.n != _fl.v",
    Cond.GT: "not _fl.z and _fl.n == _fl.v",
    Cond.GE: "_fl.n == _fl.v",
    Cond.CC: "not _fl.c",
    Cond.CS: "_fl.c",
    Cond.HI: "_fl.c and not _fl.z",
    Cond.LS: "not _fl.c or _fl.z",
    Cond.MI: "_fl.n",
    Cond.PL: "not _fl.n",
}

#: Ops whose emitted lines leave the function themselves (return or
#: raise); they are only ever emitted as one-instruction functions.
_TRANSFERS = frozenset((Op.B, Op.BL, Op.BX, Op.SWI, Op.HALT))

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
    "_fl": "_FL",
    "_fw": "_FPL",
    "_fck": "_FCHECK",
    "_rdo": "_RDO",
    "_sto": "_STO",
    "_CE": "_CPUERROR",
    "_SWI": "_SYSCALL",
    "_EXIT": "_EXITTRAP",
    "_st": "_STATE",
}


class Layout(NamedTuple):
    """What generated code compares against as literals: the process
    memory's geometry, the FPL register count and the program length.
    None of them changes for the life of a compiled program."""

    guard_below: int
    memory_size: int
    fpl_registers: int
    length: int


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
    if op in PC_WRITERS and instruction.rd == 15:
        return False  # a translation-time raiser; leave it unfused
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
    layout: Layout,
    needs: set[str],
    reg=_list_reg,
) -> tuple[list[str], int]:
    """Source lines + cycle cost for one instruction at ``index``.

    The lines perform the op's effect; the caller advances ``ctx`` and
    charges the cost.  A control transfer (B/BL/BX/SWI/HALT) is the
    exception: its lines advance ``ctx`` and return or raise
    themselves, and its reported cost is 0.

    ``offset`` is the number of instructions retired before this one
    since ``ctx`` was last advanced; memory operations use it to
    reconstruct the exact fault state stepping would leave.  ``reg``
    maps a register number to its source expression — the trace tier
    (:mod:`repro.cpu.traces`) substitutes Python locals for the
    register-file subscripts.

    Raises :class:`~repro.errors.CPUError` for an instruction that is
    rejected at translation time (see the module docstring).
    """
    op = instruction.op
    rd, rn, rm, imm = (
        instruction.rd, instruction.rn, instruction.rm, instruction.imm,
    )
    if op in PC_WRITERS and rd == 15:
        raise CPUError("direct writes to pc are not supported; use B/BL/BX")

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
        guard, size = layout.guard_below, layout.memory_size
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
            # exactly as stepping does.
            body.append(f"{reg(rn)} = ({reg(rn)} + {imm}) & {MASK32}")
        lines = ["try:"]
        lines += ["    " + line for line in body]
        lines += ["except _MF:", f"    _ctx.idx = {index}"]
        if offset:
            lines.append(f"    _ctx.retired += {offset}")
        lines.append("    raise")
        cycles = config.load_cycles if is_load else config.store_cycles
        return lines, cycles

    if op is Op.NOP:
        return [], config.alu_cycles

    if op is Op.MCR or op is Op.MRC:
        fpl = rd if op is Op.MCR else rn
        needs.add("_fw")
        lines = []
        if fpl >= layout.fpl_registers:
            needs.add("_fck")
            lines.append(f"_fck({fpl})")  # raises: no such register
        if op is Op.MCR:
            lines.append(f"_fw[{rd}] = {reg(rn)}")
        else:
            lines.append(f"{reg(rd)} = _fw[{rn}]")
        return lines, config.coproc_transfer_cycles

    if op is Op.LDO:
        needs.add("_rdo")
        return [f"{reg(rd)} = _rdo({imm})"], config.operand_reg_cycles

    if op is Op.STO:
        needs.add("_sto")
        return [f"_sto({reg(rn)})"], config.operand_reg_cycles

    if op is Op.B or op is Op.BL:
        target = index + 1 + imm
        if not 0 <= target < layout.length:
            raise CPUError(f"branch target index {target} out of program")
        lines = []
        if instruction.cond is not Cond.AL:
            needs.add("_fl")
            lines += [
                f"if not ({_COND_EXPR[instruction.cond]}):",
                f"    _ctx.idx = {index + 1}",
                "    _ctx.retired += 1",
                f"    return {config.alu_cycles}",
            ]
        if op is Op.BL:
            lines.append(f"{reg(14)} = {CODE_BASE + 4 * (index + 1)}")
        lines += [f"_ctx.idx = {target}", "_ctx.retired += 1",
                  f"return {config.branch_cycles}"]
        return lines, 0

    if op is Op.BX:
        needs.add("_CE")
        return [
            f"_a = {reg(rn)}",
            f"if _a < {CODE_BASE} or (_a - {CODE_BASE}) % 4:",
            '    raise _CE(f"BX to non-code address {_a:#010x}")',
            f"_ctx.idx = (_a - {CODE_BASE}) >> 2",
            "_ctx.retired += 1",
            f"return {config.branch_cycles}",
        ], 0

    if op is Op.SWI:
        needs.add("_SWI")
        return [f"_ctx.idx = {index + 1}", "_ctx.retired += 1",
                f"raise _SWI(number={imm})"], 0

    if op is Op.HALT:
        needs.update(("_st", "_EXIT"))
        return ["_st.halted = True", "_ctx.retired += 1",
                f"raise _EXIT(status={reg(0)})"], 0

    raise CPUError(f"unimplemented opcode {op.name}")


def _emit_function(
    program: list[Instruction],
    start: int,
    end: int,
    config: MachineConfig,
    layout: Layout,
) -> str:
    """The source of the function running instructions ``start..end``.

    One instruction makes ``_op_{start}``; a fused run makes
    ``_block_{start}``, which hands a budget shortfall to
    ``_op_{start}`` (``exec``-ed earlier into the same environment).
    """
    needs: set[str] = set()
    body: list[str] = []
    total = 0
    for offset, index in enumerate(range(start, end)):
        lines, cycles = _emit_instruction(
            index, program[index], offset, config, layout, needs
        )
        body.extend(lines)
        total += cycles
    params = ["_r=_REGS", "_ctx=_CTX"]
    params += [f"{name}={_ENV_NAMES[name]}" for name in sorted(needs)]
    if end - start == 1:
        out = [f"def _op_{start}(_b, {', '.join(params)}):"]
    else:
        out = [
            f"def _block_{start}(_b, _single=_op_{start}, "
            f"{', '.join(params)}):",
            f"    if _b < {total}:",
            "        return _single(_b)",
        ]
    out += ["    " + line for line in body]
    if program[start].op not in _TRANSFERS:
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


def _sources(parts: list[str]) -> list[str]:
    """``parts`` joined, in order, into sources of at most
    :data:`SOURCE_CHUNK` characters (a longer part stands alone)."""
    sources: list[str] = []
    chunk: list[str] = []
    size = 0
    for part in parts:
        if chunk and size + len(part) > SOURCE_CHUNK:
            sources.append("\n\n".join(chunk))
            chunk, size = [], 0
        chunk.append(part)
        size += len(part) + 2  # and the separator after it
    sources.append("\n\n".join(chunk))
    return sources


def _layout(program: list[Instruction], memory: Memory,
            coprocessor: ProteusCoprocessor) -> Layout:
    return Layout(memory.guard_below, memory.size, coprocessor.regfile.size,
                  len(program))


def _base_env(regs: list[int], ctx: RunContext, flags: Flags,
              memory: Memory,
              coprocessor: ProteusCoprocessor) -> dict[str, object]:
    """The binding environment shared by blocks and traces."""
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
        "_FL": flags,
        "_FPL": coprocessor.regfile.words,
        "_FCHECK": coprocessor.regfile.check,
        "_RDO": coprocessor.operand_regs.read_operand,
        "_STO": coprocessor.store_soft_result,
        "_CPUERROR": CPUError,
        "_SYSCALL": SyscallTrap,
        "_EXITTRAP": ExitTrap,
    }


def _raiser(message: str) -> OpClosure:
    def handler(_budget: int) -> int:
        raise CPUError(message)

    return handler


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
    """Compile a program into one callable per instruction index.

    Each index holds its one-instruction function (a closure for a CDP
    or a translation-time raiser), except that run leaders hold their
    fused run's function instead — so mid-block entry needs no special
    casing.
    """
    layout = _layout(program, memory, coprocessor)
    ops: list = [None] * len(program)
    parts: list[str] = []
    for index, instruction in enumerate(program):
        if instruction.op is Op.CDP:
            ops[index] = cdp_closure(
                instruction, index, ctx, regs, coprocessor, config, pid
            )
            continue
        try:
            parts.append(
                _emit_function(program, index, index + 1, config, layout)
            )
        except CPUError as error:
            ops[index] = _raiser(str(error))
    runs = fusible_runs(program)
    parts += [
        _emit_function(program, start, end, config, layout)
        for start, end in runs
    ]
    if not parts:
        return ops
    env = _base_env(regs, ctx, flags, memory, coprocessor)
    env["_STATE"] = state
    for source in _sources(parts):
        exec(_code_for(source, "<blocks>"), env)
    # Popped: a function its own globals hold is a reference cycle, and
    # a function binds all it uses as defaults at definition.
    for index, op in enumerate(ops):
        if op is None:
            ops[index] = env.pop(f"_op_{index}")
    for start, _end in runs:
        ops[start] = env.pop(f"_block_{start}")
    return ops
