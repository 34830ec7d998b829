"""Two-pass assembler for the ProteanARM instruction set.

The workload kernels of the evaluation (alpha blending, Twofish, audio
echo and their software alternatives) are written in this assembly
dialect.  Supported syntax::

    ; comment            @ comment
    .equ NAME, 123       ; constant
    .text                ; code section (default)
    .data                ; data section
    label:               ; code or data label
    buf: .space 256      ; reserve bytes
    tbl: .word 1, 0x2, L ; 32-bit words (labels allowed)
    b:   .byte 1, 2, 3   ; bytes

    MOV  r0, #42         ; immediates: #dec, #0xhex, #label, #NAME
    ADD  r0, r1, r2
    LDR  r0, [r1, #4]    ; offset addressing
    LDR  r0, [r1], #4    ; post-increment addressing
    BNE  loop            ; conditional branches
    BL   func            ; call (lr = return address)
    BX   lr              ; return
    MCR  f0, r1          ; FPL register file transfer (core -> FPL)
    MRC  r1, f0          ; FPL register file transfer (FPL -> core)
    CDP  #1, f2, f0, f1  ; custom instruction CID 1: f2 = op(f0, f1)
    LDO  r0, #0          ; software dispatch: read source operand 0
    STO  r0              ; software dispatch: deliver result
    SWI  #1              ; syscall

Code labels resolve to code-space addresses (``CODE_BASE + 4*index``),
data labels to data-space addresses (``data_base + offset``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from ..errors import AssemblerError
from .isa import (
    BRANCH_OPS,
    COMPARE_OPS,
    COND_ALIASES,
    MEMORY_OPS,
    REG_ALIASES,
    THREE_OPERAND_OPS,
    TWO_OPERAND_OPS,
    Cond,
    Instruction,
    Op,
    code_address,
)

#: Default base address of the data section in process memory.
DATA_BASE = 0x0000_1000

_LABEL_RE = re.compile(r"^([A-Za-z_.][\w.]*):\s*(.*)$")
_NAME_RE = re.compile(r"^[A-Za-z_.][\w.]*$")


@dataclass
class AssembledProgram:
    """The output of :func:`assemble`."""

    instructions: list[Instruction]
    labels: dict[str, int]
    data: bytes
    data_base: int = DATA_BASE
    #: (instruction index -> source line number), for diagnostics.
    line_map: dict[int, int] = field(default_factory=dict)

    @property
    def entry_index(self) -> int:
        """Instruction index of the entry point (``main`` if defined)."""
        if "main" in self.labels:
            return (self.labels["main"] - code_address(0)) // 4
        return 0

    def label_address(self, name: str) -> int:
        try:
            return self.labels[name]
        except KeyError:
            raise AssemblerError(f"unknown label {name!r}") from None


@dataclass
class _PendingInstruction:
    line_no: int
    mnemonic: str
    operands: list[str]


def assemble(source: str, data_base: int = DATA_BASE) -> AssembledProgram:
    """Assemble ``source`` into an :class:`AssembledProgram`."""
    pending: list[_PendingInstruction] = []
    labels: dict[str, int] = {}
    constants: dict[str, int] = {}
    data = bytearray()
    #: Fixups for .word values that reference labels: (offset, name, line).
    word_fixups: list[tuple[int, str, int]] = []
    section = ".text"

    for line_no, raw in enumerate(source.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        while line:
            match = _LABEL_RE.match(line)
            if match:
                name, line = match.group(1), match.group(2).strip()
                if name in labels or name in constants:
                    raise AssemblerError(f"duplicate label {name!r}", line_no)
                if section == ".text":
                    labels[name] = code_address(len(pending))
                else:
                    labels[name] = data_base + len(data)
                continue
            break
        if not line:
            continue
        mnemonic, __, rest = line.partition(" ")
        mnemonic = mnemonic.strip().upper()
        operands = _split_operands(rest)
        if mnemonic.startswith("."):
            section = _directive(
                mnemonic,
                operands,
                line_no,
                section,
                constants,
                data,
                word_fixups,
            )
        else:
            if section != ".text":
                raise AssemblerError(
                    f"instruction {mnemonic} in data section", line_no
                )
            pending.append(_PendingInstruction(line_no, mnemonic, operands))

    symbols = dict(constants)
    symbols.update(labels)
    for offset, name, line_no in word_fixups:
        if name not in symbols:
            raise AssemblerError(f"unknown symbol {name!r}", line_no)
        value = symbols[name] & 0xFFFFFFFF
        data[offset:offset + 4] = value.to_bytes(4, "little")

    instructions: list[Instruction] = []
    line_map: dict[int, int] = {}
    for index, item in enumerate(pending):
        instruction = _encode_pending(item, index, symbols)
        line_map[index] = item.line_no
        instructions.append(instruction)
    return AssembledProgram(
        instructions=instructions,
        labels=labels,
        data=bytes(data),
        data_base=data_base,
        line_map=line_map,
    )


# ---------------------------------------------------------------------------
# parsing helpers


def _strip_comment(line: str) -> str:
    for marker in (";", "@"):
        pos = line.find(marker)
        if pos >= 0:
            line = line[:pos]
    return line


def _split_operands(rest: str) -> list[str]:
    """Split an operand string on commas, keeping ``[rn, #imm]`` together."""
    if "[" not in rest and "]" not in rest:
        # No brackets (every ``.word`` line): every comma splits, and
        # only a blank final piece is dropped, as in the loop below.
        operands = [piece.strip() for piece in rest.split(",")]
        if not operands[-1]:
            operands.pop()
        return operands
    operands: list[str] = []
    depth = 0
    current = ""
    for char in rest:
        if char == "[":
            depth += 1
        elif char == "]":
            depth -= 1
        if char == "," and depth == 0:
            operands.append(current.strip())
            current = ""
        else:
            current += char
    if current.strip():
        operands.append(current.strip())
    return operands


def _directive(
    mnemonic: str,
    operands: list[str],
    line_no: int,
    section: str,
    constants: dict[str, int],
    data: bytearray,
    word_fixups: list[tuple[int, str, int]],
) -> str:
    """Handle an assembler directive; returns the (possibly new) section."""
    if mnemonic in (".TEXT", ".DATA"):
        return mnemonic.lower()
    if mnemonic == ".EQU":
        if len(operands) != 2:
            raise AssemblerError(".equ expects NAME, value", line_no)
        name = operands[0]
        if not _NAME_RE.match(name):
            raise AssemblerError(f"bad constant name {name!r}", line_no)
        if name in constants:
            raise AssemblerError(f"duplicate constant {name!r}", line_no)
        constants[name] = _parse_int(operands[1], constants, line_no)
        return section
    if section != ".data":
        raise AssemblerError(f"{mnemonic.lower()} outside .data", line_no)
    if mnemonic == ".WORD":
        for operand in operands:
            try:
                value = _parse_int(operand, constants, line_no)
            except AssemblerError:
                if not _NAME_RE.match(operand):
                    raise
                word_fixups.append((len(data), operand, line_no))
                value = 0
            data.extend((value & 0xFFFFFFFF).to_bytes(4, "little"))
    elif mnemonic == ".BYTE":
        for operand in operands:
            value = _parse_int(operand, constants, line_no)
            if not -128 <= value <= 255:
                raise AssemblerError(f"byte value {value} out of range", line_no)
            data.append(value & 0xFF)
    elif mnemonic == ".SPACE":
        if len(operands) != 1:
            raise AssemblerError(".space expects one size", line_no)
        size = _parse_int(operands[0], constants, line_no)
        if size < 0:
            raise AssemblerError(".space size cannot be negative", line_no)
        data.extend(bytes(size))
    else:
        raise AssemblerError(f"unknown directive {mnemonic.lower()}", line_no)
    return section


def _parse_int(text: str, constants: dict[str, int], line_no: int) -> int:
    text = text.strip()
    if text in constants:
        return constants[text]
    try:
        return int(text, 0)
    except ValueError:
        raise AssemblerError(f"cannot parse integer {text!r}", line_no) from None


# ---------------------------------------------------------------------------
# second pass: operand resolution


def _encode_pending(
    item: _PendingInstruction, index: int, symbols: dict[str, int]
) -> Instruction:
    mnemonic, operands, line_no = item.mnemonic, item.operands, item.line_no
    cond = Cond.AL

    if mnemonic.startswith("B") and mnemonic not in ("B", "BL", "BX", "BIC"):
        suffix = mnemonic[1:]
        cond = _parse_cond(suffix, line_no)
        mnemonic = "B"

    try:
        op = Op[mnemonic]
    except KeyError:
        raise AssemblerError(f"unknown mnemonic {mnemonic!r}", line_no) from None

    if op in BRANCH_OPS:
        return _branch(op, cond, operands, index, symbols, line_no)
    if op is Op.BX:
        _expect(operands, 1, op, line_no)
        return Instruction(op=op, rn=_reg(operands[0], line_no))
    if op in THREE_OPERAND_OPS:
        _expect(operands, 3, op, line_no)
        rd = _reg(operands[0], line_no)
        rn = _reg(operands[1], line_no)
        rm, imm, uses_imm = _op2(operands[2], symbols, line_no)
        return Instruction(op=op, rd=rd, rn=rn, rm=rm, imm=imm, uses_imm=uses_imm)
    if op in TWO_OPERAND_OPS:
        _expect(operands, 2, op, line_no)
        rd = _reg(operands[0], line_no)
        rm, imm, uses_imm = _op2(operands[1], symbols, line_no)
        return Instruction(op=op, rd=rd, rm=rm, imm=imm, uses_imm=uses_imm)
    if op is Op.MUL:
        _expect(operands, 3, op, line_no)
        return Instruction(
            op=op,
            rd=_reg(operands[0], line_no),
            rn=_reg(operands[1], line_no),
            rm=_reg(operands[2], line_no),
        )
    if op in COMPARE_OPS:
        _expect(operands, 2, op, line_no)
        rn = _reg(operands[0], line_no)
        rm, imm, uses_imm = _op2(operands[1], symbols, line_no)
        return Instruction(op=op, rn=rn, rm=rm, imm=imm, uses_imm=uses_imm)
    if op in MEMORY_OPS:
        return _memory(op, operands, symbols, line_no)
    if op is Op.SWI:
        _expect(operands, 1, op, line_no)
        return Instruction(
            op=op, imm=_imm(operands[0], symbols, line_no), uses_imm=True
        )
    if op is Op.MCR:
        _expect(operands, 2, op, line_no)
        return Instruction(
            op=op,
            rd=_fpl_reg(operands[0], line_no),
            rn=_reg(operands[1], line_no),
        )
    if op is Op.MRC:
        _expect(operands, 2, op, line_no)
        return Instruction(
            op=op,
            rd=_reg(operands[0], line_no),
            rn=_fpl_reg(operands[1], line_no),
        )
    if op is Op.CDP:
        _expect(operands, 4, op, line_no)
        cid = _imm(operands[0], symbols, line_no)
        if cid < 0:
            raise AssemblerError("CID cannot be negative", line_no)
        return Instruction(
            op=op,
            imm=cid,
            uses_imm=True,
            rd=_fpl_reg(operands[1], line_no),
            rn=_fpl_reg(operands[2], line_no),
            rm=_fpl_reg(operands[3], line_no),
        )
    if op is Op.LDO:
        _expect(operands, 2, op, line_no)
        selector = _imm(operands[1], symbols, line_no)
        if selector not in (0, 1):
            raise AssemblerError("LDO selector must be #0 or #1", line_no)
        return Instruction(
            op=op, rd=_reg(operands[0], line_no), imm=selector, uses_imm=True
        )
    if op is Op.STO:
        _expect(operands, 1, op, line_no)
        return Instruction(op=op, rn=_reg(operands[0], line_no))
    if op in (Op.NOP, Op.HALT):
        _expect(operands, 0, op, line_no)
        return Instruction(op=op)
    raise AssemblerError(f"unhandled mnemonic {mnemonic!r}", line_no)


def _parse_cond(suffix: str, line_no: int) -> Cond:
    if suffix in COND_ALIASES:
        return COND_ALIASES[suffix]
    try:
        return Cond[suffix]
    except KeyError:
        raise AssemblerError(f"unknown condition B{suffix}", line_no) from None


def _expect(operands: list[str], count: int, op: Op, line_no: int) -> None:
    if len(operands) != count:
        raise AssemblerError(
            f"{op.name} expects {count} operands, got {len(operands)}", line_no
        )


def _reg(text: str, line_no: int) -> int:
    text = text.strip().lower()
    if text in REG_ALIASES:
        return REG_ALIASES[text]
    if text.startswith("r") and text[1:].isdigit():
        number = int(text[1:])
        if 0 <= number <= 15:
            return number
    raise AssemblerError(f"bad register {text!r}", line_no)


def _fpl_reg(text: str, line_no: int) -> int:
    text = text.strip().lower()
    if text.startswith("f") and text[1:].isdigit():
        number = int(text[1:])
        if 0 <= number <= 15:
            return number
    raise AssemblerError(f"bad FPL register {text!r}", line_no)


def _imm(text: str, symbols: dict[str, int], line_no: int) -> int:
    text = text.strip()
    if not text.startswith("#"):
        raise AssemblerError(f"expected immediate, got {text!r}", line_no)
    body = text[1:].strip()
    return _symbol_or_int(body, symbols, line_no)


def _symbol_or_int(body: str, symbols: dict[str, int], line_no: int) -> int:
    if "+" in body:
        left, __, right = body.partition("+")
        return _symbol_or_int(left.strip(), symbols, line_no) + _symbol_or_int(
            right.strip(), symbols, line_no
        )
    if body in symbols:
        return symbols[body]
    try:
        return int(body, 0)
    except ValueError:
        raise AssemblerError(f"unknown symbol {body!r}", line_no) from None


def _op2(
    text: str, symbols: dict[str, int], line_no: int
) -> tuple[int, int, bool]:
    """Parse a flexible second operand: register or immediate."""
    text = text.strip()
    if text.startswith("#"):
        return 0, _imm(text, symbols, line_no), True
    return _reg(text, line_no), 0, False


def _memory(
    op: Op, operands: list[str], symbols: dict[str, int], line_no: int
) -> Instruction:
    if len(operands) not in (2, 3):
        raise AssemblerError(f"{op.name} expects 2 or 3 operands", line_no)
    rd = _reg(operands[0], line_no)
    address = operands[1].strip()
    if not (address.startswith("[") and address.endswith("]")):
        raise AssemblerError(f"bad address operand {address!r}", line_no)
    inner = address[1:-1].strip()
    post_inc = len(operands) == 3
    if post_inc:
        if "," in inner:
            raise AssemblerError(
                "post-increment cannot also use an offset", line_no
            )
        rn = _reg(inner, line_no)
        imm = _imm(operands[2], symbols, line_no)
    elif "," in inner:
        base, __, offset = inner.partition(",")
        rn = _reg(base, line_no)
        imm = _imm(offset.strip(), symbols, line_no)
    else:
        rn = _reg(inner, line_no)
        imm = 0
    return Instruction(op=op, rd=rd, rn=rn, imm=imm, post_inc=post_inc)


def _branch(
    op: Op,
    cond: Cond,
    operands: list[str],
    index: int,
    symbols: dict[str, int],
    line_no: int,
) -> Instruction:
    _expect(operands, 1, op, line_no)
    target = operands[0].strip()
    if target not in symbols:
        raise AssemblerError(f"unknown branch target {target!r}", line_no)
    address = symbols[target]
    target_index, remainder = divmod(address - code_address(0), 4)
    if remainder or target_index < 0:
        raise AssemblerError(
            f"branch target {target!r} is not a code label", line_no
        )
    offset = target_index - (index + 1)
    return Instruction(op=op, cond=cond, imm=offset, uses_imm=True)


# ---------------------------------------------------------------------------
# disassembly (for diagnostics and round-trip tests)


def format_instruction(instruction: Instruction) -> str:
    """Render an instruction back to assembly-like text."""
    op = instruction.op
    cond = "" if instruction.cond is Cond.AL else instruction.cond.name

    def op2() -> str:
        if instruction.uses_imm:
            return f"#{instruction.imm}"
        return f"r{instruction.rm}"

    if op in BRANCH_OPS:
        return f"{op.name}{cond} .{instruction.imm:+d}"
    if op is Op.BX:
        return f"BX r{instruction.rn}"
    if op in THREE_OPERAND_OPS:
        return f"{op.name} r{instruction.rd}, r{instruction.rn}, {op2()}"
    if op in TWO_OPERAND_OPS:
        return f"{op.name} r{instruction.rd}, {op2()}"
    if op is Op.MUL:
        return f"MUL r{instruction.rd}, r{instruction.rn}, r{instruction.rm}"
    if op in COMPARE_OPS:
        return f"{op.name} r{instruction.rn}, {op2()}"
    if op in MEMORY_OPS:
        if instruction.post_inc:
            return (
                f"{op.name} r{instruction.rd}, [r{instruction.rn}], "
                f"#{instruction.imm}"
            )
        if instruction.imm:
            return (
                f"{op.name} r{instruction.rd}, [r{instruction.rn}, "
                f"#{instruction.imm}]"
            )
        return f"{op.name} r{instruction.rd}, [r{instruction.rn}]"
    if op is Op.SWI:
        return f"SWI #{instruction.imm}"
    if op is Op.MCR:
        return f"MCR f{instruction.rd}, r{instruction.rn}"
    if op is Op.MRC:
        return f"MRC r{instruction.rd}, f{instruction.rn}"
    if op is Op.CDP:
        return (
            f"CDP #{instruction.imm}, f{instruction.rd}, f{instruction.rn}, "
            f"f{instruction.rm}"
        )
    if op is Op.LDO:
        return f"LDO r{instruction.rd}, #{instruction.imm}"
    if op is Op.STO:
        return f"STO r{instruction.rn}"
    return op.name
