"""Instruction-set definition for the ProteanARM model.

A compact, ARM-flavoured, 32-bit RISC instruction set — enough to write
the paper's workload kernels by hand while keeping decode trivial.  It is
not binary-compatible with real ARM; the coprocessor operations are the
ones the Proteus architecture needs:

* ``MCR fX, rn`` / ``MRC rd, fX`` — move words between the core and the
  FPL unit's register file;
* ``CDP cid, fd, fn, fm`` — execute the custom instruction the current
  process registered under ``cid`` (resolved by the dispatch unit);
* ``LDO rd, #n`` / ``STO rn`` — software-dispatch operand-register access
  (paper §4.3).

Sixteen core registers; ``sp`` = r13, ``lr`` = r14, ``pc`` = r15.  Flags
are set only by the compare instructions (CMP/CMN/TST), read by
conditional branches.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..state import Snapshotable

MASK32 = 0xFFFFFFFF

#: Register-name aliases accepted by the assembler.
REG_ALIASES = {"sp": 13, "lr": 14, "pc": 15}

#: Base address of the (Harvard-style) code space.  Software-alternative
#: addresses are code addresses: label value = CODE_BASE + 4 * index.
CODE_BASE = 0x1000_0000


class Op(enum.IntEnum):
    """Operation codes (5-bit field in the binary encoding)."""

    NOP = 0
    MOV = 1
    MVN = 2
    ADD = 3
    SUB = 4
    RSB = 5
    AND = 6
    ORR = 7
    EOR = 8
    BIC = 9
    LSL = 10
    LSR = 11
    ASR = 12
    ROR = 13
    MUL = 14
    CMP = 15
    CMN = 16
    TST = 17
    B = 18
    BL = 19
    BX = 20
    LDR = 21
    STR = 22
    LDRB = 23
    STRB = 24
    SWI = 25
    MCR = 26
    MRC = 27
    CDP = 28
    LDO = 29
    STO = 30
    HALT = 31


class Cond(enum.IntEnum):
    """Branch condition codes (ARM-style subset, 4-bit field)."""

    AL = 0  # always
    EQ = 1  # Z
    NE = 2  # !Z
    LT = 3  # N != V (signed)
    LE = 4  # Z or N != V
    GT = 5  # !Z and N == V
    GE = 6  # N == V
    CC = 7  # !C (unsigned lower)
    CS = 8  # C (unsigned higher-or-same)
    HI = 9  # C and !Z (unsigned higher)
    LS = 10  # !C or Z (unsigned lower-or-same)
    MI = 11  # N
    PL = 12  # !N


#: Condition mnemonic aliases (unsigned comparisons).
COND_ALIASES = {"LO": Cond.CC, "HS": Cond.CS}

#: Data-processing ops taking ``rd, rn, <op2>``.
THREE_OPERAND_OPS = frozenset(
    {
        Op.ADD,
        Op.SUB,
        Op.RSB,
        Op.AND,
        Op.ORR,
        Op.EOR,
        Op.BIC,
        Op.LSL,
        Op.LSR,
        Op.ASR,
        Op.ROR,
    }
)

#: Ops taking ``rd, <op2>``.
TWO_OPERAND_OPS = frozenset({Op.MOV, Op.MVN})

#: Flag-setting compares taking ``rn, <op2>``.
COMPARE_OPS = frozenset({Op.CMP, Op.CMN, Op.TST})

#: Memory-access ops.
MEMORY_OPS = frozenset({Op.LDR, Op.STR, Op.LDRB, Op.STRB})

#: Branch ops taking a label.
BRANCH_OPS = frozenset({Op.B, Op.BL})

#: Every op whose ``rd`` is a general-register destination.  Writing the
#: pc this way is rejected before the op reads anything, on every tier.
PC_WRITERS = THREE_OPERAND_OPS | TWO_OPERAND_OPS | {
    Op.MUL, Op.LDR, Op.LDRB, Op.MRC, Op.LDO,
}

#: Ops that end a basic block: control (possibly) leaves this index, so
#: the instruction after one — and every branch target — is a block
#: leader (see :mod:`repro.cpu.blocks`).
BLOCK_TERMINATORS = frozenset({Op.B, Op.BL, Op.BX, Op.SWI, Op.HALT, Op.CDP})

#: Ops a basic-block superinstruction may fuse: straight-line, with
#: config-constant cycle costs, touching only registers, flags and
#: process memory.  Coprocessor transfers (MCR/MRC/LDO/STO) and traps are
#: deliberately excluded — they run on their one-instruction functions.
FUSIBLE_OPS = frozenset(
    {
        Op.NOP,
        Op.MOV,
        Op.MVN,
        Op.ADD,
        Op.SUB,
        Op.RSB,
        Op.AND,
        Op.ORR,
        Op.EOR,
        Op.BIC,
        Op.LSL,
        Op.LSR,
        Op.ASR,
        Op.ROR,
        Op.MUL,
        Op.CMP,
        Op.CMN,
        Op.TST,
        Op.LDR,
        Op.STR,
        Op.LDRB,
        Op.STRB,
    }
)


@dataclass(frozen=True)
class Instruction:
    """One decoded instruction.

    Field use per format:

    ===========  =======================================================
    format       fields
    ===========  =======================================================
    data-proc    ``rd``, ``rn``, and ``rm`` or ``imm`` (``uses_imm``)
    MUL          ``rd``, ``rn``, ``rm``
    compare      ``rn``, and ``rm`` or ``imm``
    branch       ``imm`` = signed offset in instructions from *next* pc
    BX           ``rn``
    memory       ``rd``, ``rn`` base, ``imm`` offset, ``post_inc``
    SWI          ``imm`` = syscall number
    MCR          ``rd`` = FPL register, ``rn`` = core source
    MRC          ``rd`` = core dest, ``rn`` = FPL register
    CDP          ``imm`` = CID, ``rd``/``rn``/``rm`` = fd/fn/fm
    LDO          ``rd`` = core dest, ``imm`` = operand selector (0/1)
    STO          ``rn`` = core source
    ===========  =======================================================
    """

    op: Op
    cond: Cond = Cond.AL
    rd: int = 0
    rn: int = 0
    rm: int = 0
    imm: int = 0
    uses_imm: bool = False
    post_inc: bool = False

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        from .assembler import format_instruction

        return format_instruction(self)


@dataclass
class Flags(Snapshotable):
    """The NZCV condition flags."""

    STATE = ("n", "z", "c", "v")

    n: bool = False
    z: bool = False
    c: bool = False
    v: bool = False

    def passes(self, cond: Cond) -> bool:
        """Evaluate a branch condition against the current flags."""
        if cond is Cond.AL:
            return True
        if cond is Cond.EQ:
            return self.z
        if cond is Cond.NE:
            return not self.z
        if cond is Cond.LT:
            return self.n != self.v
        if cond is Cond.LE:
            return self.z or (self.n != self.v)
        if cond is Cond.GT:
            return (not self.z) and (self.n == self.v)
        if cond is Cond.GE:
            return self.n == self.v
        if cond is Cond.CC:
            return not self.c
        if cond is Cond.CS:
            return self.c
        if cond is Cond.HI:
            return self.c and not self.z
        if cond is Cond.LS:
            return (not self.c) or self.z
        if cond is Cond.MI:
            return self.n
        if cond is Cond.PL:
            return not self.n
        raise ValueError(f"unknown condition {cond!r}")

    def set_from_sub(self, a: int, b: int) -> None:
        """Set flags as CMP (a - b) would."""
        a &= MASK32
        b &= MASK32
        result = (a - b) & MASK32
        self.n = bool(result >> 31)
        self.z = result == 0
        self.c = a >= b  # no borrow
        signed_a = a - (1 << 32) if a >> 31 else a
        signed_b = b - (1 << 32) if b >> 31 else b
        signed_r = signed_a - signed_b
        self.v = not (-(1 << 31) <= signed_r < (1 << 31))

    def set_from_add(self, a: int, b: int) -> None:
        """Set flags as CMN (a + b) would."""
        a &= MASK32
        b &= MASK32
        total = a + b
        result = total & MASK32
        self.n = bool(result >> 31)
        self.z = result == 0
        self.c = total > MASK32
        signed_a = a - (1 << 32) if a >> 31 else a
        signed_b = b - (1 << 32) if b >> 31 else b
        signed_r = signed_a + signed_b
        self.v = not (-(1 << 31) <= signed_r < (1 << 31))

    def set_from_logical(self, result: int) -> None:
        """Set flags as TST (logical AND) would; C and V unaffected."""
        result &= MASK32
        self.n = bool(result >> 31)
        self.z = result == 0


def to_signed(value: int) -> int:
    """Interpret a 32-bit word as a signed integer."""
    value &= MASK32
    return value - (1 << 32) if value >> 31 else value


def code_address(index: int) -> int:
    """Code-space address of instruction ``index``."""
    return CODE_BASE + 4 * index


def code_index(address: int) -> int:
    """Instruction index for a code-space address."""
    if address < CODE_BASE or (address - CODE_BASE) % 4:
        raise ValueError(f"{address:#010x} is not a code address")
    return (address - CODE_BASE) // 4
