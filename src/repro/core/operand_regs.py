"""Special-purpose operand registers for software dispatch (paper §4.3).

When a custom instruction is resolved to its software alternative, the
destination routine would otherwise have to decode the original
instruction word to discover its operands.  The FPL unit instead latches
the two source operand *values* and the result register *index* into
dedicated registers during the special branch.  The routine then reads its
inputs with ``LDO`` and delivers its result with ``STO`` without ever
seeing the original encoding.

The registers are architecturally visible to the OS (read/write
instructions exist) so they can be preserved across a process switch.
The paper notes one hazard: a software alternative that itself dispatches
to software clobbers the registers — callers are expected not to do that,
and the model flags it as a diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import CheckpointError, DispatchError
from ..state import Snapshotable

MASK32 = 0xFFFFFFFF


@dataclass
class OperandRegisters(Snapshotable):
    """The three software-dispatch registers plus a validity flag.

    A snapshot packs the registers in the context-switch layout,
    ``[source_a, source_b, dest_index, valid]``, under ``regs``, beside
    the diagnostic clobber count a context switch does not move.
    """

    STATE = ("clobbers",)

    source_a: int = 0
    source_b: int = 0
    dest_index: int = 0
    #: Set by the special branch, cleared when the result is stored.  A
    #: second capture while valid indicates nested software dispatch.
    valid: bool = False
    #: Diagnostic: number of nested-dispatch clobbers observed.
    clobbers: int = 0

    def capture(self, a: int, b: int, dest_index: int) -> None:
        """Latch operands during the special branch to software."""
        if self.valid:
            self.clobbers += 1
        self.source_a = a & MASK32
        self.source_b = b & MASK32
        self.dest_index = dest_index
        self.valid = True

    def read_operand(self, which: int) -> int:
        """``LDO``: read source operand 0 or 1."""
        if not self.valid:
            raise DispatchError(
                "LDO with no captured operands (no software dispatch in "
                "progress)"
            )
        if which == 0:
            return self.source_a
        if which == 1:
            return self.source_b
        raise DispatchError(f"LDO operand selector {which} invalid")

    def take_result_dest(self) -> int:
        """``STO``: consume the destination index, ending the dispatch."""
        if not self.valid:
            raise DispatchError("STO with no software dispatch in progress")
        self.valid = False
        return self.dest_index

    # ---- machine-state protocol -------------------------------------------
    def snapshot(self) -> dict:
        regs = [self.source_a, self.source_b, self.dest_index, self.valid]
        return {"regs": regs, **super().snapshot()}

    def restore(self, saved: dict) -> None:
        super().restore(saved)
        regs = saved["regs"]
        if len(regs) != 4:
            raise CheckpointError(
                f"OperandRegisters.regs: checkpoint holds {len(regs)} "
                "items, expected 4"
            )
        self.source_a, self.source_b, self.dest_index, valid = regs
        self.valid = bool(valid)
