"""The FPL unit's own register file (paper §4, §5).

The ProteanARM coprocessor contains a 16-element, 32-bit-wide register
file connected to the PFUs with the traditional two-word-input /
one-word-output interface.  Data moves between the ARM core registers and
this file with MCR/MRC-style transfer instructions; custom instructions
then name FPL registers, exactly like other ARM coprocessors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import DispatchError
from ..state import Snapshotable

MASK32 = 0xFFFFFFFF


@dataclass
class FPLRegisterFile(Snapshotable):
    """A fixed bank of 32-bit registers with OS save/restore support."""

    STATE = ("regs",)

    size: int = 16
    words: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise DispatchError("register file needs at least one register")
        if not self.words:
            self.words = [0] * self.size

    def __len__(self) -> int:
        return self.size

    def read(self, index: int) -> int:
        self.check(index)
        return self.words[index]

    def write(self, index: int, value: int) -> None:
        self.check(index)
        self.words[index] = value & MASK32

    # ---- machine-state protocol -------------------------------------------
    @property
    def regs(self) -> list[int]:
        """``words`` under its checkpoint key."""
        return self.words

    def restore(self, saved: dict) -> None:
        """Reinstate a snapshot in place (compiled code holds
        ``words``), masking each word to 32 bits."""
        super().restore(saved)
        words = self.words
        words[:] = [value & MASK32 for value in words]

    def check(self, index: int) -> None:
        """Raise :class:`DispatchError` if ``index`` names no register."""
        if not 0 <= index < self.size:
            raise DispatchError(
                f"FPL register f{index} out of range 0..{self.size - 1}"
            )
