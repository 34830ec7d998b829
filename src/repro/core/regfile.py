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

MASK32 = 0xFFFFFFFF


@dataclass
class FPLRegisterFile:
    """A fixed bank of 32-bit registers with OS save/restore support."""

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

    def save(self) -> list[int]:
        """Snapshot for a process context switch."""
        return list(self.words)

    # ---- machine-state protocol -------------------------------------------
    def snapshot(self) -> dict:
        return {"regs": self.save()}

    def restore(self, saved: list[int] | dict) -> None:
        if isinstance(saved, dict):
            saved = saved["regs"]
        if len(saved) != self.size:
            raise DispatchError(
                f"register-file restore expects {self.size} words, "
                f"got {len(saved)}"
            )
        self.words = [value & MASK32 for value in saved]

    def check(self, index: int) -> None:
        """Raise :class:`DispatchError` if ``index`` names no register."""
        if not 0 <= index < self.size:
            raise DispatchError(
                f"FPL register f{index} out of range 0..{self.size - 1}"
            )
