"""Per-process byte-addressable memory.

Each POrSCHE process owns a private address space (the simulator gives
every process its own :class:`Memory`, standing in for the MMU).  The
layout is::

    0x0000_0000 .. data_base-1   : guard page(s), unmapped
    data_base ..                 : .data image, then heap
    ...          size            : stack, growing down from ``size``

Words are little-endian.  Accesses outside the mapped range (including
the code space at ``CODE_BASE``) raise :class:`~repro.errors.MemoryFault`,
which the kernel treats as a fatal process error.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from ..errors import MemoryFault
from ..state import Snapshotable, decode_bytes, encode_bytes

MASK32 = 0xFFFFFFFF

#: Default process memory size (64 KB keeps per-process cost low while
#: leaving room for the workload buffers).
DEFAULT_SIZE = 64 * 1024


@dataclass
class Memory(Snapshotable):
    """A flat little-endian byte store with word/byte access.

    A snapshot is the compressed bytes plus the layout they belong to;
    the layout is checked on restore, never set.
    """

    size: int = DEFAULT_SIZE
    #: Addresses below this fault (null-pointer guard).
    guard_below: int = 0x100
    _bytes: bytearray = field(default_factory=bytearray)

    def __post_init__(self) -> None:
        if self.size <= self.guard_below:
            raise MemoryFault(self.size, "memory smaller than guard region")
        if not self._bytes:
            self._bytes = bytearray(self.size)
        elif len(self._bytes) != self.size:
            raise MemoryFault(0, "backing store does not match size")

    # ---- word access ----------------------------------------------------
    def load_word(self, address: int) -> int:
        self._check(address, 4)
        if address % 4:
            raise MemoryFault(address, "unaligned word load")
        return int.from_bytes(self._bytes[address:address + 4], "little")

    def store_word(self, address: int, value: int) -> None:
        self._check(address, 4)
        if address % 4:
            raise MemoryFault(address, "unaligned word store")
        self._bytes[address:address + 4] = (value & MASK32).to_bytes(4, "little")

    # ---- byte access ------------------------------------------------------
    def load_byte(self, address: int) -> int:
        self._check(address, 1)
        return self._bytes[address]

    def store_byte(self, address: int, value: int) -> None:
        self._check(address, 1)
        self._bytes[address] = value & 0xFF

    # ---- bulk access (loader / result checking) ---------------------------
    def write_block(self, address: int, data: bytes) -> None:
        self._check(address, max(1, len(data)))
        self._bytes[address:address + len(data)] = data

    def read_block(self, address: int, length: int) -> bytes:
        self._check(address, max(1, length))
        return bytes(self._bytes[address:address + length])

    def read_words(self, address: int, count: int) -> list[int]:
        """Read ``count`` little-endian words in one pass.

        One bounds check and a single ``struct`` unpack instead of
        ``count`` ``load_word`` calls, but fault-for-fault identical to
        the sequential loads: a guard or alignment violation names the
        base address, and a read running off the end names the first
        word that does not fit.
        """
        if count <= 0:
            return []
        self._check(address, 4)
        if address % 4:
            raise MemoryFault(address, "unaligned word load")
        if address + 4 * count > self.size:
            bad = address + 4 * ((self.size - address) // 4)
            raise MemoryFault(bad, f"beyond end of {self.size}-byte space")
        return list(struct.unpack_from(f"<{count}I", self._bytes, address))

    # ---- machine-state protocol -------------------------------------------
    def snapshot(self) -> dict:
        return {
            "size": self.size,
            "guard_below": self.guard_below,
            "bytes": encode_bytes(self._bytes),
        }

    def restore(self, state: dict) -> None:
        data = decode_bytes(state["bytes"])
        if (
            state["size"] != self.size
            or state["guard_below"] != self.guard_below
            or len(data) != self.size
        ):
            raise MemoryFault(0, "memory snapshot does not match layout")
        # In place: compiled code holds this bytearray and its bounds.
        self._bytes[:] = data

    @property
    def buffer(self) -> bytearray:
        """The live backing store.

        Compiled code binds it once and indexes it directly, so it is
        never rebound (:meth:`restore` copies into it), and ``size`` and
        ``guard_below`` never change after construction.
        """
        return self._bytes

    @property
    def stack_top(self) -> int:
        """Initial stack pointer (grows down, word aligned)."""
        return self.size & ~0x3

    def _check(self, address: int, length: int) -> None:
        if address < self.guard_below:
            raise MemoryFault(address, "guard page (null pointer?)")
        if address + length > self.size:
            raise MemoryFault(address, f"beyond end of {self.size}-byte space")
