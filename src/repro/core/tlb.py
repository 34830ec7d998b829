"""The CAM+RAM dispatch TLB keyed by (PID, CID) tuples (paper §4.2).

The globally unique ID tuple combines the application's process-unique
Circuit ID with the Process ID the processor already tracks.  Because the
key includes the PID, *nothing needs flushing on a context switch* — the
central contrast with PRISC's per-PFU ID registers.  An ID tuple names a
*mapping*, not a circuit: several tuples may map to the same PFU or
software routine, which is how circuits are shared.

The TLB is finite, so a mapping can be pushed out while its circuit is
still loaded in a PFU; the resulting fault is a *mapping fault* that the
CIS repairs without any configuration transfer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from ..errors import TLBError
from ..state import Snapshotable
from .cam import CAM


class IDTuple(NamedTuple):
    """The system-unique name of a custom-instruction mapping."""

    pid: int
    cid: int


@dataclass
class DispatchTLB(Snapshotable):
    """One translation buffer: CAM of ID tuples + RAM of integer targets.

    For the hardware TLB the target is a PFU number; for the software TLB
    it is the memory address of the alternative routine.  Replacement of
    TLB entries themselves is FIFO over the entry indices, standing in for
    the simple hardware pointer a real implementation would use.
    """

    STATE = (
        "cam", "ram", "_fifo_hand", "lookups", "hits", "insertions", "evictions",
    )

    entries: int
    cam: CAM[IDTuple] = field(init=False)
    ram: list[int] = field(init=False)
    _fifo_hand: int = 0
    #: Statistics for the evaluation harness.
    lookups: int = 0
    hits: int = 0
    insertions: int = 0
    evictions: int = 0
    #: Every live mapping, ID tuple -> RAM word: the CAM match and the
    #: RAM read as one dict probe.  Derived from ``cam`` and ``ram`` and
    #: kept by every mutator; :meth:`restore` refills it in place, since
    #: compiled CDP sites hold it by reference.
    targets: dict[IDTuple, int] = field(init=False, repr=False)
    #: RAM word -> the valid entries holding it, so dropping every
    #: mapping to one PFU is a lookup instead of a walk over the CAM.
    #: Derived from ``cam`` and ``ram``; rebuilt by :meth:`restore`.
    _holders: dict[int, set[int]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.cam = CAM(entries=self.entries, make_key=IDTuple._make)
        self.ram = [0] * self.entries
        self.targets = {}
        self._holders = {}

    # ---- datapath-side -----------------------------------------------------
    def lookup(self, key: IDTuple) -> int | None:
        """Single-cycle lookup: the RAM word for ``key``, or ``None``."""
        self.lookups += 1
        value = self.targets.get(key)
        if value is not None:
            self.hits += 1
        return value

    # ---- OS-side -------------------------------------------------------------
    def insert(self, key: IDTuple, value: int) -> IDTuple | None:
        """Install a mapping; returns the evicted tuple, if any.

        Re-inserting an existing key simply rewrites its RAM word.
        """
        self.insertions += 1
        cam = self.cam
        ram = self.ram
        targets = self.targets
        holders = self._holders
        evicted: IDTuple | None = None
        old = targets.get(key)
        if old is not None:
            if old == value:
                return None
            entry = cam.match(key)
            holders[old].discard(entry)
        else:
            entry = cam.free_entry()
            if entry is None:
                entry = self._fifo_hand
                self._fifo_hand = (entry + 1) % self.entries
                evicted = cam.key_at(entry)
                if evicted is not None:
                    self.evictions += 1
                    holders[ram[entry]].discard(entry)
                    del targets[evicted]
            cam.write(entry, key)
        ram[entry] = value
        targets[key] = value
        held = holders.get(value)
        if held is None:
            holders[value] = {entry}
        else:
            held.add(entry)
        return evicted

    def remove(self, key: IDTuple) -> bool:
        """Invalidate one mapping; True if it was present."""
        if self.targets.pop(key, None) is None:
            return False
        entry = self.cam.match(key)
        self.cam.invalidate_entry(entry)
        self._holders[self.ram[entry]].discard(entry)
        return True

    def remove_pid(self, pid: int) -> int:
        """Invalidate every mapping belonging to ``pid`` (process exit)."""
        cam = self.cam
        removed = 0
        for key, entry in cam.items():
            if key.pid == pid:
                cam.invalidate_entry(entry)
                self._holders[self.ram[entry]].discard(entry)
                del self.targets[key]
                removed += 1
        return removed

    def remove_value(self, value: int) -> int:
        """Invalidate every mapping pointing at ``value``.

        Used when a circuit is evicted from a PFU: all tuples naming that
        PFU must fault until the CIS reinstalls them.
        """
        entries = self._holders.get(value)
        if not entries:
            return 0
        invalidate = self.cam.invalidate_entry
        targets = self.targets
        for entry in entries:
            del targets[invalidate(entry)]
        removed = len(entries)
        # Emptied, not dropped: the PFU's next mapping reuses the set.
        entries.clear()
        return removed

    def flush(self) -> int:
        """Invalidate everything (PRISC baseline behaviour, not Proteus)."""
        cam = self.cam
        items = cam.items()
        for _key, entry in items:
            cam.invalidate_entry(entry)
        self.targets.clear()
        self._holders.clear()
        return len(items)

    # ---- machine-state protocol -------------------------------------------
    def restore(self, state: dict) -> None:
        super().restore(state)
        ram = self.ram
        targets = self.targets
        targets.clear()
        holders = self._holders = {}
        for key, entry in self.cam.items():
            targets[key] = ram[entry]
            holders.setdefault(ram[entry], set()).add(entry)

    # ---- introspection ----------------------------------------------------
    def contents(self) -> dict[IDTuple, int]:
        """Every live mapping, ``(PID, CID)`` tuple to RAM word."""
        return dict(self.targets)

    @property
    def occupied(self) -> int:
        return self.cam.occupied

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0
