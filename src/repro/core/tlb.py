"""The CAM+RAM dispatch TLB keyed by (PID, CID) tuples (paper §4.2).

The globally unique ID tuple combines the application's process-unique
Circuit ID with the Process ID the processor already tracks.  Because the
key includes the PID, *nothing needs flushing on a context switch* — the
central contrast with PRISC's per-PFU ID registers.  An ID tuple names a
*mapping*, not a circuit: several tuples may map to the same PFU or
software routine, which is how circuits are shared.

Each TLB pairs a Content Addressable Memory of ID tuples with a RAM of
targets.  The CAM answers "which entry holds this key?" in a single
cycle, and at most one valid entry may match any key: a multi-match
would be a wired-OR conflict in silicon.

The TLB is finite, so a mapping can be pushed out while its circuit is
still loaded in a PFU; the resulting fault is a *mapping fault* that the
CIS repairs without any configuration transfer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from ..errors import CheckpointError, TLBError
from ..state import Snapshotable


class IDTuple(NamedTuple):
    """The system-unique name of a custom-instruction mapping."""

    pid: int
    cid: int


@dataclass
class DispatchTLB(Snapshotable):
    """One translation buffer: CAM of ID tuples + RAM of integer targets.

    For the hardware TLB the target is a PFU number; for the software TLB
    it is the memory address of the alternative routine.  A new mapping
    takes the lowest free entry; in a full TLB, replacement is FIFO over
    the entry indices, standing in for the simple hardware pointer a real
    implementation would use.
    """

    STATE = ("ram", "_fifo_hand", "lookups", "hits", "insertions", "evictions")

    entries: int
    #: The CAM: each entry's ID tuple, ``None`` if free.  Saved under
    #: ``cam`` as lists of fields.
    keys: list[IDTuple | None] = field(init=False)
    ram: list[int] = field(init=False)
    _fifo_hand: int = 0
    #: Statistics for the evaluation harness.
    lookups: int = 0
    hits: int = 0
    insertions: int = 0
    evictions: int = 0
    #: Every live mapping, ID tuple -> RAM word: the CAM match and the
    #: RAM read as one dict probe.  Derived from ``keys`` and ``ram`` and
    #: kept by every mutator; :meth:`restore` refills it in place, since
    #: compiled CDP sites hold it by reference.
    targets: dict[IDTuple, int] = field(init=False, repr=False)
    #: RAM word -> the valid entries holding it, so dropping every mapping
    #: to one PFU is a lookup, not a walk.  Derived from ``keys`` and ``ram``.
    _holders: dict[int, set[int]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.entries <= 0:
            raise TLBError("DispatchTLB needs at least one entry")
        self.keys = [None] * self.entries
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
        keys = self.keys
        ram = self.ram
        targets = self.targets
        holders = self._holders
        evicted: IDTuple | None = None
        old = targets.get(key)
        if old is not None:
            if old == value:
                return None
            entry = keys.index(key)
            holders[old].discard(entry)
        else:
            if len(targets) < self.entries:
                entry = keys.index(None)
            else:
                entry = self._fifo_hand
                self._fifo_hand = (entry + 1) % self.entries
                evicted = keys[entry]
                self.evictions += 1
                holders[ram[entry]].discard(entry)
                del targets[evicted]
            keys[entry] = key
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
        value = self.targets.pop(key, None)
        if value is None:
            return False
        entry = self.keys.index(key)
        self.keys[entry] = None
        self._holders[value].discard(entry)
        return True

    def remove_pid(self, pid: int) -> int:
        """Invalidate every mapping belonging to ``pid`` (process exit)."""
        doomed = [key for key in self.targets if key.pid == pid]
        for key in doomed:
            self.remove(key)
        return len(doomed)

    def remove_value(self, value: int) -> int:
        """Invalidate every mapping pointing at ``value``.

        Used when a circuit is evicted from a PFU: all tuples naming that
        PFU must fault until the CIS reinstalls them.
        """
        entries = self._holders.get(value)
        if not entries:
            return 0
        for entry in entries:
            key = self.keys[entry]
            self.keys[entry] = None
            del self.targets[key]
        removed = len(entries)
        # Emptied, not dropped: the PFU's next mapping reuses the set.
        entries.clear()
        return removed

    def flush(self) -> int:
        """Invalidate everything (PRISC baseline behaviour, not Proteus)."""
        removed = len(self.targets)
        self.keys[:] = [None] * self.entries
        self.targets.clear()
        self._holders.clear()
        return removed

    # ---- machine-state protocol -------------------------------------------
    def snapshot(self) -> dict:
        keys = [None if key is None else list(key) for key in self.keys]
        return {"cam": {"entries": self.entries, "keys": keys}, **super().snapshot()}

    def restore(self, state: dict) -> None:
        """Reinstate a snapshot; a malformed CAM section or FIFO hand is a
        :class:`CheckpointError`, raised before anything changes."""
        entries = self.entries
        cam = state["cam"]
        saved = cam["keys"]
        if cam["entries"] != entries or len(saved) != entries:
            raise _refused("cam", f"{cam['entries']!r} entries and "
                           f"{len(saved)} keys", f"{entries} of each")
        keys: list[IDTuple | None] = []
        for entry, fields in enumerate(saved):
            if fields is not None and (
                    type(fields) is not list
                    or [type(f) for f in fields] != [int, int]
                    or tuple(fields) in keys):
                raise _refused(f"cam.keys[{entry}]", repr(fields),
                               "a (PID, CID) pair valid in no other entry")
            keys.append(None if fields is None else IDTuple._make(fields))
        hand = state["fifo_hand"]
        if type(hand) is not int or not 0 <= hand < entries:
            raise _refused("fifo_hand", repr(hand), f"0..{entries - 1}")
        super().restore(state)
        self.keys = keys
        targets = self.targets
        targets.clear()
        holders = self._holders = {}
        for entry, key in enumerate(keys):
            if key is not None:
                targets[key] = value = self.ram[entry]
                holders.setdefault(value, set()).add(entry)

    # ---- introspection ----------------------------------------------------
    def contents(self) -> dict[IDTuple, int]:
        """Every live mapping, ``(PID, CID)`` tuple to RAM word."""
        return dict(self.targets)

    @property
    def occupied(self) -> int:
        return len(self.targets)

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


def _refused(field: str, saved: str, expected: str) -> CheckpointError:
    return CheckpointError(f"DispatchTLB.{field}: checkpoint holds {saved}, "
                           f"expected {expected}")
