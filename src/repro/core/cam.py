"""Content Addressable Memory model for the dispatch TLBs (paper §4.2).

A CAM holds a fixed number of keys and answers "which entry holds this
key?" in a single cycle.  The dispatch mechanism pairs a CAM of (PID, CID)
tuples with a RAM of targets.  The model enforces the hardware invariant
that at most one valid entry matches any key — a multi-match would be a
wired-OR conflict in silicon.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Generic, Hashable, TypeVar

from ..errors import TLBError
from ..state import Snapshotable

K = TypeVar("K", bound=Hashable)


@dataclass
class CAM(Snapshotable, Generic[K]):
    """Fixed-capacity associative key store with explicit entry indices.

    A snapshot saves each entry's key as a list of its fields (``None``
    for an invalid entry); ``make_key`` rebuilds a key from that list.
    """

    entries: int
    _keys: list[K | None] = field(default_factory=list)
    _valid: list[bool] = field(default_factory=list)
    _index: dict[K, int] = field(default_factory=dict)
    make_key: Callable[[list], K] = tuple

    def __post_init__(self) -> None:
        if self.entries <= 0:
            raise TLBError("CAM needs at least one entry")
        if not self._keys:
            self._keys = [None] * self.entries
            self._valid = [False] * self.entries

    def __len__(self) -> int:
        return self.entries

    @property
    def occupied(self) -> int:
        return len(self._index)

    def match(self, key: K) -> int | None:
        """Return the entry index holding ``key``, or ``None``."""
        return self._index.get(key)

    def write(self, entry: int, key: K) -> None:
        """Program ``entry`` with ``key`` (marking it valid).

        Writing a key that is already valid in a *different* entry is
        rejected: hardware would then match two entries at once.
        """
        if not 0 <= entry < self.entries:
            self._check_entry(entry)
        index = self._index
        existing = index.get(key)
        if existing is not None and existing != entry:
            raise TLBError(
                f"key {key!r} already valid in entry {existing}; "
                "duplicate CAM keys are illegal"
            )
        if self._valid[entry]:
            index.pop(self._keys[entry], None)
        self._keys[entry] = key
        self._valid[entry] = True
        index[key] = entry

    def invalidate_entry(self, entry: int) -> K | None:
        """Clear ``entry``; returns the key it held (``None`` if it was
        already invalid)."""
        if not 0 <= entry < self.entries:
            self._check_entry(entry)
        if not self._valid[entry]:
            return None
        old = self._keys[entry]
        self._valid[entry] = False
        self._keys[entry] = None
        if old is not None:
            self._index.pop(old, None)
        return old

    def key_at(self, entry: int) -> K | None:
        self._check_entry(entry)
        return self._keys[entry] if self._valid[entry] else None

    def items(self) -> list[tuple[K, int]]:
        """Every valid ``(key, entry)`` pair, read from the key index.

        A copy, so the caller may invalidate entries while walking it;
        the order is the order the keys were written in.
        """
        return list(self._index.items())

    def free_entry(self) -> int | None:
        """Lowest invalid entry index, or ``None`` if the CAM is full."""
        try:
            return self._valid.index(False)
        except ValueError:
            return None

    def _check_entry(self, entry: int) -> None:
        """Raise :class:`TLBError` for an entry index out of range (the
        slow path of the in-line checks above)."""
        if not 0 <= entry < self.entries:
            raise TLBError(f"CAM entry {entry} out of range 0..{self.entries - 1}")

    # ---- machine-state protocol -------------------------------------------
    def snapshot(self) -> dict:
        """Entry-exact capture; keys serialise as lists of their fields."""
        return {
            "entries": self.entries,
            "keys": [
                list(self._keys[i]) if self._valid[i] else None
                for i in range(self.entries)
            ],
        }

    def restore(self, state: dict) -> None:
        if state["entries"] != self.entries:
            raise TLBError("CAM snapshot does not match geometry")
        self._keys = [None] * self.entries
        self._valid = [False] * self.entries
        self._index = {}
        for entry, fields in enumerate(state["keys"]):
            if fields is None:
                continue
            key = self.make_key(fields)
            self._keys[entry] = key
            self._valid[entry] = True
            self._index[key] = entry
