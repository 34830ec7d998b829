"""The decode-stage dispatch mechanism of Figure 1 (paper §4.2).

An execute instruction carrying a CID is resolved against the current
PID in three steps, in priority order:

1. **TLB 1** — (PID, CID) → PFU number: decode as a custom-hardware
   invocation on that PFU.
2. **TLB 2** — (PID, CID) → memory address: decode as the special
   branch-and-link to the registered software alternative.
3. **Fault** — neither TLB matches: raise an instruction fault so the
   operating system can load the circuit, install a mapping, or kill the
   process if the request is illegal.

Both TLBs key on the full ID tuple, so no dispatch state is touched on a
context switch.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..errors import DispatchError
from ..state import Snapshotable
from ..trace.bus import TraceBus
from .tlb import DispatchTLB, IDTuple


class DispatchKind(enum.Enum):
    """How an execute instruction was resolved."""

    HARDWARE = "hardware"
    SOFTWARE = "software"
    FAULT = "fault"


@dataclass(frozen=True)
class DispatchResult:
    """Outcome of one decode-stage resolution."""

    kind: DispatchKind
    #: PFU number for HARDWARE resolutions.
    pfu_index: int | None = None
    #: Software-alternative address for SOFTWARE resolutions.
    address: int | None = None

    def __post_init__(self) -> None:
        if self.kind is DispatchKind.HARDWARE and self.pfu_index is None:
            raise DispatchError("hardware dispatch requires a PFU index")
        if self.kind is DispatchKind.SOFTWARE and self.address is None:
            raise DispatchError("software dispatch requires an address")


# ---------------------------------------------------------------------------
# interned results
#
# Resolutions are pure values over a tiny domain (a handful of PFU
# numbers, a handful of software entry points, one fault).  CDP decode is
# the hottest call site in a burst, so ``resolve`` hands out interned
# singletons instead of constructing (and validating) a dataclass per
# execute instruction.  The instances are immutable and machine-agnostic,
# hence safe to share process-wide.

_FAULT_RESULT = DispatchResult(kind=DispatchKind.FAULT)
_HARDWARE_RESULTS: dict[int, DispatchResult] = {}
_SOFTWARE_RESULTS: dict[int, DispatchResult] = {}


def hardware_result(pfu_index: int) -> DispatchResult:
    """The interned HARDWARE resolution naming ``pfu_index``."""
    result = _HARDWARE_RESULTS.get(pfu_index)
    if result is None:
        result = _HARDWARE_RESULTS[pfu_index] = DispatchResult(
            kind=DispatchKind.HARDWARE, pfu_index=pfu_index
        )
    return result


def software_result(address: int) -> DispatchResult:
    """The interned SOFTWARE resolution branching to ``address``."""
    result = _SOFTWARE_RESULTS.get(address)
    if result is None:
        result = _SOFTWARE_RESULTS[address] = DispatchResult(
            kind=DispatchKind.SOFTWARE, address=address
        )
    return result


@dataclass
class DispatchUnit(Snapshotable):
    """The two-TLB resolver sitting in the decode stage."""

    STATE = ("hardware_tlb", "software_tlb")

    hardware_tlb: DispatchTLB
    software_tlb: DispatchTLB
    #: Event bus that receives one ``DispatchResolved`` per resolution.
    trace: TraceBus = field(default_factory=TraceBus)
    #: Monotonic mutation counter bumped by every OS-side management call
    #: (map/unmap/flush) and by :meth:`restore`.  Only jit traces read
    #: it: a trace recorded against one mapping set is dropped once the
    #: generation moves.  Transient — never serialised into checkpoints.
    generation: int = 0

    @classmethod
    def build(
        cls, tlb_entries: int, trace: TraceBus | None = None
    ) -> "DispatchUnit":
        return cls(
            hardware_tlb=DispatchTLB(entries=tlb_entries),
            software_tlb=DispatchTLB(entries=tlb_entries),
            trace=trace if trace is not None else TraceBus(),
        )

    @property
    def resolutions(self) -> dict[DispatchKind, int]:
        """Resolution counts by kind — a view derived from the trace bus."""
        counts = self.trace.counters.dispatch
        return {
            DispatchKind.HARDWARE: counts["hit"],
            DispatchKind.SOFTWARE: counts["soft"],
            DispatchKind.FAULT: counts["fault"],
        }

    def resolve(self, pid: int, cid: int) -> DispatchResult:
        """Resolve an execute instruction for the current process.

        Each branch names its own trace outcome tag (``hit``, ``soft`` or
        ``fault``).
        """
        # A plain tuple hashes and compares equal to its IDTuple.  Each
        # probe is ``DispatchTLB.lookup`` inline.
        key = (pid, cid)
        hardware = self.hardware_tlb
        hardware.lookups += 1
        pfu_index = hardware.targets.get(key)
        if pfu_index is not None:
            hardware.hits += 1
            result = hardware_result(pfu_index)
            outcome = "hit"
        else:
            software = self.software_tlb
            software.lookups += 1
            address = software.targets.get(key)
            if address is not None:
                software.hits += 1
                result = software_result(address)
                outcome = "soft"
            else:
                result = _FAULT_RESULT
                outcome = "fault"
        self.trace.dispatch(pid, cid, outcome)
        return result

    # ---- OS-side management -----------------------------------------------
    def map_hardware(self, key: IDTuple, pfu_index: int) -> IDTuple | None:
        """Install a (PID, CID) → PFU mapping; returns any evicted tuple.

        A tuple cannot be live in both TLBs at once — hardware resolution
        has priority, so a stale software mapping is removed first.
        """
        self.generation += 1
        self.software_tlb.remove(key)
        return self.hardware_tlb.insert(key, pfu_index)

    def map_software(self, key: IDTuple, address: int) -> IDTuple | None:
        """Install a (PID, CID) → software-address mapping."""
        self.generation += 1
        self.hardware_tlb.remove(key)
        return self.software_tlb.insert(key, address)

    def unmap(self, key: IDTuple) -> None:
        self.generation += 1
        self.hardware_tlb.remove(key)
        self.software_tlb.remove(key)

    def unmap_pid(self, pid: int) -> int:
        """Drop all of a process's mappings (process exit)."""
        self.generation += 1
        return self.hardware_tlb.remove_pid(pid) + self.software_tlb.remove_pid(
            pid
        )

    def unmap_pfu(self, pfu_index: int) -> int:
        """Drop every tuple naming ``pfu_index`` (circuit evicted)."""
        self.generation += 1
        return self.hardware_tlb.remove_value(pfu_index)

    def flush(self) -> int:
        """Flush both TLBs — only the PRISC baseline ever calls this."""
        self.generation += 1
        return self.hardware_tlb.flush() + self.software_tlb.flush()

    # ---- machine-state protocol -------------------------------------------
    def restore(self, state: dict) -> None:
        # Restoring rewrites the mapping set wholesale; jit traces that
        # survive an in-place restore must re-record.
        self.generation += 1
        super().restore(state)
