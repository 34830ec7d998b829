"""Typed, cycle-stamped machine events: the one declaration of the
trace surface.

Every accounting-relevant moment in the simulated machine — quanta,
context switches, traps, dispatch resolutions, configuration movement,
process termination — is modelled as one small frozen dataclass, and
:data:`EVENTS` lists them all.  Each class's ``kind`` names both its
emitter on the :class:`~repro.trace.bus.TraceBus` (``bus.<kind>(...)``)
and its counter callback (``CounterSink.on_<kind>``), and its fields
after ``cycle`` are, in order, the arguments both take.  So adding an
event is one dataclass here, appended to :data:`EVENTS`, plus one
``on_<kind>`` method; the bus and replay follow from the table.

The event stream is *complete*: a :class:`~repro.trace.counters.CounterSink`
replayed over a recorded stream reconstructs every legacy statistic
exactly (``tests/test_trace.py`` checks this for every kind and on a
mixed workload).

Events are only ever *constructed* when at least one event sink is
attached to the bus; the counter path passes scalars and allocates
nothing.

``cycle`` is the kernel clock when the event was emitted.  Events raised
from inside a CPU burst (``DispatchResolved``) are stamped with the
clock at burst entry — the kernel charges burst cycles only when the
burst returns — so cycle stamps are monotonically non-decreasing rather
than instruction-exact.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

__all__ = [
    "EVENTS",
    "TraceEvent",
    "QuantumStart",
    "TimerInterrupt",
    "ContextSwitch",
    "SyscallEvent",
    "FaultEvent",
    "DispatchResolved",
    "Registered",
    "RegistrationRejected",
    "MappingFault",
    "LoadFault",
    "SoftDefer",
    "CircuitLoad",
    "CircuitEvict",
    "CircuitUnload",
    "CircuitPromote",
    "StateSwap",
    "CpuBurst",
    "KernelCharge",
    "CisCharge",
    "CisKill",
    "ProcessExit",
    "FaultInjected",
    "FaultDetected",
    "FaultRecovered",
    "PfuQuarantined",
    "PrefetchIssued",
    "PrefetchHit",
    "PrefetchWasted",
    "PrefetchCancelled",
]


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """Base class: every event is cycle-stamped and PID-attributed."""

    cycle: int
    pid: int

    #: Short machine-readable tag used by JSONL export and renderers.
    kind = "event"

    def to_dict(self) -> dict:
        record = {"kind": self.kind}
        record.update(asdict(self))
        return record


# ---------------------------------------------------------------------------
# kernel scheduling


@dataclass(frozen=True, slots=True)
class QuantumStart(TraceEvent):
    """A process was handed a fresh scheduling quantum."""

    kind = "quantum_start"


@dataclass(frozen=True, slots=True)
class TimerInterrupt(TraceEvent):
    """The quantum budget expired and the timer pre-empted the process."""

    kind = "timer_interrupt"


@dataclass(frozen=True, slots=True)
class ContextSwitch(TraceEvent):
    """The coprocessor context was switched to ``pid``."""

    kind = "context_switch"


# ---------------------------------------------------------------------------
# traps


@dataclass(frozen=True, slots=True)
class SyscallEvent(TraceEvent):
    """A SWI trap entered the kernel."""

    number: int
    kind = "syscall"


@dataclass(frozen=True, slots=True)
class FaultEvent(TraceEvent):
    """A custom-instruction fault was resolved by the CIS.

    ``action`` is the Figure 1 policy outcome: ``mapping``, ``load``,
    ``share``, ``soft`` or ``swap``.  ``cycles`` is the full cost the
    handler charged, transfers included.
    """

    cid: int
    action: str
    cycles: int
    kind = "fault"


@dataclass(frozen=True, slots=True)
class DispatchResolved(TraceEvent):
    """Decode-stage resolution of an execute instruction (Figure 1).

    ``outcome`` is ``hit`` (hardware PFU), ``soft`` (software
    alternative) or ``fault`` (trap to the OS).
    """

    cid: int
    outcome: str
    kind = "dispatch"


# ---------------------------------------------------------------------------
# CIS management


@dataclass(frozen=True, slots=True)
class Registered(TraceEvent):
    """A circuit (or alias) registration was accepted."""

    cid: int
    kind = "registered"


@dataclass(frozen=True, slots=True)
class RegistrationRejected(TraceEvent):
    """A bitstream failed security validation."""

    cid: int
    kind = "registration_rejected"


@dataclass(frozen=True, slots=True)
class MappingFault(TraceEvent):
    """Circuit still loaded; only its TLB tuple needed reinstalling."""

    cid: int
    kind = "mapping_fault"


@dataclass(frozen=True, slots=True)
class LoadFault(TraceEvent):
    """A fault that required moving configuration data (load or swap)."""

    cid: int
    kind = "load_fault"


@dataclass(frozen=True, slots=True)
class SoftDefer(TraceEvent):
    """The CIS mapped a software alternative instead of loading."""

    cid: int
    #: True when the tuple had already been software-mapped before.
    remap: bool
    kind = "soft_defer"


@dataclass(frozen=True, slots=True)
class CircuitLoad(TraceEvent):
    """A circuit was transferred onto a PFU."""

    cid: int
    pfu: int
    circuit: str
    static_bytes: int
    state_bytes: int
    kind = "circuit_load"


@dataclass(frozen=True, slots=True)
class CircuitEvict(TraceEvent):
    """A victim circuit's state section was saved off the array."""

    pfu: int
    circuit: str
    state_bytes: int
    kind = "circuit_evict"


@dataclass(frozen=True, slots=True)
class CircuitUnload(TraceEvent):
    """A dead process's circuit left the array (no state saved)."""

    pfu: int
    circuit: str
    kind = "circuit_unload"


@dataclass(frozen=True, slots=True)
class CircuitPromote(TraceEvent):
    """A software-deferred circuit was promoted into a freed PFU."""

    cid: int
    pfu: int
    kind = "circuit_promote"


@dataclass(frozen=True, slots=True)
class StateSwap(TraceEvent):
    """Only a state section moved to hand a shared PFU to another PID."""

    cid: int
    pfu: int
    kind = "state_swap"


# ---------------------------------------------------------------------------
# cycle charges and termination


@dataclass(frozen=True, slots=True)
class CpuBurst(TraceEvent):
    """One bounded user-mode execution burst."""

    cycles: int
    instructions: int
    kind = "cpu_burst"


@dataclass(frozen=True, slots=True)
class KernelCharge(TraceEvent):
    """Kernel-mode cycles charged while handling ``pid``.

    ``source`` is ``kernel`` for trap/switch handling charged to the
    process, or ``exit`` for termination cleanup charged to no process.
    """

    cycles: int
    source: str = "kernel"
    kind = "kernel_charge"


@dataclass(frozen=True, slots=True)
class CisCharge(TraceEvent):
    """Cycles attributed to the Custom Instruction Scheduler itself.

    ``pid`` is -1: the CIS charges these cycles to no process.
    """

    cycles: int
    kind = "cis_charge"


@dataclass(frozen=True, slots=True)
class CisKill(TraceEvent):
    """The CIS condemned a process (illegal CID, hostile bitstream...)."""

    kind = "cis_kill"


@dataclass(frozen=True, slots=True)
class ProcessExit(TraceEvent):
    """A process left the machine."""

    status: int | None = None
    killed: bool = False
    reason: str | None = None
    kind = "process_exit"


@dataclass(frozen=True, slots=True)
class FaultInjected(TraceEvent):
    """The fault injector corrupted fabric state (see :mod:`repro.faults`).

    ``fault`` is the fault kind (``config``/``datapath``/``transfer``/
    ``state``); ``target`` the PFU/region index hit.  ``pid`` is -1 for
    quantum-boundary injections, which no process caused.
    """

    fault: str
    target: int
    kind = "fault_injected"


@dataclass(frozen=True, slots=True)
class FaultDetected(TraceEvent):
    """A fabric fault was caught (``via`` parity, scrub, or checksum)."""

    fault: str
    target: int
    via: str
    kind = "fault_detected"


@dataclass(frozen=True, slots=True)
class FaultRecovered(TraceEvent):
    """The kernel repaired a detected fault.

    ``action`` names the recovery taken (``reload``/``fallback``/
    ``retry``/``quarantine``); ``cycles`` its total latency.
    """

    fault: str
    target: int
    action: str
    cycles: int
    kind = "fault_recovered"


@dataclass(frozen=True, slots=True)
class PfuQuarantined(TraceEvent):
    """A PFU was retired from service after repeated faults."""

    pfu: int
    kind = "pfu_quarantined"


# ---------------------------------------------------------------------------
# speculative configuration prefetch (see repro.prefetch)


@dataclass(frozen=True, slots=True)
class PrefetchIssued(TraceEvent):
    """A predicted-next bitstream started streaming into ``pfu``.

    ``cycles`` is the full transfer length on an otherwise idle bus;
    demand traffic stretches the actual completion time.
    """

    cid: int
    pfu: int
    cycles: int
    kind = "prefetch_issued"


@dataclass(frozen=True, slots=True)
class PrefetchHit(TraceEvent):
    """A fault found its circuit prefetched (fully or partially).

    ``overlap`` is the demand-stall cycles the prefetch hid — the full
    transfer for a completed prefetch, ``total - remaining`` for one
    still in flight when the fault arrived.
    """

    cid: int
    pfu: int
    overlap: int
    kind = "prefetch_hit"


@dataclass(frozen=True, slots=True)
class PrefetchWasted(TraceEvent):
    """A completed prefetch was evicted or discarded before any use."""

    cid: int
    pfu: int
    kind = "prefetch_wasted"


@dataclass(frozen=True, slots=True)
class PrefetchCancelled(TraceEvent):
    """An in-flight prefetch was abandoned deterministically.

    ``reason`` is ``mispredict`` (the process faulted on a different
    CID), ``demand`` (the target PFU was reclaimed for a demand load)
    or ``exit`` (the predicted-for process terminated).
    """

    cid: int
    pfu: int
    reason: str
    kind = "prefetch_cancelled"


#: Every event class, one per kind: the table the bus binds its emitters
#: from and :meth:`~repro.trace.counters.CounterSink.consume` replays by.
EVENTS = (
    QuantumStart, TimerInterrupt, ContextSwitch,
    SyscallEvent, FaultEvent, DispatchResolved,
    Registered, RegistrationRejected, MappingFault, LoadFault, SoftDefer,
    CircuitLoad, CircuitEvict, CircuitUnload, CircuitPromote, StateSwap,
    CpuBurst, KernelCharge, CisCharge, CisKill, ProcessExit,
    FaultInjected, FaultDetected, FaultRecovered, PfuQuarantined,
    PrefetchIssued, PrefetchHit, PrefetchWasted, PrefetchCancelled,
)
