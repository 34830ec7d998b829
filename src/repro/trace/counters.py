"""Counter views over the event stream.

The legacy stat bags (``KernelStats``, ``CISStats``, ``ProcessStats``)
are defined here and rebuilt by :class:`CounterSink`, the always-on
subscriber every :class:`~repro.trace.bus.TraceBus` carries.  The kernel,
CIS and dispatch unit no longer mutate counters inline — they emit, and
the sink derives.  ``kernel/porsche.py``, ``kernel/cis.py`` and
``kernel/process.py`` re-export the dataclasses so existing imports keep
working.

The counter fan-out is the bus's hot path: every callback takes scalars
and allocates nothing, which is what keeps tracing free when no event
sink is attached.  There is one callback per event class in
:data:`~repro.trace.events.EVENTS`: ``on_<kind>`` takes exactly the
event's fields after ``cycle``, in order.  While no event sink is
attached the bus's emitters *are* these bound methods, and
:meth:`CounterSink.consume` replays a recorded event through the same
callback, so there is no separate replay table.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields

from ..state import Snapshotable
from . import events as ev

__all__ = [
    "KernelStats",
    "CISStats",
    "ProcessStats",
    "FaultStats",
    "PrefetchStats",
    "CounterSink",
]


class _StatBag(Snapshotable):
    """A counter dataclass, whose fields are its whole state."""

    def snapshot(self) -> dict:
        return asdict(self)

    def restore(self, state: dict) -> None:
        for key, value in state.items():
            setattr(self, key, dict(value) if isinstance(value, dict) else value)


@dataclass
class KernelStats(_StatBag):
    """Run-level accounting, derived from the event stream."""

    total_cycles: int = 0
    quanta: int = 0
    context_switches: int = 0
    timer_interrupts: int = 0
    syscalls: int = 0
    faults: int = 0
    fault_actions: dict[str, int] = field(default_factory=dict)
    kills: int = 0


@dataclass
class CISStats(_StatBag):
    """Management-cost accounting across a whole run."""

    registrations: int = 0
    rejected_registrations: int = 0
    mapping_faults: int = 0
    loads: int = 0
    evictions: int = 0
    soft_deferrals: int = 0
    soft_remaps: int = 0
    state_swaps: int = 0
    promotions: int = 0
    kills: int = 0
    static_bytes_moved: int = 0
    state_bytes_moved: int = 0
    kernel_cycles: int = 0

    @property
    def total_bytes_moved(self) -> int:
        return self.static_bytes_moved + self.state_bytes_moved


@dataclass
class ProcessStats(_StatBag):
    """Per-process accounting for the evaluation harness."""

    cpu_cycles: int = 0
    kernel_cycles: int = 0
    instructions: int = 0
    quanta: int = 0
    mapping_faults: int = 0
    load_faults: int = 0
    soft_deferrals: int = 0
    syscalls: int = 0

    @property
    def total_cycles(self) -> int:
        return self.cpu_cycles + self.kernel_cycles


@dataclass
class FaultStats(_StatBag):
    """Dependability accounting (see :mod:`repro.faults`).

    ``injected`` is keyed by fault kind, ``detected`` by detection
    mechanism (``parity``/``scrub``/``checksum``) and ``recovered`` by
    the recovery action taken.  ``recovery_cycles`` is the summed
    latency of every recovery — the numerator of the campaign report's
    unavailability figure.
    """

    injected: dict[str, int] = field(default_factory=dict)
    detected: dict[str, int] = field(default_factory=dict)
    recovered: dict[str, int] = field(default_factory=dict)
    quarantined: int = 0
    recovery_cycles: int = 0

    @property
    def empty(self) -> bool:
        return not (
            self.injected
            or self.detected
            or self.recovered
            or self.quarantined
            or self.recovery_cycles
        )


@dataclass
class PrefetchStats(_StatBag):
    """Speculative-prefetch accounting (see :mod:`repro.prefetch`).

    ``cancelled`` is keyed by reason (``mispredict``/``demand``/
    ``exit``).  ``overlap_cycles`` sums the demand-stall cycles that
    correct predictions hid — the prefetcher's whole payoff.
    """

    issued: int = 0
    hits: int = 0
    wasted: int = 0
    cancelled: dict[str, int] = field(default_factory=dict)
    overlap_cycles: int = 0

    @property
    def accuracy_pct(self) -> int:
        """Integer percent of issued prefetches that hit."""
        if not self.issued:
            return 0
        return 100 * self.hits // self.issued

    @property
    def empty(self) -> bool:
        return not (
            self.issued
            or self.hits
            or self.wasted
            or self.cancelled
            or self.overlap_cycles
        )


class _PerPid(dict):
    """pid -> :class:`ProcessStats`, creating a pid's bag on first use.

    A plain subscript is the whole per-pid lookup on the counter hot
    path; ``get`` and iteration see only the bags already created.
    """

    __slots__ = ()

    def __missing__(self, pid: int) -> ProcessStats:
        stats = self[pid] = ProcessStats()
        return stats


class CounterSink(Snapshotable):
    """Rebuilds the legacy stat bags from bus callbacks.

    One instance is attached to every bus by construction; the kernel
    aliases ``Porsche.stats``, ``CustomInstructionScheduler.stats`` and
    each ``Process.stats`` to the objects owned here, so the derived
    views are reachable exactly where the inline counters used to live.

    :meth:`consume` applies one recorded :class:`TraceEvent`; replaying a
    complete stream through a fresh sink reproduces a live sink's state.
    """

    __slots__ = ("kernel", "cis", "dispatch", "faults", "prefetch", "_process")

    STATE = ("kernel", "cis", "dispatch")

    def __init__(self) -> None:
        self.kernel = KernelStats()
        self.cis = CISStats()
        #: Decode-stage resolutions by outcome (``hit``/``soft``/``fault``).
        self.dispatch: dict[str, int] = {"hit": 0, "soft": 0, "fault": 0}
        self.faults = FaultStats()
        self.prefetch = PrefetchStats()
        self._process: dict[int, ProcessStats] = _PerPid()

    def process(self, pid: int) -> ProcessStats:
        return self._process[pid]

    @property
    def processes(self) -> dict[int, ProcessStats]:
        return self._process

    # ---- kernel scheduling ------------------------------------------------
    def on_quantum_start(self, pid: int) -> None:
        self.kernel.quanta += 1
        self._process[pid].quanta += 1

    def on_timer_interrupt(self, pid: int) -> None:
        self.kernel.timer_interrupts += 1

    def on_context_switch(self, pid: int) -> None:
        self.kernel.context_switches += 1

    # ---- traps ------------------------------------------------------------
    def on_syscall(self, pid: int, number: int) -> None:
        self.kernel.syscalls += 1
        self._process[pid].syscalls += 1

    def on_fault(self, pid: int, cid: int, action: str, cycles: int) -> None:
        kernel = self.kernel
        kernel.faults += 1
        actions = kernel.fault_actions
        actions[action] = actions.get(action, 0) + 1

    def on_dispatch(self, pid: int, cid: int, outcome: str) -> None:
        self.dispatch[outcome] += 1

    # ---- CIS management ---------------------------------------------------
    def on_registered(self, pid: int, cid: int) -> None:
        self.cis.registrations += 1

    def on_registration_rejected(self, pid: int, cid: int) -> None:
        self.cis.rejected_registrations += 1

    def on_mapping_fault(self, pid: int, cid: int) -> None:
        self.cis.mapping_faults += 1
        self._process[pid].mapping_faults += 1

    def on_load_fault(self, pid: int, cid: int) -> None:
        self._process[pid].load_faults += 1

    def on_soft_defer(self, pid: int, cid: int, remap: bool) -> None:
        if remap:
            self.cis.soft_remaps += 1
        else:
            self.cis.soft_deferrals += 1
        self._process[pid].soft_deferrals += 1

    def on_circuit_load(self, pid: int, cid: int, pfu: int, circuit: str,
                        static_bytes: int, state_bytes: int) -> None:
        self.cis.loads += 1
        self.cis.static_bytes_moved += static_bytes
        self.cis.state_bytes_moved += state_bytes

    def on_circuit_evict(
        self, pid: int, pfu: int, circuit: str, state_bytes: int
    ) -> None:
        self.cis.evictions += 1
        self.cis.state_bytes_moved += state_bytes

    def on_circuit_unload(self, pid: int, pfu: int, circuit: str) -> None:
        pass  # exit-time cleanup moves no state and is not an eviction

    def on_circuit_promote(self, pid: int, cid: int, pfu: int) -> None:
        self.cis.promotions += 1

    def on_state_swap(self, pid: int, cid: int, pfu: int) -> None:
        self.cis.state_swaps += 1

    def on_cis_charge(self, pid: int, cycles: int) -> None:
        self.cis.kernel_cycles += cycles

    def on_cis_kill(self, pid: int) -> None:
        self.cis.kills += 1

    # ---- fabric faults ------------------------------------------------------
    def on_fault_injected(self, pid: int, fault: str, target: int) -> None:
        bag = self.faults.injected
        bag[fault] = bag.get(fault, 0) + 1

    def on_fault_detected(
        self, pid: int, fault: str, target: int, via: str
    ) -> None:
        bag = self.faults.detected
        bag[via] = bag.get(via, 0) + 1

    def on_fault_recovered(
        self, pid: int, fault: str, target: int, action: str, cycles: int
    ) -> None:
        bag = self.faults.recovered
        bag[action] = bag.get(action, 0) + 1
        self.faults.recovery_cycles += cycles

    def on_pfu_quarantined(self, pid: int, pfu: int) -> None:
        self.faults.quarantined += 1

    # ---- speculative prefetch ----------------------------------------------
    def on_prefetch_issued(self, pid: int, cid: int, pfu: int,
                           cycles: int) -> None:
        self.prefetch.issued += 1

    def on_prefetch_hit(self, pid: int, cid: int, pfu: int,
                        overlap: int) -> None:
        self.prefetch.hits += 1
        self.prefetch.overlap_cycles += overlap

    def on_prefetch_wasted(self, pid: int, cid: int, pfu: int) -> None:
        self.prefetch.wasted += 1

    def on_prefetch_cancelled(self, pid: int, cid: int, pfu: int,
                              reason: str) -> None:
        bag = self.prefetch.cancelled
        bag[reason] = bag.get(reason, 0) + 1

    # ---- cycle charges and termination -------------------------------------
    def on_cpu_burst(self, pid: int, cycles: int, instructions: int) -> None:
        self.kernel.total_cycles += cycles
        stats = self._process[pid]
        stats.cpu_cycles += cycles
        stats.instructions += instructions

    def on_kernel_charge(
        self, pid: int, cycles: int, source: str = "kernel"
    ) -> None:
        self.kernel.total_cycles += cycles
        if source == "kernel":
            self._process[pid].kernel_cycles += cycles

    def on_process_exit(self, pid: int, status: int | None = None,
                        killed: bool = False,
                        reason: str | None = None) -> None:
        if killed:
            self.kernel.kills += 1

    # ---- machine-state protocol --------------------------------------------
    def snapshot(self) -> dict:
        state = super().snapshot()
        state["process"] = {
            str(pid): stats.snapshot() for pid, stats in self._process.items()
        }
        # Emitted only when fault injection left a mark, so checkpoints
        # of injection-free machines are byte-identical to pre-fault
        # builds of this format.
        if not self.faults.empty:
            state["faults"] = self.faults.snapshot()
        # Same discipline for prefetch: absent unless speculation ran.
        if not self.prefetch.empty:
            state["prefetch"] = self.prefetch.snapshot()
        return state

    def restore(self, state: dict) -> None:
        """Reinstate counter values **in place** — the kernel and every
        PCB alias the stat-bag objects owned here, so they must be
        mutated, not replaced.  JSON stringifies pid keys; convert back.
        """
        super().restore(state)
        self.faults.restore(state.get("faults", FaultStats().snapshot()))
        self.prefetch.restore(
            state.get("prefetch", PrefetchStats().snapshot())
        )
        blank = ProcessStats().snapshot()
        for pid, stats in self._process.items():
            stats.restore(state["process"].get(str(pid), blank))
        for key, entry in state["process"].items():
            self.process(int(key)).restore(entry)

    # ---- replay ------------------------------------------------------------
    def consume(self, event: ev.TraceEvent) -> None:
        """Apply one recorded event, as the live counter path would."""
        getattr(self, "on_" + event.kind)(
            *[getattr(event, f.name) for f in fields(event)[1:]]
        )
