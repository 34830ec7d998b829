"""The machine event bus.

One :class:`TraceBus` instance is shared by every layer of a simulated
machine — kernel, CIS, coprocessor dispatch — and is the single channel
through which accounting leaves the hot paths.  It fans out to two tiers
of subscriber:

* the **counter tier** — a :class:`~repro.trace.counters.CounterSink`
  attached at construction, fed scalar callbacks.  This is always on
  (the legacy stats objects are views over it) and allocates nothing.
* the **event tier** — zero or more sinks attached with :meth:`attach`
  (ring buffers, JSONL writers, timeline aggregators).  Typed
  :mod:`~repro.trace.events` objects are constructed *only* while at
  least one event sink is subscribed.

The bus has one emitter per class in :data:`~repro.trace.events.EVENTS`,
named by the class's ``kind`` and taking its fields after ``cycle``
(``bus.cpu_burst(pid, cycles, instructions)``).  No emitter is written
out by hand: :meth:`TraceBus._rebind` binds them all from that table.
With the event tier empty each emitter *is* the counter sink's
``on_<kind>`` bound method, so an emit is one counter call with no
wrapper frame.  With a sink attached it is one generic closure that
calls the counter and then hands the sinks ``cls(now(), *args)``.  The
one special case is the prefetcher's dispatch observer
(:meth:`bind_predictor`), which runs after the counter and before the
event is recorded.

Attaching the first sink (or detaching the last) swaps the bindings, so
every emit site looks the emitter up on the bus at call time
(``bus.cpu_burst(...)``) rather than capturing it once.

The kernel binds the bus to its clock with :meth:`bind_clock`; cycle
stamps on recorded events come from that callable.
"""

from __future__ import annotations

from typing import Callable, Protocol

from . import events as ev
from .counters import CounterSink

__all__ = ["TraceBus", "EventSink"]


class EventSink(Protocol):
    """Anything that consumes typed trace events."""

    def on_event(self, event: ev.TraceEvent) -> None: ...


def _clock_unbound() -> int:
    return 0


def _observed(count: Callable, observe: Callable) -> Callable:
    """``count`` followed by the dispatch observer, as one callback."""

    def dispatch(pid: int, cid: int, outcome: str) -> None:
        count(pid, cid, outcome)
        observe(pid, cid, outcome)

    return dispatch


def _recording(
    cls: type[ev.TraceEvent],
    count: Callable,
    now: Callable[[], int],
    record: Callable[[ev.TraceEvent], None],
) -> Callable:
    """The emitter of ``cls`` while an event sink is attached."""

    def emit(*args, **kw) -> None:
        count(*args, **kw)
        record(cls(now(), *args, **kw))

    return emit


class TraceBus:
    """Typed emit surface + two-tier fan-out.  See module docstring."""

    __slots__ = (
        "counters",
        "recording",
        "_sinks",
        "_now",
        "_predictor",
        *(cls.kind for cls in ev.EVENTS),
    )

    def __init__(self, counters: CounterSink | None = None) -> None:
        self.counters = counters if counters is not None else CounterSink()
        self._sinks: tuple[EventSink, ...] = ()
        #: True while at least one event sink is attached.  Emit sites in
        #: other layers may consult this to skip building event payloads.
        self.recording = False
        self._now: Callable[[], int] = _clock_unbound
        #: Observer fed every dispatch resolution (the prefetcher's
        #: transition model); ``None`` keeps the pre-prefetch fast path.
        self._predictor: Callable[[int, int, str], None] | None = None
        self._rebind()

    # ---- wiring ------------------------------------------------------------
    def bind_clock(self, now: Callable[[], int]) -> None:
        """Provide the cycle source used to stamp recorded events."""
        self._now = now
        self._rebind()

    def now(self) -> int:
        """The bound kernel clock (0 before :meth:`bind_clock`)."""
        return self._now()

    def bind_predictor(
        self, observe: Callable[[int, int, str], None] | None
    ) -> None:
        """Attach (or with ``None`` detach) a dispatch observer.

        The observer sees ``(pid, cid, outcome)`` for every dispatch
        resolution on both fan-out tiers, after the counter callback."""
        self._predictor = observe
        self._rebind()

    def attach(self, sink: EventSink) -> EventSink:
        """Subscribe an event sink; returns it for chaining."""
        self._sinks = self._sinks + (sink,)
        self.recording = True
        self._rebind()
        return sink

    def detach(self, sink: EventSink) -> None:
        self._sinks = tuple(s for s in self._sinks if s is not sink)
        self.recording = bool(self._sinks)
        self._rebind()

    def _rebind(self) -> None:
        """Bind one emitter per event kind for the current sink set.

        The closures hold the counter sink, the clock and the sink tuple
        but not the bus, so a recording bus forms no reference cycle."""
        counters = self.counters
        callbacks = {
            cls.kind: getattr(counters, "on_" + cls.kind) for cls in ev.EVENTS
        }
        if self._predictor is not None:
            callbacks["dispatch"] = _observed(
                callbacks["dispatch"], self._predictor
            )
        if not self._sinks:
            for kind, callback in callbacks.items():
                setattr(self, kind, callback)
            return
        sinks = self._sinks

        def record(event: ev.TraceEvent) -> None:
            for sink in sinks:
                sink.on_event(event)

        for cls in ev.EVENTS:
            setattr(
                self,
                cls.kind,
                _recording(cls, callbacks[cls.kind], self._now, record),
            )

    @property
    def sinks(self) -> tuple[EventSink, ...]:
        return self._sinks
