"""repro.trace — the unified machine event bus.

Every layer of the simulated machine (CPU dispatch, coprocessor, kernel,
CIS) publishes its accounting through one :class:`TraceBus` instead of
mutating counters inline.  The legacy stat bags (``KernelStats``,
``CISStats``, ``ProcessStats``) are derived views maintained by the
bus's always-on :class:`CounterSink`; optional event sinks add recording
capability:

* :class:`RingBufferSink` — the most recent N typed events, bounded;
* :class:`JsonlSink` — line-oriented export for offline analysis;
* :class:`TimelineAggregator` — per-process cycle attribution and
  FPL-occupancy timelines (``repro trace`` on the command line).

One table, :data:`repro.trace.events.EVENTS`, declares every event
class.  Each class's ``kind`` names its emitter on the bus and its
``CounterSink.on_<kind>`` callback, and both take the class's fields
after ``cycle``; adding an event is one dataclass in ``EVENTS`` plus one
``on_<kind>``.  The bus rebinds its emitters when sinks attach or
detach, so every emit site looks the emitter up on the bus at call time.

With no event sink attached the bus allocates nothing: each emit is one
counter callback, so the simulation's cycle counts and (to within noise)
wall-clock are unchanged from the pre-trace code.
"""

from . import events
from .bus import EventSink, TraceBus
from .counters import CISStats, CounterSink, KernelStats, ProcessStats
from .sinks import JsonlSink, RingBufferSink
from .timeline import OccupancySegment, ProcessAttribution, TimelineAggregator

__all__ = [
    "events",
    "EventSink",
    "TraceBus",
    "CISStats",
    "CounterSink",
    "KernelStats",
    "ProcessStats",
    "JsonlSink",
    "RingBufferSink",
    "OccupancySegment",
    "ProcessAttribution",
    "TimelineAggregator",
]
