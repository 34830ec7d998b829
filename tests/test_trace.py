"""The machine event bus: counter views, sinks, replay, zero-cost path."""

import json
import tracemalloc
from dataclasses import fields

import pytest

from conftest import adder_spec
from repro.cpu.program import Program
from repro.kernel.porsche import Porsche
from repro.trace import (
    CounterSink,
    JsonlSink,
    RingBufferSink,
    TimelineAggregator,
    TraceBus,
)
from repro.trace import events as ev
from repro.trace import bus as bus_module

#: One sample argument per event field name, so every kind can be
#: emitted by its fields alone.
SAMPLE_ARGS = {
    "pid": 2, "cid": 5, "pfu": 1, "number": 3, "action": "swap",
    "cycles": 40, "outcome": "soft", "remap": True, "circuit": "c0",
    "static_bytes": 1000, "state_bytes": 16, "instructions": 9,
    "source": "kernel", "status": 0, "killed": True, "reason": "bad cid",
    "fault": "config", "target": 1, "via": "parity", "overlap": 12,
}


def sample_args(cls) -> list:
    """Arguments for ``cls``'s emitter: its fields after ``cycle``."""
    return [SAMPLE_ARGS[f.name] for f in fields(cls)[1:]]


def program(source: str, circuits=(), name="p") -> Program:
    return Program.from_source(name, source, circuit_table=list(circuits))


#: Registers CID 1, runs the custom instruction a few times, exits 42.
REGISTER_AND_CDP = """
main:
    MOV r0, #1          ; CID
    MOV r1, #0          ; table index
    MOV r2, #0          ; no software alternative
    SWI #1
    MOV r4, #3          ; iterations
    MOV r0, #11
    MOV r1, #31
    MCR f0, r0
    MCR f1, r1
loop:
    CDP #1, f2, f0, f1
    SUB r4, r4, #1
    CMP r4, #0
    BNE loop
    MRC r0, f2
    SWI #0
"""


def run_mixed_workload(config, sinks=()):
    """A run touching every event type family: quanta, context switches,
    syscalls, faults with evictions (1 PFU, 2 circuits), a kill, exits."""
    kernel = Porsche(config.derive(pfu_count=1, quantum_ms=0.05))
    for sink in sinks:
        kernel.trace.attach(sink)
    processes = [
        kernel.spawn(program(REGISTER_AND_CDP, circuits=[adder_spec("c0")])),
        kernel.spawn(
            program(REGISTER_AND_CDP, circuits=[adder_spec("c1")], name="q")
        ),
        kernel.spawn(program("CDP #5, f0, f0, f0\nHALT", name="bad")),
        kernel.spawn(program("MOV r0, #7\nSWI #0", name="quick")),
    ]
    kernel.run()
    return kernel, processes


class TestCounterViews:
    def test_stats_objects_are_sink_views(self, kernel):
        sink = kernel.trace.counters
        assert kernel.stats is sink.kernel
        assert kernel.cis.stats is sink.cis
        process = kernel.spawn(program("MOV r0, #0\nSWI #0"))
        assert process.stats is sink.process(process.pid)

    def test_mixed_run_populates_legacy_counters(self, config):
        kernel, processes = run_mixed_workload(config)
        assert kernel.stats.quanta > 0
        assert kernel.stats.syscalls >= 4
        assert kernel.stats.kills == 1
        assert kernel.stats.total_cycles == kernel.clock
        assert kernel.cis.stats.loads >= 2
        assert kernel.cis.stats.evictions >= 1
        assert processes[0].stats.load_faults >= 1


class TestEventStream:
    def test_event_cycles_monotonic(self, config):
        ring = RingBufferSink(capacity=1_000_000)
        run_mixed_workload(config, sinks=[ring])
        events = ring.events
        assert len(events) == ring.seen  # nothing dropped
        assert events, "mixed workload must produce events"
        for before, after in zip(events, events[1:]):
            assert after.cycle >= before.cycle

    def test_replay_reproduces_live_counters(self, config):
        """Replaying a recorded stream through a fresh CounterSink must
        reconstruct every legacy statistic exactly."""
        ring = RingBufferSink(capacity=1_000_000)
        kernel, processes = run_mixed_workload(config, sinks=[ring])
        live = kernel.trace.counters

        replayed = CounterSink()
        for event in ring:
            replayed.consume(event)

        assert replayed.snapshot() == live.snapshot()

    def test_events_know_their_kind(self, config):
        ring = RingBufferSink(capacity=1_000_000)
        run_mixed_workload(config, sinks=[ring])
        kinds = {event.kind for event in ring}
        assert {
            "quantum_start", "context_switch", "syscall", "dispatch",
            "fault", "circuit_load", "circuit_evict", "cpu_burst",
            "kernel_charge", "process_exit",
        } <= kinds


class TestDisabledBusCost:
    def _traced_bytes(self, bus: TraceBus, iterations: int = 300) -> int:
        """Bytes allocated inside the bus/event modules during emits."""
        filters = [
            tracemalloc.Filter(True, bus_module.__file__),
            tracemalloc.Filter(True, ev.__file__),
        ]
        tracemalloc.start()
        try:
            for __ in range(iterations):
                bus.cpu_burst(1, 5, 3)
                bus.kernel_charge(1, 2)
                bus.dispatch(1, 1, "hit")
                bus.quantum_start(1)
                bus.circuit_load(1, 1, 0, "c0", 100, 8)
                bus.cis_charge(-1, 7)
            snapshot = tracemalloc.take_snapshot().filter_traces(filters)
        finally:
            tracemalloc.stop()
        return sum(stat.size for stat in snapshot.statistics("filename"))

    def test_no_event_sink_means_no_event_allocations(self):
        bus = TraceBus()
        assert not bus.recording
        assert self._traced_bytes(bus) == 0

    def test_attached_sink_is_the_positive_control(self):
        """The same measurement must see allocations once a sink is on —
        proving the zero reading above is not a measurement artefact."""
        bus = TraceBus()
        bus.attach(RingBufferSink(capacity=16))
        assert bus.recording
        assert self._traced_bytes(bus) > 0


class TestEveryKind:
    """The :data:`~repro.trace.events.EVENTS` table is the whole trace
    surface: one emitter and one counter callback per class."""

    def test_table_lists_every_event_class_once(self):
        classes = {
            getattr(ev, name)
            for name in ev.__all__
            if isinstance(getattr(ev, name), type)
        } - {ev.TraceEvent}
        assert set(ev.EVENTS) == classes
        assert len(ev.EVENTS) == len(classes)
        kinds = [cls.kind for cls in ev.EVENTS]
        assert len(set(kinds)) == len(kinds)

    @pytest.mark.parametrize("cls", ev.EVENTS, ids=lambda cls: cls.kind)
    def test_emit_records_and_replays_exactly(self, cls):
        bus = TraceBus()
        bus.bind_clock(lambda: 77)
        ring = bus.attach(RingBufferSink(capacity=4))
        args = sample_args(cls)
        getattr(bus, cls.kind)(*args)
        assert ring.events == [cls(77, *args)]
        replayed = CounterSink()
        replayed.consume(ring.events[0])
        assert replayed.snapshot() == bus.counters.snapshot()


class TestSinks:
    def test_ring_buffer_bounds_and_drop_count(self):
        ring = RingBufferSink(capacity=4)
        for cycle in range(10):
            ring.on_event(ev.QuantumStart(cycle, 1))
        assert len(ring) == 4
        assert ring.seen == 10
        assert ring.dropped == 6
        assert [event.cycle for event in ring] == [6, 7, 8, 9]
        ring.clear()
        assert len(ring) == 0 and ring.seen == 0

    def test_jsonl_sink_streams_parseable_lines(self, config, tmp_path):
        path = tmp_path / "events.jsonl"
        with JsonlSink(path) as sink:
            kernel, __ = run_mixed_workload(config, sinks=[sink])
        lines = path.read_text().splitlines()
        assert len(lines) == sink.written > 0
        records = [json.loads(line) for line in lines]
        assert all("kind" in record and "cycle" in record for record in records)
        assert records[-1]["kind"] == "kernel_charge"
        assert records[-1]["source"] == "exit"


class TestTimeline:
    def test_attribution_matches_process_stats(self, config):
        timeline = TimelineAggregator()
        kernel, processes = run_mixed_workload(config, sinks=[timeline])
        timeline.close(kernel.clock)
        for process in processes:
            attribution = timeline.processes[process.pid]
            assert attribution.cpu_cycles == process.stats.cpu_cycles
            assert attribution.kernel_cycles == process.stats.kernel_cycles
            assert attribution.quanta == process.stats.quanta
            assert attribution.exit_cycle is not None
        assert timeline.processes[3].killed

    def test_occupancy_segments_close_and_nest_in_run(self, config):
        timeline = TimelineAggregator()
        kernel, __ = run_mixed_workload(config, sinks=[timeline])
        timeline.close(kernel.clock)
        segments = timeline.segments
        assert segments, "one-PFU contention must produce residency segments"
        for segment in segments:
            assert segment.end is not None
            assert 0 <= segment.start <= segment.end <= kernel.clock
        # One PFU: segments on it must not overlap.
        ordered = sorted(segments, key=lambda s: s.start)
        for before, after in zip(ordered, ordered[1:]):
            assert before.end <= after.start
        assert 0.0 < timeline.utilisation(0, kernel.clock) <= 1.0


class TestFastPathRebinding:
    """With no event sink, every emitter is the counter sink's own bound
    method; attaching a sink swaps in the recording closures."""

    def test_quiet_bus_binds_hot_emitters_to_counter_sink(self):
        bus = TraceBus()
        for cls in ev.EVENTS:
            emitter = getattr(bus, cls.kind)
            assert emitter.__self__ is bus.counters, cls.kind
            assert emitter.__func__.__name__ == "on_" + cls.kind

    def test_attach_and_detach_swap_the_bindings(self):
        bus = TraceBus()
        sink = bus.attach(RingBufferSink(capacity=4))
        for cls in ev.EVENTS:
            emitter = getattr(bus, cls.kind)
            assert getattr(emitter, "__self__", None) is not bus.counters, (
                cls.kind
            )
        bus.detach(sink)
        for cls in ev.EVENTS:
            assert getattr(bus, cls.kind).__self__ is bus.counters, cls.kind

    @pytest.mark.parametrize("recording", [False, True])
    def test_dispatch_observer_runs_between_counter_and_record(
        self, recording
    ):
        bus = TraceBus()
        ring = bus.attach(RingBufferSink(capacity=4)) if recording else ()
        seen = []
        bus.bind_predictor(
            lambda *args: seen.append(
                (args, bus.counters.dispatch["hit"], len(ring))
            )
        )
        bus.dispatch(1, 2, "hit")
        assert seen == [((1, 2, "hit"), 1, 0)]
        assert len(ring) == recording

    def test_counters_identical_with_and_without_sink(self, config):
        quiet, __ = run_mixed_workload(config)
        loud, __ = run_mixed_workload(
            config, sinks=[RingBufferSink(capacity=1_000_000)]
        )
        assert quiet.trace.counters.kernel == loud.trace.counters.kernel
        assert quiet.trace.counters.cis == loud.trace.counters.cis
        assert quiet.trace.counters.dispatch == loud.trace.counters.dispatch
        assert quiet.trace.counters.processes == loud.trace.counters.processes
