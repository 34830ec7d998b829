"""The regression anchors: exact makespans every change must keep.

At scale 1/8000 the alpha workload finishes in milliseconds, so the
published anchor points run here on the default ``jit`` tier and on
``block`` (the fallback tier, without trace compilation).  A
simulator-speed change that shifts a single
cycle anywhere in the kernel, the CIS or the CPU tiers fails here.
The datapath table does the same for the other workloads and adds the
PFU usage and completion counters at the end of each run.

The second table pins the *identity* of experiment points: the
``spec_key()`` digest every result cache, warm-start checkpoint and
journal record is filed under, and the bytes of the spec codec shared
by checkpoints and the serve protocol.  A refactor that changes either
silently orphans every stored result, so these digests never change
without a deliberate format migration.  For the same reason the
result-path table pins where one point's result object lives in the
store, and the last table pins whole checkpoint documents: the PFU
regions' resident-image recipes and every circuit instance's state
words, which warm-start and job checkpoints are rebuilt from.  The
section table extends it to every optional section (fault injector,
prefetch model and transfer engine, their counters, synthesised and
prefetched registrations), to each replacement policy's state and to a
TLB whose FIFO hand has wrapped, and requires a resumed machine to write
each document back unchanged.

The thrash table pins the three points of the ``thrash_1ms`` benchmark
workload, where nearly every quantum swaps a circuit: their makespans
and the CIS and TLB counters at the end of each run.

The event-stream table pins the order of everything the kernel and the
CIS publish on the trace bus for whole swap-heavy runs: sharing,
software deferral, each fault-recovery policy, the prefetcher and each
replacement policy besides round-robin.  One more point pins the
dispatch events of a run whose circuits all stay resident, where
nearly every custom instruction is issued from a compiled trace.
"""

import functools
import hashlib
import json

import pytest

from repro.apps.workloads import WorkloadVariant
from repro.core.coprocessor import ProteusCoprocessor
from repro.core.dispatch import DispatchUnit
from repro.core.tlb import DispatchTLB
from repro.faults import FaultPlan
from repro.machine import Machine, spec_from_dict, spec_to_dict
from repro.prefetch import PrefetchPlan
from repro.sim.experiment import ExperimentSpec, run_experiment
from repro.sim.runner import ResultCache
from repro.synth.plan import SynthesisPlan
from repro.trace.sinks import JsonlSink

SCALE = 1 / 8000

#: (instances, quantum_ms) -> makespan for the alpha workload.
ANCHORS = {
    (1, 1.0): 16560,
    (3, 1.0): 53561,
    # The round-robin 10 ms alpha sweep of Figure 2.
    (1, 10.0): 16340,
    (2, 10.0): 32951,
    (3, 10.0): 49427,
    (5, 10.0): 90566,
    (8, 10.0): 144926,
}


@pytest.mark.parametrize("tier", ["jit", "block"])
@pytest.mark.parametrize("point", sorted(ANCHORS))
def test_alpha_makespan_anchor(point, tier, monkeypatch):
    monkeypatch.setenv("REPRO_EXEC_TIER", tier)
    instances, quantum_ms = point
    spec = ExperimentSpec(
        workload="alpha", instances=instances, quantum_ms=quantum_ms,
        policy="round_robin", scale=SCALE,
    )
    assert spec.build_config().exec_tier == tier
    outcome = run_experiment(spec, verify=True)
    assert outcome.verified
    assert outcome.makespan == ANCHORS[point]


#: (workload, instances, quantum_ms) -> (makespan, per-PFU
#: (usage_counter, total_busy_cycles, total_completions), per-instance
#: completions in pid then CID order), all read at the end of the run.
#: The first four points are round-robin at 10 ms where every circuit
#: stays resident, so host time is the custom-instruction datapath; the
#: last is a contended 1 ms point whose CDPs are interrupted and whose
#: circuits are swapped.  The PFU counters are architectural state that
#: no outcome field compares, so a datapath change could drift in them
#: with every makespan intact.
DATAPATH_ANCHORS = {
    ("alpha", 4, 10.0): (65903, [(775, 3100, 775)] * 4, [775] * 4),
    ("twofish", 4, 10.0): (67203, [(1375, 6050, 1375)] * 4, [1375] * 4),
    ("echo", 2, 10.0): (
        33565,
        [(488, 1952, 488), (488, 1464, 488)] * 2,
        [488] * 4,
    ),
    ("phases", 2, 10.0): (
        22969,
        [(272, 544, 272), (272, 544, 272), (266, 532, 266), (266, 532, 266)],
        [272, 266] * 2,
    ),
    ("twofish", 5, 1.0): (
        500575,
        [(1788, 7563, 1788), (1650, 7563, 1650), (1787, 7562, 1787),
         (1650, 7562, 1650)],
        [1375] * 5,
    ),
}


@pytest.mark.parametrize("tier", ["jit", "block"])
@pytest.mark.parametrize("point", sorted(DATAPATH_ANCHORS))
def test_datapath_anchor(point, tier, monkeypatch):
    monkeypatch.setenv("REPRO_EXEC_TIER", tier)
    assert _datapath_point(*point) == DATAPATH_ANCHORS[point]


def _datapath_point(workload, instances, quantum_ms):
    spec = ExperimentSpec(
        workload=workload, instances=instances, quantum_ms=quantum_ms,
        policy="round_robin", scale=SCALE,
    )
    machine = Machine.from_spec(spec)
    machine.spawn_instances()
    machine.run()
    outcome = machine.outcome(verify=True)
    assert outcome.verified
    kernel = machine.checkpoint()["kernel"]
    pfus = [
        (pfu["usage_counter"], pfu["total_busy_cycles"],
         pfu["total_completions"])
        for pfu in kernel["coprocessor"]["pfus"]["pfus"]
    ]
    completions = [
        registration["instance"]["completions"]
        for pid in sorted(kernel["processes"], key=int)
        for registration in kernel["processes"][pid]["registrations"]
    ]
    return outcome.makespan, pfus, completions


#: The ``thrash_1ms`` points (round-robin at 1 ms, more instances than
#: PFUs): (workload, instances) -> (makespan, CIS (loads, evictions,
#: state bytes moved), per-TLB (lookups, hits, insertions, evictions)
#: for the hardware then the software TLB), read from the end-of-run
#: checkpoint document.  A change to the swap path that moves one load,
#: one eviction or one TLB probe fails here even if the makespan holds.
THRASH_ANCHORS = {
    ("alpha", 5): (
        282955, (15500, 15496, 2231712),
        [(31000, 15500, 15500, 0), (15500, 0, 0, 0)],
    ),
    ("twofish", 5): (
        500575, (30250, 30246, 7743488),
        [(60500, 30250, 30250, 0), (30250, 0, 0, 0)],
    ),
    ("echo", 4): (
        115215, (3904, 3900, 780480),
        [(11712, 7808, 3904, 0), (3904, 0, 0, 0)],
    ),
}


@pytest.mark.parametrize("tier", ["jit", "block"])
@pytest.mark.parametrize("point", sorted(THRASH_ANCHORS))
def test_thrash_anchor(point, tier, monkeypatch):
    monkeypatch.setenv("REPRO_EXEC_TIER", tier)
    assert _thrash_point(*point) == THRASH_ANCHORS[point]


def _thrash_point(workload, instances):
    spec = ExperimentSpec(
        workload=workload, instances=instances, quantum_ms=1.0,
        policy="round_robin", scale=SCALE,
    )
    machine = Machine.from_spec(spec)
    machine.spawn_instances()
    machine.run()
    outcome = machine.outcome(verify=True)
    assert outcome.verified
    kernel = machine.checkpoint()["kernel"]
    cis = kernel["counters"]["cis"]
    dispatch = kernel["coprocessor"]["dispatch"]
    tlbs = [
        tuple(dispatch[tlb][field]
              for field in ("lookups", "hits", "insertions", "evictions"))
        for tlb in ("hardware_tlb", "software_tlb")
    ]
    return (
        outcome.makespan,
        (cis["loads"], cis["evictions"], cis["state_bytes_moved"]),
        tlbs,
    )


@pytest.mark.parametrize("tier", ["jit", "block"])
def test_compiled_tiers_bypass_coprocessor_execute(tier, monkeypatch):
    """On the compiled tiers a hardware custom instruction steps its PFU
    directly: a resident datapath point and a thrashing point hold
    their anchors with ``ProteusCoprocessor.execute`` unusable."""
    monkeypatch.setenv("REPRO_EXEC_TIER", tier)

    def execute(*args, **kwargs):
        raise AssertionError("ProteusCoprocessor.execute called")

    monkeypatch.setattr(ProteusCoprocessor, "execute", execute)
    point = ("twofish", 4, 10.0)
    assert _datapath_point(*point) == DATAPATH_ANCHORS[point]
    assert _thrash_point("alpha", 5) == THRASH_ANCHORS[("alpha", 5)]


FAULT = FaultPlan(
    seed=9, config_upset_rate=0.05,
    schedule=((3, "config"), (7, "datapath")), recovery="fallback",
)
SYNTH = SynthesisPlan(
    min_executions=8, max_circuits_per_process=2, trigger_instructions=100,
)
PREFETCH = PrefetchPlan(steal_victims=False)

#: Points whose identity is pinned: the fig2 default, the seed
#: sentinel, each architecture and dispatch knob, each optional plan
#: alone and all three together.
GOLDEN_SPECS = {
    "fig2_default": ExperimentSpec(workload="echo", instances=1),
    "seed_none": ExperimentSpec(
        workload="alpha", instances=3, quantum_ms=1.0, scale=SCALE,
    ),
    "seed_zero": ExperimentSpec(
        workload="alpha", instances=3, quantum_ms=1.0, scale=SCALE, seed=0,
    ),
    "random_1ms": ExperimentSpec(
        workload="twofish", instances=5, quantum_ms=1.0, policy="random",
        scale=SCALE, seed=11,
    ),
    "prisc": ExperimentSpec(
        workload="alpha", instances=2, architecture="prisc", scale=SCALE,
    ),
    "memmap": ExperimentSpec(
        workload="alpha", instances=2, architecture="memmap", scale=SCALE,
    ),
    "soft": ExperimentSpec(workload="echo", instances=4, soft=True,
                           scale=SCALE),
    "software_variant": ExperimentSpec(
        workload="alpha", instances=1, variant=WorkloadVariant.SOFTWARE,
        register_soft=False, scale=SCALE,
    ),
    "explicit_items": ExperimentSpec(
        workload="alpha", instances=2, items=40, scale=SCALE,
    ),
    "fault_plan": ExperimentSpec(
        workload="alpha", instances=3, quantum_ms=1.0, scale=SCALE,
        fault_plan=FAULT,
    ),
    "synthesis": ExperimentSpec(
        workload="hash", instances=2, scale=SCALE, synthesis=SYNTH,
    ),
    "prefetch": ExperimentSpec(
        workload="phases", instances=5, quantum_ms=1.0, scale=SCALE,
        prefetch=PREFETCH,
    ),
    "all_plans": ExperimentSpec(
        workload="phases", instances=3, quantum_ms=1.0, scale=SCALE,
        fault_plan=FAULT, synthesis=SYNTH, prefetch=PREFETCH,
    ),
}

#: name -> (spec_key(), sha256 of the sorted-key JSON spec codec).
GOLDEN_DIGESTS = {
    "fig2_default": (
        "168c28b46f98aee5a34c6876ae9b78febf20d2ef053d7b37d7d5c87149ef868d",
        "c4b370d9f7df97a710214ffdc7274f6fa03b53c4348fec71ced9098928680641",
    ),
    "seed_none": (
        "f49c0c97deff15f76de5f0f4d55c0ce5d43589887c0bd7e5d5cae4151b814c34",
        "e673ac8f6441a55cbe667b63d9fdff9019bf7b552fd274098f7e932e68f67fbd",
    ),
    "seed_zero": (
        "c0e1a2fde59b287e42d2dc266bf37ae5ae932aafb8277a777bbaa3fd06e25130",
        "2b0c6c641e3f77b10df92ec0ab54a932f0e29feab3746762a657a05c81fd8952",
    ),
    "random_1ms": (
        "cd44745fa470ac64a03f98bbf741a5ed651fb0d7c87ac692b989f416ee8cb3e2",
        "74315ee71f045a33c8a9601012055af99e8fa66bbe17d220cdf1cc4b23fdb7a8",
    ),
    "prisc": (
        "974b1cf0f9eebe381e5a4b2c74cf25e540277abcdc637bed0239a8afc223f1b4",
        "bd94f8af596673ffc2049a50aa577557acef5995d45cdf5caaa50e0d13a56621",
    ),
    "memmap": (
        "9169f07ab8853964e08ce78d37371c3f039de690a1cce12748f958425ec41dba",
        "f28345cc0ef1b5d3e73ffbbf3e9541fe0c2111fe53cda7061d1341b0257bf4fc",
    ),
    "soft": (
        "bb080435e140a3248d80e903698aba6f25ddb519e7fc0737c0a107b9dd84dad1",
        "4920566d5b9d6e47e0b1f606cb68db94d89d9df38f51bcbf9c82663e5a81e8a4",
    ),
    "software_variant": (
        "a10b94476bcbcd494bce4f233b8ae9888f4c445b2f0a2839c61e8d0bcec77f47",
        "6da748eee8a143c04d5569d0043a56dea8775c4bb9939e4c726a1aa93ba55e69",
    ),
    "explicit_items": (
        "dab31439c3ca2a6420699b6d6bccea275fea67838800d0abde40526409488405",
        "80988619bb470210385bc5e469cdb69badae06ed0a07ee7a9d9d405391c1ad23",
    ),
    "fault_plan": (
        "148cea265554c630c4f54e851a4592da592b1c86ce2b1fdff7f77e41761a50ce",
        "4f93ae482360532976d356297835bc77488c0deb5f0af86ff5bd79766487c83d",
    ),
    "synthesis": (
        "afd6766086cea47b09b19286b984cc6679326361a24a6f7555ec5cff29ca5484",
        "c89147c32a935db0452cfb08b4aecfa68d5ba30b823b9f0b80c45712f02e7be7",
    ),
    "prefetch": (
        "efc3ab1e5e5072706f3f3f67e8b0601a194e7c257d19adafd07fb806cacbb31c",
        "5a24b89af0b75182b791e1a064940734485ed5093e04b7862268f601e2799eb0",
    ),
    "all_plans": (
        "860ed76518a4a9f7b1e020fbd464f1ef643c9a776775e4cb0bb8b6f3713f4e18",
        "7ce28ab34d8b508afc18bd44093badbdd8a3722420e380d7ffff413c8131ef06",
    ),
}


def _codec_digest(spec: ExperimentSpec) -> str:
    blob = json.dumps(spec_to_dict(spec), sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN_SPECS))
def test_spec_key_golden(name):
    assert GOLDEN_SPECS[name].spec_key() == GOLDEN_DIGESTS[name][0]


@pytest.mark.parametrize("name", sorted(GOLDEN_SPECS))
def test_spec_codec_golden(name):
    spec = GOLDEN_SPECS[name]
    assert _codec_digest(spec) == GOLDEN_DIGESTS[name][1]
    assert spec_from_dict(json.loads(json.dumps(spec_to_dict(spec)))) == spec


def test_golden_keys_are_distinct():
    keys = [key for key, _ in GOLDEN_DIGESTS.values()]
    assert len(set(keys)) == len(keys)


#: verify flag -> store-relative path of the fig2 default's result
#: object.  Caches written by earlier versions keep hitting only while
#: these hold.
RESULT_PATHS = {
    False: "objects/f3/f3050953dd7cf3b291f686bc5df27f22d46443024486279f4"
           "9048d5a27740a3d.pkl",
    True: "objects/3e/3ea9313e75c02c3efb9688353d7ecdcda54cae635eff3bf146"
          "6ac74ed2c01142.pkl",
}


@pytest.mark.parametrize("verify", [False, True])
def test_result_object_path_golden(verify, tmp_path):
    cache = ResultCache(tmp_path)
    path = cache.path(cache.key(GOLDEN_SPECS["fig2_default"], verify))
    assert path.relative_to(tmp_path).as_posix() == RESULT_PATHS[verify]


#: (workload, instances, quanta run) at 1 ms, 1/8000 -> sha256 of the
#: sorted-key JSON of ``Machine.checkpoint()``.  The alpha point is the
#: CLI checkpoint case; echo's circuits are stateful, so its document
#: carries live state words as well as resident images.
CHECKPOINT_DIGESTS = {
    ("alpha", 3, 200):
        "8a87d8c7c9873f5ded94f0772a674f19a30eeb8666e9db4a7fc732cbcf307a16",
    ("echo", 4, 4000):
        "eb7ca3f6ccc97f38ffc2bd7fe6f81963d3b9ff06e8ab07e7fdc50ce7c72f9532",
}


def _checkpoint_digest(machine: Machine) -> str:
    blob = json.dumps(machine.checkpoint(), sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("point", sorted(CHECKPOINT_DIGESTS))
def test_checkpoint_document_golden(point):
    workload, instances, quanta = point
    spec = ExperimentSpec(
        workload=workload, instances=instances, quantum_ms=1.0, scale=SCALE,
    )
    machine = Machine.from_spec(spec)
    machine.spawn_instances()
    assert machine.run_quanta(quanta) == quanta
    assert _checkpoint_digest(machine) == CHECKPOINT_DIGESTS[point]
    # A resumed machine writes the same document back.
    resumed = Machine.resume(json.loads(json.dumps(machine.checkpoint())))
    assert _checkpoint_digest(resumed) == CHECKPOINT_DIGESTS[point]


RATES = dict(
    config_upset_rate=0.05, datapath_error_rate=0.05,
    transfer_error_rate=0.1, state_upset_rate=0.1, scrub_interval_quanta=8,
)
#: Rarer fabric upsets leave PFUs in service long enough for the
#: prefetcher to stream, hit and get cancelled while faults land.
LOW_RATES = dict(RATES, config_upset_rate=0.005, datapath_error_rate=0.005)
RARE_RATES = dict(RATES, config_upset_rate=0.001, datapath_error_rate=0.001)

#: Whole runs on the swap path at 1 ms, 1/8000: name -> (spec, event
#: count, sha256 of the ``JsonlSink`` stream).  Every CIS emitter moves
#: an event here if it moves at all, so a refactor of the swap path
#: that reorders, adds or drops one event fails even when every
#: makespan and counter holds.
EVENT_STREAMS = {
    "share": (
        ExperimentSpec(workload="alpha", instances=6, quantum_ms=1.0,
                       scale=SCALE, allow_sharing=True),
        81948,
        "eccd48f74f71a4d44e0c5faaa30d47a786915e3b2611677a700e0ca1138167ee",
    ),
    "soft": (
        ExperimentSpec(workload="echo", instances=5, quantum_ms=1.0,
                       scale=SCALE, soft=True),
        86349,
        "26cebd116575b06599e3a226b62b00137469cd38fc9a24649fbf12c28363a175",
    ),
    "reload": (
        ExperimentSpec(workload="alpha", instances=5, quantum_ms=1.0,
                       scale=SCALE,
                       fault_plan=FaultPlan(seed=9, recovery="reload",
                                            **RATES)),
        80754,
        "88b28d3da2ad555e6dcb334941a3dd04c5044a5dab6101562d13c7e8fae75f94",
    ),
    "prefetch": (
        ExperimentSpec(workload="phases", instances=5, quantum_ms=1.0,
                       scale=SCALE, prefetch=PrefetchPlan()),
        55776,
        "441b77f2610ebb032c2bfe7963c0eb13e64b46f3f31543ae22abb1ee64602e95",
    ),
    "prefetch_quarantine": (
        ExperimentSpec(workload="phases", instances=5, quantum_ms=1.0,
                       scale=SCALE, prefetch=PrefetchPlan(),
                       fault_plan=FaultPlan(seed=9, recovery="quarantine",
                                            **LOW_RATES)),
        57561,
        "7d335cb82da335310192aa6d6b8758a4643118d77871b9157eb905f222877a05",
    ),
    "prefetch_fallback": (
        ExperimentSpec(workload="phases", instances=5, quantum_ms=1.0,
                       scale=SCALE, prefetch=PrefetchPlan(),
                       fault_plan=FaultPlan(seed=9, recovery="fallback",
                                            **RARE_RATES)),
        51770,
        "1d07f6d78b999f529f61a00b16ce0972f8b5a2f73c48ef8cb1e27651c40bb57e",
    ),
    # The plain demand swap path: round robin, no plans, every fault
    # after the first four both evicts and loads.
    "round_robin": (
        ExperimentSpec(workload="alpha", instances=5, quantum_ms=1.0,
                       scale=SCALE, policy="round_robin"),
        236445,
        "d539fa7b2da61ef6c0050a7870228e82d9a0f5159c1372ca691cfe2f077ce5b9",
    ),
    # The other replacement policies: random and LRU pick from the
    # victim candidate list in its order, and LRU and second chance
    # read and clear the PFU usage counters at every decision.
    "random": (
        ExperimentSpec(workload="alpha", instances=5, quantum_ms=1.0,
                       scale=SCALE, policy="random"),
        68533,
        "ecb5bdab10431dc8ac45f08591786c5ea0a7bce40788ff8147117e0bd325e414",
    ),
    "lru": (
        ExperimentSpec(workload="alpha", instances=5, quantum_ms=1.0,
                       scale=SCALE, policy="lru"),
        64139,
        "92b9bfb06f3e0ab4661efb2c1e70209090d38de1a58778eb793fe9d5a5a35324",
    ),
    "second_chance": (
        ExperimentSpec(workload="alpha", instances=5, quantum_ms=1.0,
                       scale=SCALE, policy="second_chance"),
        179667,
        "ca19d828295f4e62d805e54f3c2a5b363b6044089bf84c1ee74326f35c65bd0c",
    ),
    # The custom-instruction datapath: every circuit stays resident, so
    # the stream is the traced CDPs' dispatch events.
    "datapath": (
        ExperimentSpec(workload="twofish", instances=4, quantum_ms=10.0,
                       scale=SCALE),
        8876,
        "5f94a1aa2f8d91a934c40b01c9be66c4e90c59e424cf0c19f810098fde8a7422",
    ),
}

#: Events (with their ``action`` or ``reason``) the point set must
#: reach, so its coverage of the swap path cannot rot silently.
EVENT_COVERAGE = {
    "fault:load", "fault:swap", "fault:share", "fault:soft",
    "fault:mapping", "fault:prefetch",
    "circuit_evict", "circuit_load", "state_swap",
    "fault_recovered:reload", "fault_recovered:retry",
    "fault_recovered:fallback", "fault_recovered:quarantine",
    "prefetch_hit", "prefetch_wasted", "prefetch_cancelled:mispredict",
}


class _Digest:
    """A write-only text handle that hashes what it is given."""

    def __init__(self) -> None:
        self.sha = hashlib.sha256()

    def write(self, text: str) -> None:
        self.sha.update(text.encode("utf-8"))


class _Coverage:
    """Records each event kind, tagged with its action or reason."""

    def __init__(self) -> None:
        self.seen: set[str] = set()

    def on_event(self, event) -> None:
        tag = {
            "fault": "action", "fault_recovered": "action",
            "prefetch_cancelled": "reason",
        }.get(event.kind)
        self.seen.add(
            event.kind if tag is None
            else f"{event.kind}:{getattr(event, tag)}"
        )


def test_event_stream_golden():
    coverage = _Coverage()
    streams = {}
    for name, (spec, _count, _digest) in EVENT_STREAMS.items():
        digest = _Digest()
        sink = JsonlSink(digest)
        run_experiment(spec, verify=False, sinks=[sink, coverage])
        streams[name] = (sink.written, digest.sha.hexdigest())
    assert streams == {
        name: (count, digest)
        for name, (_spec, count, digest) in EVENT_STREAMS.items()
    }
    assert EVENT_COVERAGE <= coverage.seen, EVENT_COVERAGE - coverage.seen


@pytest.mark.parametrize("tier", ["jit", "block"])
def test_compiled_cdp_sites_probe_the_tlbs_inline(tier, monkeypatch):
    """A compiled CDP site reads the TLBs' ``targets`` itself: a
    thrashing point (hits and faults) and the software-dispatch stream
    hold their anchors with ``DispatchUnit.resolve`` and
    ``DispatchTLB.lookup`` unusable."""
    monkeypatch.setenv("REPRO_EXEC_TIER", tier)

    def probe(*args, **kwargs):
        raise AssertionError("dispatch probe called")

    monkeypatch.setattr(DispatchUnit, "resolve", probe)
    monkeypatch.setattr(DispatchTLB, "lookup", probe)
    assert _thrash_point("echo", 4) == THRASH_ANCHORS[("echo", 4)]
    spec, count, expected = EVENT_STREAMS["soft"]
    digest = _Digest()
    sink = JsonlSink(digest)
    run_experiment(spec, verify=False, sinks=[sink])
    assert (sink.written, digest.sha.hexdigest()) == (count, expected)


#: The extra points of the section table: custom-instruction synthesis
#: (registrations carry a ``synth`` window), the PRISC baseline, and a
#: two-entry TLB that evicts its own mappings FIFO (121 hardware-TLB
#: evictions by quantum 150, where the hand stands at entry 1).
CHECKPOINT_EXTRA_POINTS = {
    "synth": ExperimentSpec(workload="hash", instances=3, quantum_ms=1.0,
                            scale=SCALE, synthesis=SYNTH),
    "prisc": ExperimentSpec(workload="alpha", instances=5, quantum_ms=1.0,
                            scale=SCALE, architecture="prisc"),
    "small_tlb": ExperimentSpec(workload="twofish", instances=3,
                                quantum_ms=1.0, scale=SCALE, tlb_entries=2),
}

#: Every section of the checkpoint document: name -> {quanta run ->
#: sha256 of the sorted-key JSON of ``Machine.checkpoint()``}, for each
#: event-stream point and each extra point, at quantum 150 and at
#: the end of the run (``None``).  The prefetch point adds the quanta at
#: which its counters (2172), an in-flight speculative transfer (2176)
#: and a prefetched registration (2177) first appear in the document.
CHECKPOINT_SECTION_DIGESTS = {
    "share": {
        150:
            "ad98eafc7b8427c280183c40ef78e7dd02f08b983c3564a746130c8c439b9dcc",
        None:
            "f4180ccf96924e7c523ebfbf76d72cfe0b4042adf33e39a52b061384bd4190c7",
    },
    "soft": {
        150:
            "cc6749dcf77324e167c5262503eb2ebfc669d65d36a2d2088133f872d1474172",
        None:
            "b5c67de40fe6f4fda2eab5d35f213aeb2460044ae56c0f264193f7abee2dccb8",
    },
    "reload": {
        150:
            "9aee561645474be19fe9832d4f630e9cd4a1d8fbc25ebaba6c33a22641f4304d",
        None:
            "a8fd07a62d9a6c29a6bcab25ad56f4b99043cf195b7d027d80706f764484f808",
    },
    "prefetch": {
        150:
            "eca360a8f0beb9f7006ef69e04cc2cac7abd309710da6c261c70b01f1f0fc204",
        2172:
            "02307f6552ae4208f9a7ee0de0a5d16578bbecf5557f9e2ff607f189f9898543",
        2176:
            "b1f2812b35c8c068e693e79e2a6f66e30dd396a4f41438854929e97e30d2bb27",
        2177:
            "95db59248402f7c68cf74f82caa4cbe6deca611f53d007e157310b6e247c2991",
        None:
            "94b6e90c704329fb24292544313bae594c1c90d31602d78f96c6f7dcfd064d3d",
    },
    "prefetch_quarantine": {
        150:
            "c270f647a1e93ceb83b1f6fb6b0482530ce8f7b317bba2c845514aa849cc5937",
        None:
            "62341e4f8e937c7dcfe16156139a989c10dd6c3172d26035cacda60cfc78896a",
    },
    "prefetch_fallback": {
        150:
            "fdd8d69f519c4ff1be60e09b3b19779ed092eb4b084c143e64ae15c5f3102ceb",
        None:
            "8a5a7d43044e292b07c5214c19ae07e314dad8f7308f7896bf13fd206bd50fa1",
    },
    "random": {
        150:
            "dd89213276495e275bb79c2c83e159d5ac744400977207a1e4e75629dfa1b516",
        None:
            "f19acd2de459751d152fe9095115bfda83ae1101196dbecd9124b5c9274e3c24",
    },
    "lru": {
        150:
            "2447cb4636d5658bf8ee109c947e6f56fae90009dd5773284bbf4ebdc48ea1b8",
        None:
            "172d14798de40b7b713b614e7477b5478007305993e4eec63e92c7b5b6301795",
    },
    "second_chance": {
        150:
            "b9e5fe4b717dd25bc1b0b49e446a1718f80a9bd370914e9b760cc08e4808b60f",
        None:
            "50225c9ab4c56f85853161173aea4c43bbb9417741990c806067ad7bd1f7ace3",
    },
    "datapath": {
        150:
            "9da539bbae03b8a07174f1729baab4ae4114e28fe5f5419729f7899f610cbe5c",
        None:
            "bd7e34a76eb26869ff8ee5b9f98df4966ebdf97cdeec0f37fae378655dab9446",
    },
    "synth": {
        150:
            "17841f7ea4daa7b88092213e560f427c412c5b617ce25e4cff5d747ccb4ebef1",
        None:
            "4d82e695f99eb371b7d19b82c6168e7cc6781b956ef3181eb05d442bf7be6f0b",
    },
    "prisc": {
        150:
            "805f4fefe92e78c437761ecb77d5f4f49bebb54b5e358619487340ad414b3459",
        None:
            "aba128b241d6f64b251731caabb422d925ace7b500af2a86ee86e841be23ffda",
    },
    "small_tlb": {
        150:
            "aba702934f79fc03690b843f131778ca04d09e0a46ab40316ce4f977554e7622",
        None:
            "ef83a40a8403220700e3e3382c975418615aa3617a8b944c21a49119ea82d3c6",
    },
}

#: Sections the pinned documents must reach between them, so the
#: table's coverage of the checkpoint format cannot rot silently.
CHECKPOINT_COVERAGE = {
    "kernel.faults", "kernel.prefetch.engine", "counters.faults",
    "counters.prefetch", "registration.synth", "registration.prefetched",
    "tlb.evictions",
}


def _document_sections(document: dict) -> set[str]:
    """The optional sections ``document`` carries."""
    kernel = document["kernel"]
    seen = {f"counters.{key}" for key in ("faults", "prefetch")
            if key in kernel["counters"]}
    if "faults" in kernel:
        seen.add("kernel.faults")
    if "prefetch" in kernel and kernel["prefetch"]["engine"]["entry"]:
        seen.add("kernel.prefetch.engine")
    dispatch = kernel["coprocessor"]["dispatch"]
    if any(dispatch[tlb]["evictions"] for tlb in ("hardware_tlb",
                                                    "software_tlb")):
        seen.add("tlb.evictions")
    for process in kernel["processes"].values():
        for registration in process["registrations"]:
            seen.update(f"registration.{key}" for key in ("synth", "prefetched")
                        if key in registration)
    return seen


@functools.cache
def _checkpoint_sections(name: str):
    """Run one point once: per mark, the document's digest and the digest
    a JSON round-tripped resume writes back, plus the sections seen."""
    spec = (EVENT_STREAMS[name][0] if name in EVENT_STREAMS
            else CHECKPOINT_EXTRA_POINTS[name])
    machine = Machine.from_spec(spec)
    machine.spawn_instances()
    digests, resumed, sections = {}, {}, set()
    for mark in CHECKPOINT_SECTION_DIGESTS[name]:
        if mark is None:
            while machine.run_quantum():
                pass
        else:
            ran = machine.run_quanta(mark - machine.stats.quanta)
            assert machine.stats.quanta == mark, ran
        document = machine.checkpoint()
        digests[mark] = _checkpoint_digest(machine)
        again = Machine.resume(json.loads(json.dumps(document)))
        resumed[mark] = _checkpoint_digest(again)
        sections |= _document_sections(document)
    return digests, resumed, sections


@pytest.mark.parametrize("name", list(CHECKPOINT_SECTION_DIGESTS))
def test_checkpoint_sections_golden(name):
    digests, resumed, _sections = _checkpoint_sections(name)
    assert digests == CHECKPOINT_SECTION_DIGESTS[name]
    assert resumed == digests


def test_checkpoint_sections_coverage():
    seen = set()
    for name in CHECKPOINT_SECTION_DIGESTS:
        seen |= _checkpoint_sections(name)[2]
    assert CHECKPOINT_COVERAGE <= seen, CHECKPOINT_COVERAGE - seen


def test_small_tlb_point_equal_on_every_tier(monkeypatch):
    """The evicting TLB point ends with one outcome and one checkpoint
    document on step, block and jit."""
    ends = []
    for tier in ("step", "block", "jit"):
        monkeypatch.setenv("REPRO_EXEC_TIER", tier)
        machine = Machine.from_spec(CHECKPOINT_EXTRA_POINTS["small_tlb"])
        machine.spawn_instances()
        machine.run()
        outcome = machine.outcome(verify=True)
        assert outcome.verified
        ends.append((outcome, _checkpoint_digest(machine)))
    assert ends[0] == ends[1] == ends[2]
    assert ends[0][1] == CHECKPOINT_SECTION_DIGESTS["small_tlb"][None]
