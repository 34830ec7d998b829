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
words, which warm-start and job checkpoints are rebuilt from.

The thrash table pins the three points of the ``thrash_1ms`` benchmark
workload, where nearly every quantum swaps a circuit: their makespans
and the CIS and TLB counters at the end of each run.

The event-stream table pins the order of everything the kernel and the
CIS publish on the trace bus for whole swap-heavy runs: sharing,
software deferral, each fault-recovery policy, the prefetcher and each
replacement policy besides round-robin.
"""

import hashlib
import json

import pytest

from repro.apps.workloads import WorkloadVariant
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
    workload, instances, quantum_ms = point
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
    assert (outcome.makespan, pfus, completions) == DATAPATH_ANCHORS[point]


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
    workload, instances = point
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
    assert (
        outcome.makespan,
        (cis["loads"], cis["evictions"], cis["state_bytes_moved"]),
        tlbs,
    ) == THRASH_ANCHORS[point]


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
}

#: Events (with their ``action`` or ``reason``) the point set must
#: reach, so its coverage of the swap path cannot rot silently.
EVENT_COVERAGE = {
    "fault:load", "fault:swap", "fault:share", "fault:soft",
    "fault:mapping", "fault:prefetch",
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
