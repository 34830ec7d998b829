"""Running one experiment point: N instances of a workload to completion.

An :class:`ExperimentSpec` captures everything that identifies a point in
the paper's figures — workload, concurrency, quantum, replacement policy,
software-dispatch preference — plus reproduction knobs (scale, seed,
baseline architecture).  :func:`run_experiment` builds the machine, runs
all instances to completion, verifies their outputs against the Python
reference models, and returns the makespan with full statistics.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from typing import Sequence

from ..apps.registry import get_workload
from ..apps.workloads import WorkloadVariant
from ..baselines.memmap import memmap_config
from ..config import MachineConfig
from ..cpu.program import Program
from ..errors import ExperimentError
from ..faults import FaultPlan
from ..kernel.porsche import KernelStats, Porsche
from ..machine import Machine, spec_from_dict, spec_to_dict
from ..plans import PLANS, encode_plans
from ..prefetch import PrefetchPlan
from ..synth.plan import SynthesisPlan
from .scaling import DEFAULT_SCALE, scaled_config

#: Supported architecture baselines.
ARCHITECTURES = ("proteus", "prisc", "memmap")


@dataclass(frozen=True)
class ExperimentSpec:
    """One point of an evaluation figure."""

    workload: str
    instances: int
    quantum_ms: float = 10.0
    policy: str = "round_robin"
    #: When True the CIS defers to software alternatives instead of
    #: swapping circuits while the array is full (Figure 3's "Soft").
    soft: bool = False
    #: Architecture under test: the Proteus design or a baseline.
    architecture: str = "proteus"
    variant: WorkloadVariant = WorkloadVariant.ACCELERATED
    register_soft: bool = True
    scale: float = DEFAULT_SCALE
    #: Explicit per-instance item count; defaults to the workload's
    #: paper-scale count shrunk by ``scale``.
    items: int | None = None
    #: ``None`` selects the defaults (``MachineConfig.seed`` for the
    #: machine, 0 for program data and the policy); an explicit value —
    #: including 0 — is honoured everywhere.
    seed: int | None = None
    pfu_count: int = 4
    tlb_entries: int = 16
    promote_on_free: bool = False
    allow_sharing: bool = False
    #: Fault-injection scenario for dependability campaigns (see
    #: :mod:`repro.faults`); ``None`` disables injection entirely.
    fault_plan: FaultPlan | None = None
    #: Custom-instruction synthesis plan (see :mod:`repro.synth`);
    #: ``None`` disables the synthesiser entirely.
    synthesis: SynthesisPlan | None = None
    #: Speculative configuration prefetch plan (see
    #: :mod:`repro.prefetch`); ``None`` disables prediction entirely.
    prefetch: PrefetchPlan | None = None

    def __post_init__(self) -> None:
        if self.instances < 1:
            raise ExperimentError("instances must be >= 1")
        if self.architecture not in ARCHITECTURES:
            raise ExperimentError(
                f"unknown architecture {self.architecture!r}; "
                f"choose from {ARCHITECTURES}"
            )

    def resolve_items(self) -> int:
        if self.items is not None:
            return self.items
        return get_workload(self.workload).items_for_scale(self.scale)

    @property
    def data_seed(self) -> int:
        """Seed for program data and the replacement policy."""
        return 0 if self.seed is None else self.seed

    def spec_key(self) -> str:
        """Stable content hash identifying this experiment point.

        Covers every spec field *and* the fully-resolved
        :class:`~repro.config.MachineConfig` it builds (so a change to
        the scale model invalidates cached results even when the spec
        fields themselves are unchanged).  The key is independent of
        process, platform, and ``PYTHONHASHSEED`` — safe to use as an
        on-disk cache key.  Disabled plans are absent from the payload
        (see :mod:`repro.plans`), so keys predating a plan stay valid.
        """
        payload = spec_to_dict(self)
        payload["items"] = self.resolve_items()
        payload["config"] = encode_plans(self.build_config())
        # The execution tier changes how fast the simulator runs, never
        # what it computes — all tiers are bit-identical — so cached
        # results and warm-start checkpoints are shared across tiers.
        payload["config"].pop("exec_tier", None)
        blob = json.dumps(payload, sort_keys=True, default=repr)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def build_config(self) -> MachineConfig:
        config = scaled_config(
            self.scale,
            quantum_ms=self.quantum_ms,
            pfu_count=self.pfu_count,
            tlb_entries=self.tlb_entries,
            prefer_software_when_full=self.soft,
            promote_on_free=self.promote_on_free,
            allow_sharing=self.allow_sharing,
            # None is the sentinel for "use the default machine seed";
            # an explicit 0 is a real seed and must not be replaced.
            seed=MachineConfig.seed if self.seed is None else self.seed,
            **{name: getattr(self, name) for name in PLANS},
        )
        if self.architecture == "memmap":
            config = memmap_config(config)
        return config


@dataclass
class RunOutcome:
    """Everything measured from one experiment run."""

    spec: ExperimentSpec
    #: Cycles until the *last* instance completed (the figures' y-axis).
    makespan: int
    #: Per-process completion cycles, in pid order.
    completions: list[int]
    verified: bool
    kernel_stats: KernelStats
    #: CIS counters snapshot (loads, evictions, soft deferrals, ...).
    cis: dict[str, int] = field(default_factory=dict)
    #: Per-process (cpu_cycles, kernel_cycles).
    process_cycles: list[tuple[int, int]] = field(default_factory=list)
    #: Dependability metrics, populated only when the spec carries a
    #: fault plan (injected/detected/recovered counts, recovery latency,
    #: availability — see :meth:`repro.machine.Machine.outcome`).
    faults: dict = field(default_factory=dict)
    #: Prefetch metrics, populated only when the spec carries a prefetch
    #: plan (issued/hit/wasted/cancelled counts, accuracy, coverage,
    #: overlap cycles — see :meth:`repro.machine.Machine.outcome`).
    prefetch: dict = field(default_factory=dict)

    @property
    def mean_completion(self) -> float:
        return sum(self.completions) / len(self.completions)


def outcome_to_dict(outcome: RunOutcome) -> dict:
    """A :class:`RunOutcome` as a JSON-serialisable document.

    The wire format of the serve protocol: everything a client needs to
    rebuild the exact outcome object — specs round-trip through the
    machine-checkpoint spec codec, stat bags through their dataclass
    fields.  ``outcome_from_dict(outcome_to_dict(o)) == o``.
    """
    payload = {
        "spec": spec_to_dict(outcome.spec),
        "makespan": outcome.makespan,
        "completions": list(outcome.completions),
        "verified": outcome.verified,
        "kernel_stats": asdict(outcome.kernel_stats),
        "cis": dict(outcome.cis),
        "process_cycles": [list(pair) for pair in outcome.process_cycles],
        "faults": outcome.faults,
    }
    if outcome.prefetch:
        # Absent when prefetching is off: the wire format is byte-stable
        # for clients that predate the prefetcher.
        payload["prefetch"] = outcome.prefetch
    return payload


def outcome_from_dict(payload: dict) -> RunOutcome:
    """Inverse of :func:`outcome_to_dict` (exact, bit-identical)."""
    return RunOutcome(
        spec=spec_from_dict(payload["spec"]),
        makespan=payload["makespan"],
        completions=list(payload["completions"]),
        verified=payload["verified"],
        kernel_stats=KernelStats(**payload["kernel_stats"]),
        cis=dict(payload["cis"]),
        process_cycles=[tuple(pair) for pair in payload["process_cycles"]],
        faults=payload["faults"],
        prefetch=payload.get("prefetch", {}),
    )


@lru_cache(maxsize=64)
def _cached_program(
    workload_name: str,
    items: int,
    variant: WorkloadVariant,
    register_soft: bool,
    seed: int,
) -> Program:
    """Program images are immutable; share them across runs and instances."""
    workload = get_workload(workload_name)
    return workload.build(
        items=items, seed=seed, variant=variant, register_soft=register_soft
    )


def build_kernel(spec: ExperimentSpec) -> Porsche:
    """Construct the kernel (or baseline kernel) for a spec."""
    return Machine.from_spec(spec).kernel


def run_experiment(
    spec: ExperimentSpec,
    verify: bool = True,
    sinks: Sequence = (),
    checkpoint: dict | None = None,
) -> RunOutcome:
    """Run one experiment point to completion.

    ``sinks`` — trace event sinks (ring buffers, JSONL writers, timeline
    aggregators) attached to the machine's event bus before any process
    is spawned, so they observe the complete run.

    ``checkpoint`` — an optional :meth:`Machine.checkpoint` document for
    this same spec: the run warm-starts from it instead of cycle 0.
    Checkpoints are exact, so the outcome is bit-identical either way.
    """
    outcome, _ = run_experiment_capturing(
        spec, verify=verify, sinks=sinks, checkpoint=checkpoint, capture=False
    )
    return outcome


def run_experiment_capturing(
    spec: ExperimentSpec,
    verify: bool = True,
    sinks: Sequence = (),
    checkpoint: dict | None = None,
    capture: bool = False,
) -> tuple[RunOutcome, dict | None]:
    """Like :func:`run_experiment`, optionally capturing a checkpoint.

    With ``capture`` the machine snapshots itself at doubling quantum
    counts and the latest snapshot is returned alongside the outcome (or
    ``None`` for short runs) — the sweep runner stores it to warm-start
    later re-runs of the same point.
    """
    if checkpoint is not None and (
        spec_from_dict(checkpoint["spec"]).spec_key() != spec.spec_key()
    ):
        # A stale or foreign checkpoint never poisons a run — fall back
        # to a cold start.
        checkpoint = None
    if checkpoint is not None:
        machine = Machine.resume(checkpoint, sinks=sinks)
    else:
        machine = Machine.from_spec(spec, sinks=sinks)
        machine.spawn_instances()
    captured = None
    if capture and checkpoint is None:
        captured = machine.run_capturing()
    else:
        machine.run()
    return machine.outcome(verify=verify), captured
