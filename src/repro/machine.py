"""The machine facade: construction, lifecycle, and checkpoint/resume.

A :class:`Machine` owns one simulated ProteanARM — kernel, coprocessor,
processes, and trace counters — behind a single object with a uniform
lifecycle::

    machine = Machine.from_spec(spec)     # build
    machine.spawn_instances()             # spawn
    machine.run()                         # run
    state = machine.checkpoint()          # checkpoint (JSON-serialisable)
    other = Machine.resume(state)         # resume in any interpreter

Checkpoints build on :class:`repro.state.Snapshotable`: every stateful
component declares its state once and inherits ``snapshot()``/
``restore()``, and the facade aggregates them into one JSON document.  Immutable inputs —
program images, circuit bitstreams — are *not* serialised; they are pure
functions of the :class:`~repro.sim.experiment.ExperimentSpec`, so a
resumed machine rebuilds them deterministically and restores only the
mutable state on top.  The headline invariant: checkpoint at any quantum
boundary, restore in a fresh interpreter, run to completion — makespan,
per-process statistics, and trace counters are bit-identical to the
uninterrupted run.

Spec-less machines (:meth:`Machine.from_config`, used by the examples
and the unaccelerated baseline) drive hand-built programs the facade
cannot reconstruct, so they run and spawn normally but refuse to
checkpoint.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from typing import TYPE_CHECKING, Sequence

from .config import MachineConfig
from .cpu.program import Program
from .errors import CheckpointError
from .kernel.porsche import KernelStats, Porsche
from .kernel.process import Process, ProcessState
from .kernel.replacement import ReplacementPolicy, make_policy
from .plans import decode_plans, encode_plans
from .trace.bus import TraceBus

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from .sim.experiment import ExperimentSpec, RunOutcome

__all__ = [
    "Machine",
    "CHECKPOINT_FORMAT",
    "CHECKPOINT_VERSION",
    "decode_checkpoint",
    "spec_to_dict",
    "spec_from_dict",
]

#: Identifies a checkpoint document and guards against format drift.
CHECKPOINT_FORMAT = "repro-machine-checkpoint"
CHECKPOINT_VERSION = 1


def decode_checkpoint(data: bytes) -> dict:
    """A stored checkpoint's bytes back to its document.

    Raises ``ValueError`` for valid JSON that is not a machine
    checkpoint, so a store treats it like any other corrupt entry.
    """
    checkpoint = json.loads(data)
    if not isinstance(checkpoint, dict) or (
        checkpoint.get("format") != CHECKPOINT_FORMAT
    ):
        raise ValueError("not a machine checkpoint")
    return checkpoint


#: First quantum count at which :meth:`Machine.run_capturing` snapshots.
CAPTURE_BASE_QUANTA = 64


def spec_to_dict(spec: "ExperimentSpec") -> dict:
    """An experiment spec as JSON: the wire format checkpoints, the job
    journal and the serve protocol share.  Disabled plans are absent
    (see :mod:`repro.plans`)."""
    payload = encode_plans(spec)
    payload["variant"] = spec.variant.value
    return payload


def spec_from_dict(payload: dict) -> "ExperimentSpec":
    """Inverse of :func:`spec_to_dict` (exact)."""
    from .apps.workloads import WorkloadVariant
    from .sim.experiment import ExperimentSpec

    fields = decode_plans(payload)
    fields["variant"] = WorkloadVariant(fields["variant"])
    return ExperimentSpec(**fields)


class Machine:
    """One simulated machine: kernel + processes + lifecycle + checkpoints."""

    def __init__(
        self, kernel: Porsche, spec: "ExperimentSpec | None" = None
    ) -> None:
        self.kernel = kernel
        self.spec = spec
        self._instances_spawned = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_spec(
        cls, spec: "ExperimentSpec", sinks: Sequence = ()
    ) -> "Machine":
        """Build the machine (or baseline machine) an experiment spec names."""
        # Imported here: baselines.unaccelerated builds through this
        # facade, so a module-level import would be circular.
        from .baselines.prisc import PriscPorsche

        config = spec.build_config()
        policy = make_policy(spec.policy, seed=spec.data_seed + 0x5EED)
        if spec.architecture == "prisc":
            kernel: Porsche = PriscPorsche(config, policy)
        else:
            kernel = Porsche(config, policy)
        machine = cls(kernel, spec=spec)
        for sink in sinks:
            machine.trace.attach(sink)
        return machine

    @classmethod
    def from_config(
        cls,
        config: MachineConfig,
        policy: ReplacementPolicy | None = None,
        trace: TraceBus | None = None,
    ) -> "Machine":
        """Wrap a hand-configured machine (examples, ad-hoc programs).

        Such machines run normally but cannot checkpoint: their programs
        are not reconstructible from a spec.
        """
        return cls(Porsche(config, policy, trace))

    # ------------------------------------------------------------------
    # convenient views
    # ------------------------------------------------------------------
    @property
    def config(self) -> MachineConfig:
        return self.kernel.config

    @property
    def exec_tier(self) -> str:
        """The interpreter tier this machine executes on.

        ``"jit"`` (trace-compiled hot paths, the default), ``"block"``
        (fused superinstructions) or ``"step"`` (the reference
        interpreter).  Purely a simulator-speed choice — results,
        traces and checkpoint documents are identical across tiers.
        Set via ``MachineConfig(exec_tier=...)`` or the
        ``REPRO_EXEC_TIER`` environment variable.
        """
        return self.config.exec_tier

    @property
    def trace(self) -> TraceBus:
        return self.kernel.trace

    @property
    def clock(self) -> int:
        return self.kernel.clock

    @property
    def stats(self) -> KernelStats:
        return self.kernel.stats

    @property
    def processes(self) -> dict[int, Process]:
        return self.kernel.processes

    @property
    def finished(self) -> bool:
        return self.kernel.scheduler.runnable == 0

    # ------------------------------------------------------------------
    # lifecycle: spawn / run
    # ------------------------------------------------------------------
    def spawn(self, program: Program) -> Process:
        return self.kernel.spawn(program)

    def spawn_instances(self) -> list[Process]:
        """Spawn the spec's N workload instances (pids 1..N, in order)."""
        spec = self._require_spec("spawn_instances")
        from .sim.experiment import _cached_program

        program = _cached_program(
            spec.workload,
            spec.resolve_items(),
            spec.variant,
            spec.register_soft,
            spec.data_seed,
        )
        processes = [self.kernel.spawn(program) for _ in range(spec.instances)]
        self._instances_spawned = len(processes)
        return processes

    def run(self, max_cycles: int | None = None) -> KernelStats:
        return self.kernel.run(max_cycles)

    def run_quantum(self) -> bool:
        return self.kernel.run_quantum()

    def run_quanta(self, count: int) -> int:
        """Run up to ``count`` quanta; returns how many actually ran."""
        executed = 0
        while executed < count and self.kernel.run_quantum():
            executed += 1
        return executed

    def run_capturing(
        self, base_quanta: int = CAPTURE_BASE_QUANTA
    ) -> dict | None:
        """Run to completion, checkpointing at doubling quantum counts.

        A snapshot is taken when the quantum counter reaches
        ``base_quanta``, then ``2 * base_quanta``, and so on; only the
        latest is kept.  The capture cost is O(log quanta) snapshots, and
        the surviving checkpoint always lies in the second half of the
        run — which is what makes warm-starting a re-run worthwhile.
        Returns the final checkpoint, or ``None`` for short runs.
        """
        self._require_spec("run_capturing")
        captured: dict | None = None
        mark = base_quanta
        while self.kernel.run_quantum():
            if self.kernel.stats.quanta >= mark:
                captured = self.checkpoint()
                while mark <= self.kernel.stats.quanta:
                    mark *= 2
        return captured

    # ------------------------------------------------------------------
    # checkpoint / resume
    # ------------------------------------------------------------------
    def checkpoint(self) -> dict:
        """Whole-machine state as a JSON-serialisable document.

        Valid only at a quantum boundary (between ``run_quantum`` calls),
        which is the only time the facade hands control back anyway.
        """
        spec = self._require_spec("checkpoint")
        if self._instances_spawned != spec.instances:
            raise CheckpointError(
                "checkpoint before spawn_instances(); a resumed machine "
                "could not rebuild the process table"
            )
        return {
            "format": CHECKPOINT_FORMAT,
            "version": CHECKPOINT_VERSION,
            "spec": spec_to_dict(spec),
            "clock": self.kernel.clock,
            "quanta": self.kernel.stats.quanta,
            "kernel": self.kernel.snapshot(),
        }

    def save_checkpoint(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.checkpoint(), handle)

    @classmethod
    def resume(cls, checkpoint: dict, sinks: Sequence = ()) -> "Machine":
        """Rebuild a machine from a checkpoint document.

        Construction mirrors :meth:`from_spec` + :meth:`spawn_instances`
        exactly — same programs, same pids — then every component's
        mutable state is restored in place.
        """
        if checkpoint.get("format") != CHECKPOINT_FORMAT:
            raise CheckpointError("not a repro machine checkpoint")
        if checkpoint.get("version") != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"checkpoint version {checkpoint.get('version')!r} not "
                f"supported (expected {CHECKPOINT_VERSION})"
            )
        spec = spec_from_dict(checkpoint["spec"])
        machine = cls.from_spec(spec, sinks=sinks)
        machine.spawn_instances()
        machine.kernel.restore(checkpoint["kernel"])
        return machine

    @classmethod
    def load_checkpoint(cls, path, sinks: Sequence = ()) -> "Machine":
        with open(path, "r", encoding="utf-8") as handle:
            checkpoint = json.load(handle)
        return cls.resume(checkpoint, sinks=sinks)

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def outcome(self, verify: bool = True) -> "RunOutcome":
        """Package a completed run as a :class:`RunOutcome`.

        Without a fault plan, a killed process or a wrong output is an
        :class:`~repro.errors.ExperimentError` — the experiment itself is
        broken.  Under injection those are *measurements*: the run is
        tolerated and the casualties are counted into the outcome's
        ``faults`` dict alongside the injection/recovery counters.
        """
        spec = self._require_spec("outcome")
        from .apps.registry import get_workload
        from .errors import ExperimentError
        from .sim.experiment import RunOutcome

        tolerate = spec.fault_plan is not None
        processes = [
            self.kernel.processes[pid]
            for pid in sorted(self.kernel.processes)
        ]
        completions = []
        killed = 0
        for process in processes:
            if process.state is not ProcessState.EXITED:
                if not tolerate:
                    raise ExperimentError(
                        f"{spec.workload} instance pid={process.pid} ended "
                        f"{process.state.value}: {process.kill_reason}"
                    )
                killed += 1
            assert process.completion_cycle is not None
            completions.append(process.completion_cycle)

        workload = get_workload(spec.workload)
        verified = True
        wrong_outputs = 0
        if verify:
            expected = workload.expected(
                spec.resolve_items(), seed=spec.data_seed
            )
            for process in processes:
                if process.state is not ProcessState.EXITED:
                    verified = False
                    continue
                if not process.result_matches(workload.result_name, expected):
                    verified = False
                    if not tolerate:
                        raise ExperimentError(
                            f"{spec.workload} pid={process.pid} produced "
                            "wrong output"
                        )
                    wrong_outputs += 1

        faults: dict = {}
        if tolerate:
            faults = self._fault_metrics(
                makespan=max(completions),
                killed=killed,
                wrong_outputs=wrong_outputs,
            )
        prefetch: dict = {}
        if spec.prefetch is not None:
            prefetch = self._prefetch_metrics()

        return RunOutcome(
            spec=spec,
            makespan=max(completions),
            completions=completions,
            verified=verified,
            kernel_stats=self.kernel.stats,
            cis=asdict(self.kernel.cis.stats),
            process_cycles=[
                (p.stats.cpu_cycles, p.stats.kernel_cycles)
                for p in processes
            ],
            faults=faults,
            prefetch=prefetch,
        )

    def _prefetch_metrics(self) -> dict:
        """Speculative-prefetch effectiveness for a run with a plan."""
        stats = self.trace.counters.prefetch
        loads = self.kernel.cis.stats.loads
        return {
            "issued": stats.issued,
            "hits": stats.hits,
            "wasted": stats.wasted,
            "cancelled": dict(sorted(stats.cancelled.items())),
            "overlap_cycles": stats.overlap_cycles,
            # Of the predictions acted on, how many were used.
            "accuracy_pct": stats.accuracy_pct,
            # Of all circuit loads, how many were serviced speculatively.
            "coverage_pct": (100 * stats.hits // loads) if loads else 0,
        }

    def _fault_metrics(
        self, makespan: int, killed: int, wrong_outputs: int
    ) -> dict:
        """Dependability metrics for a run under fault injection."""
        stats = self.trace.counters.faults
        injector = self.kernel.injector
        recovered = sum(stats.recovered.values())
        return {
            "injected": dict(sorted(stats.injected.items())),
            "detected": dict(sorted(stats.detected.items())),
            "recovered": dict(sorted(stats.recovered.items())),
            "quarantined": stats.quarantined,
            "recovery_cycles": stats.recovery_cycles,
            "mean_recovery_latency": (
                round(stats.recovery_cycles / recovered, 3)
                if recovered
                else 0.0
            ),
            "silent_corruptions": (
                injector.silent_corruptions if injector is not None else 0
            ),
            "state_corruptions": (
                injector.state_corruptions if injector is not None else 0
            ),
            "killed": killed,
            "wrong_outputs": wrong_outputs,
            # Fraction of the run the fabric was serviceable: recovery
            # latency is time the kernel spent repairing instead of
            # making progress.
            "availability": (
                round(1.0 - stats.recovery_cycles / makespan, 9)
                if makespan
                else 1.0
            ),
        }

    # ------------------------------------------------------------------
    def _require_spec(self, operation: str) -> "ExperimentSpec":
        if self.spec is None:
            raise CheckpointError(
                f"{operation} requires a spec-backed machine "
                "(built with Machine.from_spec)"
            )
        return self.spec
