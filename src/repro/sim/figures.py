"""Regeneration of the paper's figures and headline comparisons.

Each function sweeps the same axes as the corresponding figure in §5.1
and returns a :class:`~repro.sim.series.FigureData`.  Absolute cycle
counts differ from the paper (scaled platform, synthetic data); the
*shapes* — where contention knees fall, which policy wins, how quantum
size matters — are the reproduction targets recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import Callable

from ..apps.registry import get_workload
from ..apps.workloads import WorkloadVariant
from ..plans import PLANS
from .experiment import ExperimentSpec
from .runner import SweepRunner
from .scaling import DEFAULT_SCALE
from .series import FigureData, Series

#: Paper legend naming.
_POLICY_LABEL = {"round_robin": "Round Robin", "random": "Random",
                 "lru": "LRU", "second_chance": "Second Chance"}


def _label(workload: str, policy_text: str, quantum_ms: float) -> str:
    quantum = f"{quantum_ms:g}ms"
    return f"{workload.capitalize()}, {policy_text}, {quantum}"


#: Axes of every contention figure: completion over concurrency.
_CONTENTION_AXES = dict(
    xlabel="No. concurrent process instances",
    ylabel="Completion time in clock cycles",
)

ProgressFn = Callable[[str, int, int], None]


def _points(
    label: str, instances: Iterable[int], **fields
) -> list[tuple[str, ExperimentSpec]]:
    """One labelled spec per instance count, every other field equal."""
    return [(label, ExperimentSpec(instances=n, **fields)) for n in instances]


def _adapt_progress(
    progress: ProgressFn | None, labels: list[str]
):
    """Bridge the runner's index-based progress to the label-based
    :data:`ProgressFn` the CLI renders, flagging cache hits."""
    if progress is None:
        return None

    def on_point(done: int, total: int, index: int, cached: bool) -> None:
        mark = " [cache]" if cached else ""
        progress(labels[index] + mark, done, total)

    return on_point


def _sweep(
    figure: FigureData,
    specs: list[tuple[str, ExperimentSpec]],
    verify: bool,
    progress: ProgressFn | None,
    runner: SweepRunner | None = None,
) -> FigureData:
    runner = runner if runner is not None else SweepRunner()
    labels = [label for label, _ in specs]
    outcomes = runner.run(
        [spec for _, spec in specs],
        verify=verify,
        progress=_adapt_progress(progress, labels),
    )
    by_label: dict[str, Series] = {}
    for (label, spec), outcome in zip(specs, outcomes):
        series = by_label.get(label)
        if series is None:
            series = Series(label=label)
            by_label[label] = series
            figure.series.append(series)
        series.add(
            spec.instances,
            outcome.makespan,
            loads=outcome.cis["loads"],
            evictions=outcome.cis["evictions"],
            mapping_faults=outcome.cis["mapping_faults"],
            soft_deferrals=outcome.cis["soft_deferrals"],
            context_switches=outcome.kernel_stats.context_switches,
        )
    return figure


def figure2(
    scale: float = DEFAULT_SCALE,
    instances: Iterable[int] = range(1, 9),
    workloads: Sequence[str] = ("echo", "alpha", "twofish"),
    quanta: Sequence[float] = (10.0, 1.0),
    policies: Sequence[str] = ("round_robin", "random"),
    seed: int | None = None,
    verify: bool = False,
    progress: ProgressFn | None = None,
    runner: SweepRunner | None = None,
) -> FigureData:
    """Figure 2 — the basic scheduling (circuit switching) test.

    Every run swaps circuits under contention (no software dispatch);
    the axes are exactly the paper's: 1-8 concurrent instances of each
    workload under two replacement policies and two quanta.
    """
    figure = FigureData(name="figure2", title="Basic Scheduling Test",
                        **_CONTENTION_AXES)
    specs = []
    for workload in workloads:
        for policy in policies:
            for quantum_ms in quanta:
                label = _label(workload, _POLICY_LABEL[policy], quantum_ms)
                specs += _points(
                    label, instances, workload=workload,
                    quantum_ms=quantum_ms, policy=policy, soft=False,
                    scale=scale, seed=seed,
                )
    return _sweep(figure, specs, verify, progress, runner)


def figure3(
    scale: float = DEFAULT_SCALE,
    instances: Iterable[int] = range(1, 9),
    workloads: Sequence[str] = ("echo", "alpha"),
    quanta: Sequence[float] = (10.0, 1.0),
    seed: int | None = None,
    verify: bool = False,
    progress: ProgressFn | None = None,
    runner: SweepRunner | None = None,
) -> FigureData:
    """Figure 3 — the software dispatch test.

    Circuit-switching (round robin) runs against runs where the CIS
    defers to the registered software alternative when the array is
    full.  The paper plots echo and alpha (twofish tracks alpha).
    """
    figure = FigureData(name="figure3", title="Software Dispatch Test",
                        **_CONTENTION_AXES)
    specs = []
    for workload in workloads:
        for quantum_ms in quanta:
            for soft in (False, True):
                policy_text = "Soft" if soft else "Round Robin"
                label = _label(workload, policy_text, quantum_ms)
                specs += _points(
                    label, instances, workload=workload,
                    quantum_ms=quantum_ms, policy="round_robin", soft=soft,
                    scale=scale, seed=seed,
                )
    return _sweep(figure, specs, verify, progress, runner)


def speedup_table(
    scale: float = DEFAULT_SCALE,
    workloads: Sequence[str] = ("echo", "alpha", "twofish"),
    seed: int | None = None,
    verify: bool = False,
    progress: ProgressFn | None = None,
    runner: SweepRunner | None = None,
) -> FigureData:
    """§5.1.1's claim: accelerated runs beat unaccelerated by ~10x.

    A "figure" with two one-point series per workload (accelerated and
    software completion cycles for a single instance).
    """
    figure = FigureData(
        name="speedup",
        title="Accelerated vs. unaccelerated (single instance)",
        xlabel="variant (1 = accelerated, 2 = software)",
        ylabel="Completion time in clock cycles",
    )
    variants = (WorkloadVariant.ACCELERATED, WorkloadVariant.SOFTWARE)
    specs = []
    labels = []
    for workload_name in workloads:
        for variant in variants:
            labels.append(f"{workload_name} ({variant.value})")
            specs.append(
                ExperimentSpec(
                    workload=workload_name,
                    instances=1,
                    variant=variant,
                    register_soft=variant is WorkloadVariant.ACCELERATED,
                    scale=scale,
                    seed=seed,
                )
            )
    runner = runner if runner is not None else SweepRunner()
    outcomes = runner.run(
        specs, verify=verify, progress=_adapt_progress(progress, labels)
    )
    for slot, workload_name in enumerate(workloads):
        series = Series(label=workload_name)
        cycles = {}
        for position, variant in enumerate(variants, start=1):
            outcome = outcomes[slot * len(variants) + position - 1]
            cycles[variant] = outcome.makespan
            series.add(position, outcome.makespan, variant=variant.value)
        factor = cycles[WorkloadVariant.SOFTWARE] / cycles[
            WorkloadVariant.ACCELERATED
        ]
        series.points[-1].detail["speedup"] = round(factor, 2)
        figure.series.append(series)
    return figure


def plan_sweep(
    field: str,
    plan,
    workloads: Sequence[str],
    scale: float = DEFAULT_SCALE,
    instances: Iterable[int] = range(1, 9),
    quanta: Sequence[float] = (10.0, 1.0),
    seed: int | None = None,
    verify: bool = False,
    progress: ProgressFn | None = None,
    runner: SweepRunner | None = None,
) -> FigureData:
    """An optional feature plan off vs. on, on Figure 2's axes.

    ``field`` names a :data:`repro.plans.PLANS` entry.  The baseline
    series run the workloads as shipped; the plan series run the same
    images with ``plan`` set, so the only difference is the feature —
    e.g. the §6 "final system" sweep (``"synthesis"`` on the
    circuit-free hash workload) or the speculative-prefetch sweep
    (``"prefetch"`` on the phase-changing and bursty workloads).
    Series labels, figure name and title come from the registry entry.
    """
    entry = PLANS[field]
    figure = FigureData(name=entry.figure, title=entry.title,
                        **_CONTENTION_AXES)
    specs = []
    for workload in workloads:
        for mode_text, value in (("Baseline", None), (entry.label, plan)):
            for quantum_ms in quanta:
                label = _label(workload, mode_text, quantum_ms)
                specs += _points(
                    label, instances, workload=workload,
                    quantum_ms=quantum_ms, policy="round_robin", soft=False,
                    scale=scale, seed=seed, **{field: value},
                )
    return _sweep(figure, specs, verify, progress, runner)


def contention_knees(figure: FigureData) -> dict[str, int | None]:
    """Extract the contention knee per series (paper: 2 for echo, 4 for
    the single-circuit workloads)."""
    return {series.label: series.knee() for series in figure.series}
