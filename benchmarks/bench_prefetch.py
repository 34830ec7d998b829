"""Speculative configuration prefetch — the contention-sweep evaluation.

Runs the phase-changing and bursty workloads with the predictive CIS
off and on, and checks the reproduction targets:

* with room in the array (1-2 instances, 4 circuits on 4 PFUs) the
  makespans are *identical* — speculation only ever spends idle bus
  cycles, so an uncontended machine cannot get slower;
* at the contention knee (5 instances, 1 ms quantum: ten circuits
  thrashing four PFUs every quantum) the transition model's predictions
  and the transfer engine's idle-bus streaming buy a measurable
  makespan reduction (>= 20% on both workloads at this scale);
* outputs still verify against the reference models.
"""

from conftest import BENCH_SCALE, SWEEP_INSTANCES, emit

from repro.prefetch import PrefetchPlan
from repro.sim.experiment import ExperimentSpec, run_experiment
from repro.sim.figures import plan_sweep
from repro.sim.report import render_figure, render_table

#: The fig2-style knee point: five instances on a four-PFU array.
KNEE = 5


def _regenerate(runner=None):
    return plan_sweep(
        "prefetch",
        PrefetchPlan(),
        ("phases", "burst"),
        scale=BENCH_SCALE,
        instances=SWEEP_INSTANCES,
        runner=runner,
    )


def test_prefetch_sweep(once, sweep_runner):
    figure = once(_regenerate, runner=sweep_runner)
    # {phases, burst} x {Baseline, Prefetch} x {10ms, 1ms}
    assert len(figure.series) == 8
    emit("prefetch", render_table(figure) + "\n\n" + render_figure(figure))
    speedups = {}
    for workload in ("Phases", "Burst"):
        for quantum in ("10ms", "1ms"):
            base = figure.series_by_label(f"{workload}, Baseline, {quantum}")
            on = figure.series_by_label(f"{workload}, Prefetch, {quantum}")
            for before, after in zip(base.points, on.points):
                if before.x <= 2:
                    # Every circuit fits: nothing to predict, nothing
                    # to pay — the cycle counts must be identical.
                    assert after.y == before.y, (workload, quantum, before.x)
            knee_factor = base.y_at(KNEE) / on.y_at(KNEE)
            speedups[f"{workload.lower()}_{quantum}"] = round(knee_factor, 3)
            if quantum == "1ms":
                # The headline: hidden transfers at the knee.
                assert knee_factor >= 1.2, (workload, knee_factor)
    once.benchmark.extra_info["knee_speedup"] = speedups


def test_prefetch_hides_transfers(benchmark):
    """One instrumented knee point: the engine issues, hits, and hides
    demand cycles, and the output still matches the reference model."""
    spec = ExperimentSpec(
        workload="phases",
        instances=KNEE,
        quantum_ms=1.0,
        scale=BENCH_SCALE,
        prefetch=PrefetchPlan(),
    )
    outcome = benchmark.pedantic(
        run_experiment,
        args=(spec,),
        kwargs={"verify": True},
        rounds=1,
        iterations=1,
    )
    assert outcome.verified
    assert outcome.prefetch["issued"] > 0
    assert outcome.prefetch["hits"] > 0
    assert outcome.prefetch["overlap_cycles"] > 0
    benchmark.extra_info["prefetch"] = outcome.prefetch
