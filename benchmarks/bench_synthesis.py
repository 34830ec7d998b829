"""Profiler-driven synthesis — the §6 "final system" sweep.

Runs the circuit-free hash workload with the custom-instruction
synthesiser off and on, and checks the reproduction targets:

* with synthesis enabled the OS mines the hot mixing window, builds a
  circuit from the FU element library, and registers it through the
  normal CIS machinery (at least one adoption per run);
* the adopted custom instruction beats the pure-software baseline on
  makespan wherever the array has room — everywhere at 10 ms, and up
  to four instances (the PFU count) at 1 ms;
* past the knee at 1 ms the five-plus synthesised circuits thrash the
  four PFUs and *lose* to the baseline — the same contention knee as
  Figure 2, now induced by circuits the OS grew itself;
* outputs still verify against the reference model.
"""

from conftest import BENCH_SCALE, SWEEP_INSTANCES, emit

from repro.sim.experiment import ExperimentSpec, run_experiment
from repro.sim.figures import plan_sweep
from repro.sim.report import render_figure, render_table
from repro.synth.plan import SynthesisPlan


def _regenerate(runner=None):
    return plan_sweep(
        "synthesis",
        SynthesisPlan(),
        ("hash",),
        scale=BENCH_SCALE,
        instances=SWEEP_INSTANCES,
        runner=runner,
    )


def test_synthesis_sweep(once, sweep_runner):
    figure = once(_regenerate, runner=sweep_runner)
    assert len(figure.series) == 4  # {baseline, synthesis} x {10ms, 1ms}
    emit("synthesis", render_table(figure) + "\n\n" + render_figure(figure))
    for quantum in ("10ms", "1ms"):
        base = figure.series_by_label(f"Hash, Baseline, {quantum}")
        synth = figure.series_by_label(f"Hash, Synthesis, {quantum}")
        for before, after in zip(base.points, synth.points):
            if quantum == "10ms" or before.x <= 4:
                # Room in the array (or a quantum long enough to
                # amortise reloads): the mined circuit wins.
                assert after.y < before.y, (quantum, before.x, before.y, after.y)
            else:
                # Five-plus circuits on four PFUs at 1 ms: reload
                # thrash — the Figure 2 knee, self-inflicted.
                assert after.y > before.y, (quantum, before.x, before.y, after.y)
    once.benchmark.extra_info["speedup"] = {
        quantum: round(
            figure.series_by_label(f"Hash, Baseline, {quantum}").y_at(1)
            / figure.series_by_label(f"Hash, Synthesis, {quantum}").y_at(1),
            3,
        )
        for quantum in ("10ms", "1ms")
    }


def test_synthesis_adopts(benchmark):
    """One instrumented point: the CIS registers the mined circuit and
    the output still matches the reference model."""
    spec = ExperimentSpec(
        workload="hash",
        instances=2,
        scale=BENCH_SCALE,
        synthesis=SynthesisPlan(),
    )
    outcome = benchmark.pedantic(
        run_experiment,
        args=(spec,),
        kwargs={"verify": True},
        rounds=1,
        iterations=1,
    )
    assert outcome.cis["registrations"] >= 1
    assert outcome.verified
