"""Experiment harness: scaled configurations, runs, figures, reports.

This package regenerates the paper's evaluation:

* :func:`~repro.sim.figures.figure2` — the basic scheduling test
  (Figure 2): three workloads x {round-robin, random} replacement x
  {10 ms, 1 ms} quanta x 1-8 concurrent instances;
* :func:`~repro.sim.figures.figure3` — the software dispatch test
  (Figure 3): circuit switching vs. deferring to software alternatives;
* :func:`~repro.sim.figures.speedup_table` — the "order of magnitude
  faster than unaccelerated" comparison of §5.1.1;

plus the ablations listed in DESIGN.md.  ``python -m repro --help``
exposes all of them from the command line.

Importing this package loads what a simulation uses (scaling, the
experiment runner, figures and series) and nothing more.  The service
layer — the job scheduler and its worker pool (:mod:`.jobs`), the sweep
runner and stores (:mod:`.runner`, :mod:`.store`), the daemon journal
(:mod:`.journal`) — and the text renderers (:mod:`.report`) are loaded
on first use: their names below resolve through the module
``__getattr__``.  No simulator module is deferred here: a run would
only pay the import inside its own timing.
"""

from importlib import import_module

from .scaling import DEFAULT_SCALE, scaled_config
from .experiment import ExperimentSpec, RunOutcome, run_experiment
from .series import FigureData, Series, SeriesPoint
from .figures import figure2, figure3, speedup_table

#: Names served on first use, by the submodule that defines them.
_DEFERRED = {
    "Job": "jobs", "JobQueue": "jobs", "JobState": "jobs", "Scheduler": "jobs",
    "Journal": "journal", "RecoveredJob": "journal",
    "recovered_jobs": "journal",
    "CheckpointStore": "runner", "ResultCache": "runner",
    "SweepRunner": "runner",
    "default_cache_dir": "store",
    "render_figure": "report", "render_table": "report",
}


def __getattr__(name: str):
    module = _DEFERRED.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


__all__ = [
    "DEFAULT_SCALE",
    "scaled_config",
    "ExperimentSpec",
    "RunOutcome",
    "run_experiment",
    "Job",
    "JobQueue",
    "JobState",
    "Scheduler",
    "Journal",
    "RecoveredJob",
    "recovered_jobs",
    "CheckpointStore",
    "ResultCache",
    "SweepRunner",
    "default_cache_dir",
    "FigureData",
    "Series",
    "SeriesPoint",
    "figure2",
    "figure3",
    "speedup_table",
    "render_figure",
    "render_table",
]
