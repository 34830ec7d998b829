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
"""

from .scaling import DEFAULT_SCALE, scaled_config
from .experiment import ExperimentSpec, RunOutcome, run_experiment
from .jobs import Job, JobQueue, JobState, Scheduler
from .journal import Journal, RecoveredJob, recovered_jobs
from .runner import (
    CheckpointStore,
    ResultCache,
    SweepRunner,
    default_cache_dir,
)
from .series import FigureData, Series, SeriesPoint
from .figures import figure2, figure3, speedup_table
from .report import render_figure, render_table

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
