"""The public API surface: what ``import repro`` promises."""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro
import repro.sim


class TestExports:
    def test_version(self):
        assert repro.__version__

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None, name

    def test_headline_types(self):
        assert repro.MachineConfig is not None
        assert repro.Porsche is not None
        assert callable(repro.get_workload)
        assert callable(repro.figure2)
        assert callable(repro.run_experiment)

    def test_quickstart_snippet_from_the_readme(self):
        """The README's quickstart must keep working verbatim."""
        kernel = repro.Porsche(repro.MachineConfig(cycles_per_ms=1000))
        program = repro.get_workload("alpha").build(items=16)
        process = kernel.spawn(program)
        kernel.run()
        assert process.completion_cycle is not None
        assert process.read_result("dst") == repro.get_workload(
            "alpha"
        ).expected(16)


class TestModuleEntryPoint:
    def test_python_dash_m_repro(self):
        result = subprocess.run(
            [
                sys.executable, "-m", "repro",
                "run", "alpha", "1",
                "--scale", "0.000125",
                "--quiet",
            ],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0
        assert "makespan" in result.stdout

    def test_help(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro", "--help"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0
        assert "fig2" in result.stdout and "fig3" in result.stdout


#: ``repro.sim.__all__`` before the service layer loaded on first use.
SIM_NAMES = (
    "DEFAULT_SCALE", "scaled_config", "ExperimentSpec", "RunOutcome",
    "run_experiment", "Job", "JobQueue", "JobState", "Scheduler", "Journal",
    "RecoveredJob", "recovered_jobs", "CheckpointStore", "ResultCache",
    "SweepRunner", "default_cache_dir", "FigureData", "Series",
    "SeriesPoint", "figure2", "figure3", "speedup_table", "render_figure",
    "render_table",
)

#: The service layer: loaded by the code that uses it, never by a run.
SERVICE = ("repro.sim.jobs", "repro.sim.runner", "repro.sim.store",
           "repro.sim.journal")

#: Prints ``sys.modules`` after ``import repro``, after an alpha x2 run
#: and after a ``Scheduler(workers=0)`` job of the same point.
IMPORT_PROBE = """
import json, sys
import repro
seen = [sorted(sys.modules)]
from repro.sim import ExperimentSpec, run_experiment
spec = ExperimentSpec(workload="alpha", instances=2, quantum_ms=1.0,
                      scale=1 / 8000)
run_experiment(spec, verify=True)
seen.append(sorted(sys.modules))
from repro.sim.jobs import Scheduler
scheduler = Scheduler(workers=0)
try:
    scheduler.submit(spec, verify=True).result()
finally:
    scheduler.shutdown()
seen.append(sorted(sys.modules))
print(json.dumps(seen))
"""


def _modules(code: str) -> list:
    """``code``'s JSON output, run in a fresh interpreter (pytest itself
    has loaded multiprocessing)."""
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=120, env={**os.environ, "PYTHONPATH": path}, check=True,
    )
    return json.loads(result.stdout)


def _pool_modules(modules) -> set:
    return {name for name in modules
            if name.partition(".")[0] == "multiprocessing"
            or name.startswith("concurrent.futures")}


class TestImportSurface:
    """``import repro`` loads the simulator; the service layer and the
    worker pool load on first use."""

    def test_old_sim_names_resolve(self):
        for name in SIM_NAMES:
            assert getattr(repro.sim, name) is not None, name
        assert set(SIM_NAMES) <= set(repro.sim.__all__)

    def test_simulation_loads_no_service_layer_or_pool(self):
        baseline = _pool_modules(_modules(
            "import json, sys; print(json.dumps(sorted(sys.modules)))"
        ))
        imported, ran, scheduled = _modules(IMPORT_PROBE)
        for stage, modules in (("import", imported), ("run", ran)):
            loaded = set(modules)
            assert not loaded & set(SERVICE), (stage, loaded & set(SERVICE))
            assert _pool_modules(modules) <= baseline, stage
        assert "repro.sim.jobs" in scheduled
        assert _pool_modules(scheduled) <= baseline


class TestErrorHierarchy:
    def test_all_library_errors_share_a_base(self):
        from repro import errors

        for name in dir(errors):
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception):
                assert issubclass(obj, errors.ReproError), name

    def test_cpu_events_are_not_errors(self):
        """Traps are control flow, not failures."""
        from repro.cpu.exceptions import CPUEvent
        from repro.errors import ReproError

        assert not issubclass(CPUEvent, ReproError)
