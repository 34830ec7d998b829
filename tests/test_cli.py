"""Command-line interface smoke tests."""

import pytest

from repro.sim.cli import main
from repro.sim.experiment import ExperimentSpec
from repro.sim.jobs import Scheduler
from repro.sim.journal import Journal
from repro.sim.runner import ResultCache, default_cache_dir

SCALE = "0.000125"  # 1/8000


class TestRunCommand:
    def test_single_point(self, capsys):
        code = main(
            [
                "run", "alpha", "2",
                "--scale", SCALE,
                "--quantum-ms", "1.0",
                "--quiet",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "makespan" in out
        assert "alpha x2" in out

    def test_soft_flag(self, capsys):
        main(["run", "alpha", "5", "--scale", SCALE, "--soft", "--quiet"])
        out = capsys.readouterr().out
        assert "soft_deferrals" in out

    def test_prisc_architecture(self, capsys):
        code = main(
            [
                "run", "alpha", "2",
                "--scale", SCALE,
                "--architecture", "prisc",
                "--quiet",
            ]
        )
        assert code == 0

    def test_policy_choices_enforced(self):
        with pytest.raises(SystemExit):
            main(["run", "alpha", "1", "--policy", "psychic"])


class TestFigureCommands:
    def test_fig3_tiny(self, capsys, tmp_path):
        csv_path = tmp_path / "fig3.csv"
        code = main(
            [
                "fig3",
                "--scale", SCALE,
                "--max-instances", "2",
                "--quiet",
                "--csv", str(csv_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Software Dispatch Test" in out
        assert "Contention knees" in out
        content = csv_path.read_text()
        assert content.splitlines()[0].startswith("series,x,y")

    def test_speedup(self, capsys):
        code = main(["speedup", "--scale", SCALE, "--quiet"])
        assert code == 0
        out = capsys.readouterr().out
        assert "twofish" in out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestPrefetchCommand:
    def test_single_point(self, capsys):
        code = main(
            [
                "prefetch", "echo", "--instances", "3",
                "--scale", SCALE, "--quiet", "--no-cache",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "baseline" in out
        assert "prefetch" in out
        assert "accuracy" in out

    def test_sweep_tiny(self, capsys, tmp_path):
        csv_path = tmp_path / "prefetch.csv"
        code = main(
            [
                "prefetch", "phases", "--sweep",
                "--scale", SCALE, "--max-instances", "2",
                "--quiet", "--csv", str(csv_path), "--no-daemon",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Speculative Configuration Prefetch Test" in out
        content = csv_path.read_text()
        assert "Prefetch" in content and "Baseline" in content

    def test_knob_validation(self):
        with pytest.raises(SystemExit):
            main(["prefetch", "--min-confidence", "not-a-number"])


class TestTraceCommand:
    def test_prefetch_flag_adds_section(self, capsys):
        code = main(
            [
                "trace", "echo", "3",
                "--scale", SCALE, "--quantum-ms", "1.0", "--events", "0",
                "--prefetch", "--quiet",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Speculative prefetch" in out
        assert "accuracy" in out

    def test_no_prefetch_no_section(self, capsys):
        code = main(
            [
                "trace", "echo", "3",
                "--scale", SCALE, "--events", "0", "--quiet",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Speculative prefetch" not in out


class TestCacheCommand:
    def _populate(self):
        """One executed point -> one result object + one tenant ref."""
        code = main(
            [
                "run", "alpha", "1",
                "--scale", SCALE,
                "--quantum-ms", "1.0",
                "--quiet",
            ]
        )
        assert code == 0
        # `run` bypasses the sweep cache; seed it through a tiny sweep.
        code = main(
            [
                "fig2", "--scale", SCALE, "--max-instances", "1",
                "--quiet", "--no-daemon",
            ]
        )
        assert code == 0

    def test_stats_empty(self, capsys):
        code = main(["cache", "stats"])
        assert code == 0
        out = capsys.readouterr().out
        assert "results       : 0 entries" in out
        assert "checkpoints   : 0 entries" in out

    def test_stats_after_sweep(self, capsys):
        self._populate()
        capsys.readouterr()
        code = main(["cache", "stats"])
        assert code == 0
        out = capsys.readouterr().out
        assert "results       : 12 entries" in out  # fig2: 12 1-instance points
        assert "tenant default" in out

    def test_prune_keeps_fresh_entries(self, capsys):
        self._populate()
        capsys.readouterr()
        code = main(["cache", "prune", "--max-age", "3600"])
        assert code == 0
        out = capsys.readouterr().out
        assert "removed 0" in out
        assert "kept 12" in out

    def test_prune_drops_old_entries(self, capsys):
        self._populate()
        capsys.readouterr()
        code = main(["cache", "prune", "--max-age", "0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "removed 12" in out
        code = main(["cache", "stats"])
        out = capsys.readouterr().out
        assert "results       : 0 entries" in out

    def test_prune_reaches_job_checkpoints(self, capsys):
        """Job checkpoints a journaled, sliced scheduler leaves behind
        are store objects: counted by stats, removed by prune."""
        root = default_cache_dir()
        journal = Journal(root)
        scheduler = Scheduler(workers=0, slice_quanta=20,
                              cache=ResultCache(root), journal=journal)
        try:
            jobs = [
                scheduler.submit(ExperimentSpec(
                    workload="alpha", instances=n, quantum_ms=1.0,
                    scale=float(SCALE),
                ))
                for n in (2, 3)
            ]
            assert all(job.preemptions > 100 for job in jobs)
        finally:
            scheduler.shutdown()
            journal.close()
        capsys.readouterr()
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "results       : 2 entries" in out
        assert "job ckpts     : 2 entries" in out
        assert main(["cache", "prune", "--max-age", "0"]) == 0
        left = {path.name for path in root.rglob("*") if path.is_file()}
        assert left <= {"journal.log", "journal.log.old"}

    def test_cache_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main(["cache"])
