"""Figure regeneration machinery and rendering."""

import pytest

from repro.errors import ExperimentError
from repro.prefetch import PrefetchPlan
from repro.sim.figures import (
    contention_knees,
    figure2,
    figure3,
    plan_sweep,
    speedup_table,
)
from repro.sim.report import render_figure, render_speedup, render_table
from repro.sim.series import FigureData, Series, SeriesPoint

SCALE = 1 / 8000


class TestSeries:
    def test_add_and_access(self):
        series = Series(label="x")
        series.add(1, 100, note="a")
        series.add(2, 210)
        assert series.xs() == [1, 2]
        assert series.ys() == [100, 210]
        assert series.y_at(2) == 210

    def test_y_at_missing(self):
        with pytest.raises(ExperimentError):
            Series(label="x").y_at(1)

    def test_knee_detection(self):
        series = Series(label="x")
        for n, y in [(1, 100), (2, 200), (3, 300), (4, 400), (5, 700)]:
            series.add(n, y)
        assert series.knee() == 5

    def test_no_knee_when_linear(self):
        series = Series(label="x")
        for n in range(1, 9):
            series.add(n, 100 * n)
        assert series.knee() is None

    def test_knee_requires_x1_baseline(self):
        series = Series(label="x")
        series.add(3, 100)
        assert series.knee() is None


class TestFigureData:
    def figure(self):
        figure = FigureData(name="f", title="T", xlabel="x", ylabel="y")
        series = Series(label="a")
        series.add(1, 10, extra=1)
        series.add(2, 30)
        figure.series.append(series)
        return figure

    def test_series_by_label(self):
        assert self.figure().series_by_label("a").label == "a"
        with pytest.raises(ExperimentError):
            self.figure().series_by_label("zzz")

    def test_to_rows(self):
        rows = self.figure().to_rows()
        assert rows[0] == {"series": "a", "x": 1, "y": 10, "extra": 1}

    def test_to_csv_header_order(self):
        csv = self.figure().to_csv()
        header = csv.splitlines()[0].split(",")
        assert header[:3] == ["series", "x", "y"]
        assert len(csv.splitlines()) == 3

    def test_empty_csv(self):
        assert FigureData(name="f", title="T", xlabel="x", ylabel="y").to_csv() == ""

    def test_to_csv_quotes_comma_labels(self):
        import csv as csv_module
        import io

        figure = FigureData(name="f", title="T", xlabel="x", ylabel="y")
        series = Series(label="Echo, Round Robin, 10ms")
        series.add(1, 10)
        figure.series.append(series)
        text = figure.to_csv()
        rows = list(csv_module.reader(io.StringIO(text)))
        assert all(len(row) == len(rows[0]) for row in rows)
        assert rows[1][0] == "Echo, Round Robin, 10ms"


class TestRendering:
    def test_render_table_contains_values(self):
        text = render_table(self.sample())
        assert "1,234" in text and "Sample" in text

    def test_render_figure_plots_symbols(self):
        text = render_figure(self.sample())
        assert "o" in text
        assert "series-one" in text

    def test_render_figure_empty(self):
        figure = FigureData(name="f", title="Empty", xlabel="x", ylabel="y")
        assert "no data" in render_figure(figure)

    def sample(self) -> FigureData:
        figure = FigureData(
            name="s", title="Sample", xlabel="instances", ylabel="cycles"
        )
        series = Series(label="series-one")
        series.add(1, 1234)
        series.add(2, 2600)
        figure.series.append(series)
        return figure


class TestFigure2:
    @pytest.fixture(scope="class")
    def small_fig2(self):
        return figure2(
            scale=SCALE,
            instances=(1, 2, 5),
            workloads=("alpha",),
            quanta=(1.0,),
            policies=("round_robin", "random"),
        )

    def test_series_labels_match_paper_legend(self, small_fig2):
        assert "Alpha, Round Robin, 1ms" in small_fig2.labels()
        assert "Alpha, Random, 1ms" in small_fig2.labels()

    def test_each_series_has_all_points(self, small_fig2):
        for series in small_fig2.series:
            assert series.xs() == [1, 2, 5]

    def test_completion_grows_with_instances(self, small_fig2):
        for series in small_fig2.series:
            ys = series.ys()
            assert ys[0] < ys[1] < ys[2]

    def test_contention_detail_attached(self, small_fig2):
        point = small_fig2.series[0].points[-1]  # 5 instances, 4 PFUs
        assert point.detail["evictions"] > 0


class TestFigure3:
    def test_soft_series_present(self):
        figure = figure3(
            scale=SCALE,
            instances=(1, 5),
            workloads=("alpha",),
            quanta=(1.0,),
        )
        assert "Alpha, Soft, 1ms" in figure.labels()
        assert "Alpha, Round Robin, 1ms" in figure.labels()
        knees = contention_knees(figure)
        assert set(knees) == set(figure.labels())


class TestPrefetchSweep:
    def test_baseline_and_prefetch_series(self):
        figure = plan_sweep(
            "prefetch", PrefetchPlan(), ("phases",),
            scale=SCALE,
            instances=(1, 3),
            quanta=(1.0,),
        )
        labels = figure.labels()
        assert "Phases, Baseline, 1ms" in labels
        assert "Phases, Prefetch, 1ms" in labels
        for series in figure.series:
            assert series.xs() == [1, 3]

    def test_prefetch_wins_past_the_knee(self):
        """At 5 instances (10 circuits on 4 PFUs) the predictive layer
        must beat the reactive baseline outright."""
        figure = plan_sweep(
            "prefetch", PrefetchPlan(), ("burst",),
            scale=SCALE,
            instances=(5,),
            quanta=(1.0,),
        )
        base = figure.series_by_label("Burst, Baseline, 1ms").y_at(5)
        on = figure.series_by_label("Burst, Prefetch, 1ms").y_at(5)
        assert on < base


class TestSpeedupTable:
    def test_factors_reported(self):
        figure = speedup_table(scale=SCALE, workloads=("alpha",))
        series = figure.series_by_label("alpha")
        assert series.y_at(2) > series.y_at(1)
        assert series.points[-1].detail["speedup"] > 2.0
        text = render_speedup(figure)
        assert "alpha" in text and "x" in text
