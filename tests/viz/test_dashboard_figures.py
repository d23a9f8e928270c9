"""Tests for the dashboard, drill-down, topology views, and figures."""

import numpy as np
import pytest

from repro.core.metric import SeriesBatch
from repro.storage.jobstore import JobIndex
from repro.storage.tsdb import TimeSeriesStore
from repro.viz.dashboard import Dashboard, drill_down, percent_in_state
from repro.viz.figures import (
    figure2_benchmarks,
    figure3_power,
    figure5_perjob,
)
from repro.viz.topoview import (
    by_link_class,
    cabinet_rollup,
    group_pair_matrix,
    render_group_matrix,
)
from repro.cluster.topology import build_dragonfly


class TestPercentInState:
    def test_basic(self):
        sweep = SeriesBatch.sweep("m", 0.0, ["a", "b", "c", "d"],
                                  [1.0, 1.0, 0.5, 1.0])
        assert percent_in_state(sweep, lambda v: v >= 1.0) == 75.0

    def test_empty_nan(self):
        assert np.isnan(
            percent_in_state(SeriesBatch.empty("m"), lambda v: True)
        )


def tsdb_with_story():
    """A store with a quiet baseline and one I/O spike owned by job 7."""
    tsdb = TimeSeriesStore()
    idx = JobIndex()
    idx.record_start(7, "climate", ["n0", "n1"], 500.0)
    idx.record_end(7, 900.0)
    idx.record_start(8, "qmc", ["n2"], 0.0)
    idx.record_end(8, 2000.0)
    for t in np.arange(0.0, 1200.0, 60.0):
        spike = 600.0 <= t < 780.0
        per_ost = [5e8 if spike else 1e7, 1e7, 1e7]
        tsdb.append(SeriesBatch.sweep(
            "ost.read_bps", t, ["ost0", "ost1", "ost2"], per_ost))
        tsdb.append(SeriesBatch.sweep(
            "fs.read_bps", t, ["scratch"], [sum(per_ost)]))
        tsdb.append(SeriesBatch.sweep(
            "node.power_w", t, ["n0", "n1", "n2"],
            [300.0 if 500 <= t < 900 else 95.0] * 2 + [250.0]))
    return tsdb, idx


class TestDrillDown:
    def test_figure4_flow_finds_job(self):
        tsdb, idx = tsdb_with_story()
        result = drill_down(
            tsdb, "fs.read_bps", "ost.read_bps", 0.0, 1200.0,
            index=idx,
            component_to_nodes=lambda ost: ["n0", "n1", "n2"],
        )
        assert 600.0 <= result.peak_time < 780.0
        assert result.ranked_components[0][0] == "ost0"
        assert result.job_id == 7
        assert result.job_app == "climate"

    def test_empty_store(self):
        result = drill_down(TimeSeriesStore(), "fs.read_bps",
                            "ost.read_bps", 0.0, 100.0)
        assert np.isnan(result.peak_value)
        assert result.job_id is None


class TestDashboard:
    def test_tiles_and_render(self):
        tsdb, _ = tsdb_with_story()
        tsdb.append(SeriesBatch.sweep("health.pass_frac", 1140.0,
                                      ["n0", "n1"], [1.0, 0.5]))
        tsdb.append(SeriesBatch.sweep("queue.depth", 1140.0,
                                      ["scheduler"], [3.0]))
        dash = Dashboard(tsdb)
        tiles = dash.tiles(now=1140.0)
        names = {t.name for t in tiles}
        assert "nodes fully healthy" in names
        assert "queue depth" in names
        text = dash.render(now=1140.0)
        assert "system status" in text
        assert "queue depth" in text

    def test_tiles_show_the_sweep_stamped_now_past_2_24_s(self):
        """Past 2**24 s ``now + 1e-9`` rounds back to ``now``: a window
        ending there drops the sweep stamped ``now`` and the tile shows
        the one before it."""
        now = float(2**25)
        tsdb = TimeSeriesStore()
        for t, depth, frac in ((now - 60.0, 3.0, [1.0, 1.0]),
                               (now, 7.0, [1.0, 0.5])):
            tsdb.append(SeriesBatch.sweep("queue.depth", t, ["scheduler"],
                                          [depth]))
            tsdb.append(SeriesBatch.sweep("health.pass_frac", t,
                                          ["n0", "n1"], frac))
        tiles = {t.name: t for t in Dashboard(tsdb).tiles(now=now)}
        assert tiles["queue depth"].value == 7.0
        assert tiles["nodes fully healthy"].value == 50.0
        # the trend's last point is the sample stamped now too
        assert tiles["queue depth"].trend[-1] == "█"


class TestTopoView:
    @pytest.fixture(scope="class")
    def topo(self):
        return build_dragonfly(groups=3, chassis_per_group=3,
                               blades_per_chassis=4)

    def test_by_link_class(self, topo):
        vals = np.zeros(len(topo.links))
        # make every blue link hot
        for l in topo.links:
            if l.klass == "blue":
                vals[l.index] = 0.5
        agg = by_link_class(topo, vals)
        assert agg["blue"]["mean"] == 0.5
        assert agg["green"]["max"] == 0.0

    def test_group_pair_matrix_symmetry(self, topo):
        vals = np.random.default_rng(0).uniform(0, 1, len(topo.links))
        mat = group_pair_matrix(topo, vals)
        assert mat.shape == (3, 3)
        assert np.allclose(mat, mat.T)
        assert (np.diag(mat) > 0).all()   # intra-group links exist

    def test_cabinet_rollup(self, topo):
        node_vals = {n: float(i) for i, n in enumerate(topo.nodes)}
        roll = cabinet_rollup(topo, node_vals)
        assert set(roll) == set(topo.cabinets)

    def test_render_group_matrix(self):
        mat = np.array([[0.0, 1.0], [1.0, 0.5]])
        text = render_group_matrix(mat)
        assert "heatmap" in text
        assert "@" in text    # the max cell renders hottest


class TestFigures:
    def test_figure3_structure(self):
        tsdb = TimeSeriesStore()
        for t in np.arange(0, 600, 60.0):
            imb = 200 <= t < 400
            cabs = [60e3, 20e3 if imb else 58e3]
            tsdb.append(SeriesBatch.sweep("cabinet.power_w", t,
                                          ["c0-0", "c1-0"], cabs))
            tsdb.append(SeriesBatch.sweep("system.power_w", t,
                                          ["system"], [sum(cabs)]))
        fig = figure3_power(tsdb, 0.0, 600.0)
        assert fig.summary["max_cabinet_spread"] == pytest.approx(3.0)
        assert 200 <= fig.summary["spread_time_s"] < 400
        text = fig.render()
        assert "per cabinet" in text
        csv = fig.csv()
        assert "cabinet.power_w" in csv

    def test_figure2_reports_worst_fraction(self):
        tsdb = TimeSeriesStore()
        for i, t in enumerate(np.arange(0, 6000, 600.0)):
            fom = 100.0 if i < 5 else 50.0
            tsdb.append(SeriesBatch.sweep("bench.fom", t, ["dgemm"],
                                          [fom]))
        fig = figure2_benchmarks(tsdb, 0.0, 6000.0,
                                 benchmarks=("dgemm",))
        assert fig.summary["dgemm_worst_frac"] == pytest.approx(0.5)

    def test_figure5_condenses_over_nodes(self):
        tsdb, idx = tsdb_with_story()
        fig = figure5_perjob(tsdb, idx, 7,
                             metrics=(("node.power_w", "sum"),))
        (panel_name, series) = fig.panels[0]
        batch = series["node.power_w"]
        # two nodes at 300 W during tenancy -> 600 W summed
        assert np.nanmax(batch.values) == pytest.approx(600.0)
        assert "job 7" in fig.title
