"""Tests for shareable dashboard specifications."""

import numpy as np
import pytest

from repro.core.metric import SeriesBatch
from repro.storage.tsdb import TimeSeriesStore
from repro.viz.dashspec import DashboardSpec, PanelSpec, operations_dashboard


def loaded_store():
    tsdb = TimeSeriesStore()
    for t in np.arange(0, 1200, 60.0):
        tsdb.append(SeriesBatch.sweep("system.power_w", t, ["system"],
                                      [30e3 + 100 * t]))
        tsdb.append(SeriesBatch.sweep("health.pass_frac", t,
                                      ["n0", "n1", "n2", "n3"],
                                      [1.0, 1.0, 0.8, 1.0]))
        tsdb.append(SeriesBatch.sweep("fs.read_bps", t, ["scratch"],
                                      [1e8]))
        tsdb.append(SeriesBatch.sweep("queue.backlog_nodeh", t,
                                      ["scheduler"], [50.0]))
        tsdb.append(SeriesBatch.sweep("link.stall_ratio", t,
                                      ["l0", "l1"], [0.01, 0.3]))
    return tsdb


class TestPanelSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="panel kind"):
            PanelSpec("x", "m", kind="gauge3d")

    def test_unknown_agg_rejected(self):
        with pytest.raises(ValueError, match="agg"):
            PanelSpec("x", "m", agg="median?")

    def test_percent_panel_needs_threshold(self):
        with pytest.raises(ValueError, match="threshold"):
            PanelSpec("x", "m", kind="percent_in_state")


class TestSharing:
    def test_json_round_trip(self):
        spec = operations_dashboard()
        back = DashboardSpec.from_json(spec.to_json())
        assert back.name == spec.name
        assert back.panels == spec.panels

    def test_imported_spec_renders_on_foreign_store(self):
        """The share story: a spec exported by one site renders against
        another site's store untouched."""
        text = operations_dashboard().to_json()
        imported = DashboardSpec.from_json(text)
        out = imported.render(loaded_store(), now=1140.0)
        assert "operations" in out
        assert "system power" in out
        assert "links congested" in out


class TestRendering:
    def test_stat_panel_shows_current_value(self):
        spec = DashboardSpec("t", [
            PanelSpec("power", "system.power_w", kind="stat",
                      agg="last", unit=" W"),
        ])
        out = spec.render(loaded_store(), now=1140.0)
        # last value = 30e3 + 100*1140
        assert "1.44e+05" in out or "144" in out

    def test_percent_in_state_counts_breaches(self):
        spec = DashboardSpec("t", [
            PanelSpec("unhealthy", "health.pass_frac",
                      kind="percent_in_state", threshold=1.0,
                      above=False),
        ])
        out = spec.render(loaded_store(), now=1140.0)
        assert "25" in out    # 1 of 4 nodes below 1.0

    def test_panels_read_the_sample_stamped_now_past_2_24_s(self):
        # past 2**24 s, now + 1e-9 == now: the window must still hold now
        now = float(2**25)
        tsdb = TimeSeriesStore()
        for t, frac, power in ((now - 60.0, [1.0, 1.0], 1.0),
                               (now, [1.0, 0.5], 5.0)):
            tsdb.append(SeriesBatch.sweep("health.pass_frac", t,
                                          ["n0", "n1"], frac))
            tsdb.append(SeriesBatch.sweep("system.power_w", t, ["system"],
                                          [power]))
        spec = DashboardSpec("t", [
            PanelSpec("unhealthy", "health.pass_frac",
                      kind="percent_in_state", threshold=1.0,
                      above=False),
            PanelSpec("power", "system.power_w", kind="stat", agg="last"),
        ])
        unhealthy, power = spec.render(tsdb, now=now).splitlines()[1:]
        assert unhealthy.endswith("] 50%")
        assert power.split("]")[1].split()[0] == "5"

    def test_empty_store_graceful(self):
        spec = operations_dashboard()
        out = spec.render(TimeSeriesStore(), now=0.0)
        assert "no data" in out or "(no data)" in out
