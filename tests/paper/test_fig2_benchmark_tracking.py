"""Figure 2 bench: benchmark performance tracking over time.

Paper (NERSC, Figure 2): custom benchmarks run regularly; "occurrences
and onset of performance problems are apparent in visualizations
tracking performance over time".  We track the suite across a period
with an injected slow OST and a later MDS degradation; the regenerated
figure must show the I/O benchmark dropping during the OST window and
the metadata benchmark during the MDS window, while compute benchmarks
stay flat.
"""

import pytest

from repro.analysis.variability import attribute_window, detect_degradations
from repro.viz.figures import figure2_benchmarks
from tests.paper.scenarios import benchmark_tracking_scenario


@pytest.fixture(scope="module")
def tracked():
    return benchmark_tracking_scenario()


class TestFigure2:
    def test_shape_io_benchmark_degrades_in_fault_window(self, tracked):
        p = tracked
        fig = figure2_benchmarks(p.tsdb, 0.0, p.machine.now)
        print()
        print(fig.render(height=6))
        # the IOR benchmark collapses during the slow-OST window
        assert fig.summary["ior_read_worst_frac"] < 0.5
        # metadata benchmark collapses during MDS degradation
        assert fig.summary["mdtest_worst_frac"] < 0.5
        # compute stays healthy throughout
        assert fig.summary["dgemm_worst_frac"] > 0.9

    def test_degradation_windows_match_ground_truth(self, tracked):
        p = tracked
        truth = p.machine.faults.ground_truth()
        ior = p.tsdb.query("bench.fom", "ior_read")
        windows = detect_degradations(ior, drop_fraction=0.2)
        assert windows, "the slow-OST window must be detected"
        win = windows[0]
        slow_ost = next(g for g in truth if g["name"] == "slow_ost")
        print(f"\nslow_ost truth window: [{slow_ost['start']:.0f}, "
              f"{slow_ost['end']:.0f}); detected onset {win.t_onset:.0f}")
        assert slow_ost["start"] <= win.t_onset <= slow_ost["start"] + 1800
        # attribution pulls the right fault into the investigation
        report = attribute_window(win, [], truth, slack_s=600.0)
        assert any(f["name"] == "slow_ost" for f in report["faults"])

    def test_bench_figure_regeneration(self, tracked):
        p = tracked
        fig = figure2_benchmarks(p.tsdb, 0.0, p.machine.now)
        assert fig.panels
