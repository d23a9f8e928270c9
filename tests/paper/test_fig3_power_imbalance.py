"""Figure 3 bench: KAUST power monitoring under load imbalance.

Paper (KAUST, Figure 3): during a load-imbalance episode, "power usage
variation of up to 3 times was observed between different cabinets and
full system power draw was almost 1.9 times lower during this period".
We inject the imbalance and regenerate both panels; the spread and the
draw drop must land near the paper's factors.
"""

import pytest

from repro.analysis.powersig import detect_load_imbalance
from repro.core.metric import SeriesBatch
from repro.viz.figures import figure3_power
from tests.paper.scenarios import power_imbalance_scenario


@pytest.fixture(scope="module")
def imbalanced():
    return power_imbalance_scenario()


class TestFigure3:
    def test_shape_cabinet_spread_and_system_drop(self, imbalanced):
        p, job = imbalanced
        fig = figure3_power(p.tsdb, 0.0, p.machine.now)
        print()
        print(fig.render(height=8))
        spread = fig.summary["max_cabinet_spread"]
        drop = fig.summary["system_max_over_min"]
        print(f"\npaper: cabinet variation up to ~3x; system draw ~1.9x "
              f"lower during the episode")
        print(f"measured: cabinet spread {spread:.2f}x, "
              f"system max/min {drop:.2f}x")
        assert 2.0 <= spread <= 4.0
        assert 1.5 <= drop <= 2.5

    def test_spread_occurs_during_fault_window(self, imbalanced):
        p, _ = imbalanced
        fig = figure3_power(p.tsdb, 0.0, p.machine.now)
        truth = p.machine.faults.ground_truth()[0]
        t = fig.summary["spread_time_s"]
        assert truth["start"] <= t <= truth["end"] + 120.0

    def test_detector_fires_on_worst_sweep(self, imbalanced):
        p, _ = imbalanced
        fig = figure3_power(p.tsdb, 0.0, p.machine.now)
        t = fig.summary["spread_time_s"]
        cabs = p.tsdb.components("cabinet.power_w")
        vals = []
        for c in cabs:
            b = p.tsdb.query("cabinet.power_w", c, t - 30, t + 90)
            if len(b):
                vals.append((c, float(b.values[0])))
        sweep = SeriesBatch.sweep("cabinet.power_w", t,
                                  [c for c, _ in vals],
                                  [v for _, v in vals])
        finding = detect_load_imbalance(sweep, spread_threshold=2.0)
        assert finding.detected
        assert finding.hot_cabinets  # names the overloaded cabinet

    def test_bench_figure_regeneration(self, imbalanced):
        p, _ = imbalanced
        fig = figure3_power(p.tsdb, 0.0, p.machine.now)
        assert fig.summary["max_cabinet_spread"] > 1.5
