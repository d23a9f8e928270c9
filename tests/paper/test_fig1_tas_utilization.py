"""Figure 1 bench: topologically-aware scheduling vs scattered placement.

Paper (NCSA, Figure 1): mean HSN injection bandwidth as a percent of
maximum is "significantly lower over the pre-TAS time period than when
TAS was being utilized".  We run the same halo-exchange workload on a
Gemini-style 3D torus under both placements and regenerate the figure;
the post-TAS epoch must show clearly higher achieved injection.
"""

import pytest

from repro.viz.figures import figure1_tas
from tests.paper.scenarios import tas_scenario

SIM_S = 1800.0


@pytest.fixture(scope="module")
def epochs():
    pre = tas_scenario(tas=False, sim_s=SIM_S)
    post = tas_scenario(tas=True, sim_s=SIM_S)
    # merge both epochs into one store on a shared timeline: pre at
    # [0, SIM_S), post shifted to [SIM_S, 2*SIM_S) — the "two periods of
    # time" layout of the original figure
    tsdb = pre.tsdb
    for key in post.tsdb.keys("node.inject_bw_frac"):
        series = post.tsdb.query(key.metric, key.component)
        from repro.core.metric import SeriesBatch
        tsdb.append(
            SeriesBatch.for_component(
                key.metric, key.component,
                series.times + SIM_S, series.values,
            )
        )
    return tsdb, pre, post


class TestFigure1:
    def test_shape_post_tas_utilization_higher(self, epochs):
        tsdb, pre, post = epochs
        fig = figure1_tas(tsdb, (0.0, SIM_S), (SIM_S, 2 * SIM_S))
        print()
        print(fig.render(height=8))
        pre_pct = fig.summary["pre_mean_pct"]
        post_pct = fig.summary["post_mean_pct"]
        ratio = fig.summary["post_over_pre"]
        print(f"\npaper: post-TAS mean utilization 'significantly' higher")
        print(f"measured: pre={pre_pct:.2f}% post={post_pct:.2f}% "
              f"ratio={ratio:.2f}x")
        assert ratio > 1.2, "TAS must raise achieved injection bandwidth"

    def test_mechanism_tas_lowers_contention(self, epochs):
        # fewer links run hot under TAS even when the hottest link in
        # both cases sits at saturation (the stall model's ceiling)
        _, pre, post = epochs
        pre_stall = pre.machine.network.link_stall_ratio
        post_stall = post.machine.network.link_stall_ratio
        pre_hot = int((pre_stall > 0.25).sum())
        post_hot = int((post_stall > 0.25).sum())
        print(f"\nlinks above 25% stall: scattered={pre_hot} "
              f"TAS={post_hot}; mean stall scattered="
              f"{pre_stall.mean():.3f} TAS={post_stall.mean():.3f}")
        assert post_stall.mean() < pre_stall.mean()
        assert post_hot < pre_hot

    def test_bench_figure_regeneration(self, epochs):
        tsdb, _, _ = epochs
        fig = figure1_tas(tsdb, (0.0, SIM_S), (SIM_S, 2 * SIM_S))
        assert fig.summary["post_over_pre"] > 1.2
