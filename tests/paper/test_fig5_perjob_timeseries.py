"""Figure 5 bench: per-job multi-metric condensed timeseries + CSV.

Paper (NCSA, Figure 5): "Timeseries visualizations of multiple metrics
can provide insights into underperforming applications. Summing and
averaging over nodes enables condensation of high dimensional data ...
NCSA enables user access to plots, with the ability to download the
image and also the raw data."  We regenerate the multi-panel per-job
figure, check the condensation arithmetic against the raw per-node
series, and round-trip the CSV download.
"""

import numpy as np
import pytest

from repro.viz.figures import figure5_perjob
from repro.viz.render import from_csv
from tests.paper.scenarios import io_spike_scenario


@pytest.fixture(scope="module")
def spiked():
    return io_spike_scenario()


class TestFigure5:
    def test_condensation_matches_raw_pernode_data(self, spiked):
        p, job = spiked
        fig = figure5_perjob(p.tsdb, p.jobs, job.id,
                             metrics=(("node.power_w", "sum"),))
        condensed = fig.panels[0][1]["node.power_w"]
        # recompute by hand from per-node series at one bucket
        per_node = p.jobs.extract_job_series(p.tsdb, job.id,
                                             "node.power_w")
        t_ref = condensed.times[len(condensed) // 2]
        manual = 0.0
        for series in per_node.values():
            w = series.in_window(t_ref, t_ref + 60.0)
            if len(w):
                manual += float(w.values.mean())
        assert condensed.values[len(condensed) // 2] == pytest.approx(
            manual, rel=1e-6
        )

    def test_panels_cover_multiple_metrics(self, spiked):
        p, job = spiked
        fig = figure5_perjob(p.tsdb, p.jobs, job.id)
        print()
        print(fig.render(height=5))
        assert len(fig.panels) == 4
        assert f"job {job.id}" in fig.title

    def test_csv_download_matches_plot_data(self, spiked):
        p, job = spiked
        fig = figure5_perjob(p.tsdb, p.jobs, job.id,
                             metrics=(("node.cpu_util", "mean"),))
        csv = fig.csv()
        back = from_csv(csv)
        (key,) = [k for k in back if "cpu_util" in k]
        original = fig.panels[0][1]["node.cpu_util"]
        finite = np.isfinite(original.values)
        assert np.allclose(back[key].values[finite],
                           original.values[finite])

    def test_bench_perjob_extraction(self, spiked):
        p, job = spiked
        fig = figure5_perjob(p.tsdb, p.jobs, job.id)
        assert fig.panels
