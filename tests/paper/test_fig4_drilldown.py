"""Figure 4 bench: aggregate I/O -> drill-down -> job attribution.

Paper (NCSA, Figure 4): "high values of system aggregate I/O metrics
(top) drives further investigation into the nodes, and hence, the job
responsible for the I/O", with "drill down capabilities enable
investigation while limiting screen real-estate requirements".  We
regenerate the two-panel figure and require the workflow to attribute
the spike to the ground-truth job.
"""

import numpy as np
import pytest

from repro.viz.figures import figure4_drilldown
from tests.paper.scenarios import io_spike_scenario


@pytest.fixture(scope="module")
def spiked():
    return io_spike_scenario()


class TestFigure4:
    def test_shape_spike_visible_and_attributed(self, spiked):
        p, io_job = spiked
        fig, result = figure4_drilldown(p.tsdb, p.jobs, 0.0,
                                        p.machine.now)
        print()
        print(fig.render(height=7))
        print(f"\npeak {result.peak_value / 1e9:.2f} GB/s at "
              f"t={result.peak_time:.0f}s; "
              f"attributed to job {result.job_id} ({result.job_app})")
        # the aggregate peak must stand out over the background
        agg = p.tsdb.aggregate_across("fs.read_bps", None, 0.0,
                                      p.machine.now, step=60.0)
        background = float(np.median(agg.values))
        assert result.peak_value > 5 * max(background, 1e6)
        # attribution: the ground-truth job
        assert result.job_id == io_job.id
        assert result.job_app == io_job.app.name

    def test_drilldown_ranks_busy_osts_first(self, spiked):
        p, io_job = spiked
        _, result = figure4_drilldown(p.tsdb, p.jobs, 0.0, p.machine.now)
        top_comp, top_val = result.ranked_components[0]
        bottom = result.ranked_components[-1]
        assert top_val >= bottom[1]
        assert top_val > 0

    def test_csv_download_round_trips(self, spiked):
        from repro.viz.render import from_csv
        p, _ = spiked
        fig, _ = figure4_drilldown(p.tsdb, p.jobs, 0.0, p.machine.now)
        csv = fig.csv()
        assert len(csv.splitlines()) > 10
        back = from_csv(csv)
        assert back

    def test_bench_drilldown_workflow(self, spiked):
        p, io_job = spiked
        fig, result = figure4_drilldown(p.tsdb, p.jobs, 0.0,
                                        p.machine.now)
        assert result.job_id == io_job.id
