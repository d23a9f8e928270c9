#!/usr/bin/env python
"""NCSA story: filesystem probes, aggregate I/O drill-down, per-job view.

Reproduces Blue Waters' filesystem monitoring workflow (Sections II-2,
III-B; Figures 4 and 5):

1. one-minute synchronized probes of every OST and the MDS detect a
   slow OST minutes after it degrades;
2. the aggregate ``fs.read_bps`` timeline shows an I/O spike; drilling
   down at the peak ranks the per-OST contributions and attributes the
   spike to the job that caused it (Figure 4);
3. the per-job multi-metric condensed timeseries plus CSV download is
   produced for that job (Figure 5).

Run:  python examples/site_ncsa_filesystem.py
"""

import numpy as np

from repro import SiteConfig, build_site
from repro.analysis.anomaly import sweep_outliers
from repro.cluster import Machine, PackedPlacement, SlowOst, build_dragonfly
from repro.cluster.workload import APP_LIBRARY, Job
from repro.core.metric import SeriesBatch
from repro.viz.figures import figure4_drilldown, figure5_perjob


class _DelayedSubmit:
    """Minimal job source: submit one prepared job at its submit time."""

    def __init__(self, job, at):
        self._job, self._at, self._done = job, at, False

    def poll(self, now):
        if not self._done and now >= self._at:
            self._done = True
            return [self._job]
        return []


def main() -> None:
    topo = build_dragonfly(groups=2, chassis_per_group=3,
                           blades_per_chassis=4)
    machine = Machine(topo, placement=PackedPlacement(), seed=11)

    # a quiet background job plus the read-heavy genomics job that will
    # own the Figure 4 spike (its first phase streams reads from every
    # node), submitted mid-run so the aggregate timeline has a baseline
    quiet = Job(APP_LIBRARY["qmc"], 16, 0.0, seed=3)
    io_heavy = Job(APP_LIBRARY["genomics"], 32, 600.0, seed=4)
    machine.scheduler.submit(quiet, 0.0)
    machine.job_generator = _DelayedSubmit(io_heavy, 600.0)

    # ground truth: ost3 degrades mid-run
    machine.faults.add(SlowOst(start=2400.0, duration=1800.0, ost=3,
                               bw_factor=0.1))

    pipeline = build_site(SiteConfig(seed=2), machine=machine)
    pipeline.run(hours=1.5, dt=10.0)
    now = machine.now

    # -- 1. probe latencies surface the slow OST -------------------------
    print("=== per-OST probe latency sweep during the fault window ===")
    lat = {
        c: pipeline.tsdb.query("probe.io_latency_s", c, 2500.0, 4000.0)
        for c in pipeline.tsdb.components("probe.io_latency_s")
    }
    sweep = SeriesBatch(
        "probe.io_latency_s",
        list(lat),
        [b.times[len(b) // 2] for b in lat.values()],
        [float(np.median(b.values)) for b in lat.values()],
    )
    for det in sweep_outliers(sweep, z_threshold=4.0).detections():
        print(f"  OUTLIER {det.component}: {det.detail}")

    # -- 2. Figure 4: aggregate -> drill-down -> job ----------------------
    fig4, result = figure4_drilldown(pipeline.tsdb, pipeline.jobs,
                                     0.0, now)
    print("\n" + fig4.render(height=8))
    print(f"\ndrill-down: peak {result.peak_value / 1e9:.2f} GB/s at "
          f"t={result.peak_time:.0f}s")
    print(f"top OSTs: {[(c, f'{v/1e6:.0f} MB/s') for c, v in result.ranked_components[:3]]}")
    print(f"attributed to job {result.job_id} ({result.job_app}) — "
          f"ground truth was job {io_heavy.id} ({io_heavy.app.name})")

    # -- 3. Figure 5: per-job condensed timeseries + CSV ------------------
    fig5 = figure5_perjob(pipeline.tsdb, pipeline.jobs, io_heavy.id)
    print("\n" + fig5.render(height=6))
    csv = fig5.csv()
    print(f"\nCSV download: {len(csv.splitlines()) - 1} data rows, "
          f"first three:")
    for line in csv.splitlines()[:4]:
        print("  " + line)


if __name__ == "__main__":
    main()
