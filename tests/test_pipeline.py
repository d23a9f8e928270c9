"""Integration tests: the assembled end-to-end pipeline."""

import numpy as np
import pytest

from repro import MonitoringPipeline, SiteConfig, build_site
from repro.analysis.anomaly import sweep_outliers
from repro.cluster import (
    HungNode,
    JobGenerator,
    Machine,
    PackedPlacement,
    SlowOst,
    build_dragonfly,
)
from repro.cluster.workload import APP_LIBRARY, Job


def make_machine(**kw):
    topo = build_dragonfly(groups=2, chassis_per_group=3,
                           blades_per_chassis=4)
    defaults = dict(
        placement=PackedPlacement(),
        job_generator=JobGenerator(mean_interarrival_s=240,
                                   max_nodes=32, seed=2),
        gpu_nodes="all",
        seed=7,
    )
    defaults.update(kw)
    return Machine(topo, **defaults)


@pytest.fixture(scope="module", params=["flat", "partitioned"])
def faulty_run(request):
    """One shared hour-long run with a hung node and a slow OST.

    Parametrized over transport tiers: the same scenario must pass on
    the default stack (flat bus + single store) and on the tiered one
    (partitioned bus + 4-shard store) — the acceptance oracle for the
    transport/storage refactor.
    """
    m = make_machine()
    m.faults.add(HungNode(start=900.0, duration=1200.0,
                          node=m.topo.nodes[5]))
    m.faults.add(SlowOst(start=1800.0, duration=1200.0, ost=0,
                         bw_factor=0.1))
    kw = ({} if request.param == "flat"
          else dict(transport="partitioned", shards=4))
    p = build_site(SiteConfig(seed=1, **kw), machine=m)
    p.run(hours=1.0, dt=10.0)
    return p


class TestDataFlow:
    def test_metrics_reach_tsdb(self, faulty_run):
        p = faulty_run
        stats = p.tsdb.stats()
        assert stats.samples > 10_000
        # every registered collector metric family shows up
        metrics = {k.metric for k in p.tsdb.keys()}
        for m in ("node.power_w", "link.stall_ratio", "probe.io_latency_s",
                  "queue.depth", "cabinet.power_w", "bench.fom",
                  "health.pass_frac", "env.corrosion_rate"):
            assert m in metrics, m

    def test_events_reach_logstore(self, faulty_run):
        p = faulty_run
        assert len(p.logs) > 0
        hits = p.logs.search(["soft", "lockup"])
        assert hits

    def test_jobs_tracked_with_tenure(self, faulty_run):
        p = faulty_run
        assert len(p.jobs) > 0
        done = [a for a in p.jobs.jobs_overlapping(-np.inf, np.inf)
                if a.end is not None]
        rows = p.sql.jobs(state="completed")
        assert len(rows) == len([a for a in done])

    def test_sweeps_are_synchronized(self, faulty_run):
        p = faulty_run
        a = p.tsdb.query("node.power_w", p.machine.topo.nodes[0])
        b = p.tsdb.query("node.power_w", p.machine.topo.nodes[-1])
        assert np.array_equal(a.times, b.times)


class TestDetectionEndToEnd:
    def test_hung_node_alert_and_drain(self, faulty_run):
        p = faulty_run
        victim = p.machine.topo.nodes[5]
        rules = {a.rule for a in p.alerts.alerts if a.component == victim}
        assert "soft_lockup" in rules
        drains = [r for r in p.actions.audit
                  if r.action == "drain_node" and r.component == victim]
        assert drains

    def test_slow_ost_degrades_benchmark_alert(self, faulty_run):
        p = faulty_run
        assert any(a.rule == "bench_degraded" and
                   a.component == "ior_read" for a in p.alerts.alerts)

    def test_slow_ost_visible_in_probe_series(self, faulty_run):
        p = faulty_run
        s = p.tsdb.query("probe.io_latency_s", "scratch-ost0")
        during = s.in_window(1900.0, 3000.0).values
        before = s.in_window(0.0, 1800.0).values
        assert np.median(during) > 3 * np.median(before)

    def test_hung_node_is_power_sweep_outlier(self):
        """The KAUST signature: a job's node wedges mid-run; after the
        job dies the machine idles, but the hung node keeps burning —
        a screaming outlier in the synchronized power sweep."""
        m = make_machine(job_generator=None)
        job = Job(APP_LIBRARY["qmc"], 8, 0.0, seed=1, walltime_req=600.0)
        m.scheduler.submit(job, 0.0)
        p = MonitoringPipeline(m, collectors=[])
        p.run(duration_s=300.0, dt=10.0)       # job busy, power up
        victim = job.nodes[0]
        m.faults.add(HungNode(start=m.now, node=victim))
        p.run(duration_s=900.0, dt=10.0)       # walltime kills the job
        from repro.core.metric import SeriesBatch
        sweep = SeriesBatch.sweep(
            "node.power_w", m.now, m.nodes.names, m.nodes.power_w
        )
        dets = sweep_outliers(sweep, z_threshold=4.0)
        assert any(d.component == victim for d in dets)


class TestAnalysisHooks:
    def test_hook_runs_on_cadence_and_alerts(self):
        m = make_machine(job_generator=None)
        p = MonitoringPipeline(m)
        calls = []

        def hook(pipeline, now):
            calls.append(now)
            from repro.analysis.anomaly import Detection
            return [Detection(now, "x.y", "n0", 9.0, "outlier", "synthetic")]

        p.add_analysis(60.0, hook)
        p.run(duration_s=300.0, dt=10.0)
        # phase-locked cadence: first fire on the first tick (due at 0),
        # then every interval on the interval — no drift from tick phase
        assert calls == [10.0, 60.0, 120.0, 180.0, 240.0, 300.0]
        assert any(a.rule.startswith("stat.x.y") for a in p.alerts.alerts)

    def test_hook_cadence_phase_locked_under_late_ticks(self):
        """A hook serviced by a late tick reschedules from its due time,
        not from the tick time — cadence phase never drifts."""
        m = make_machine(job_generator=None)
        p = MonitoringPipeline(m, SiteConfig(selfmon_interval_s=None))
        calls = []
        p.add_analysis(60.0, lambda pipeline, now: calls.append(now) or [])
        # ticks land at 70, 140, 210, ... — never on a multiple of 60
        p.run(duration_s=420.0, dt=70.0)
        # due times stay on the 60 s grid: serviced at the first tick at
        # or after each due point, skipping slots a >1-interval gap misses
        assert calls == [70.0, 140.0, 210.0, 280.0, 350.0, 420.0]
        stage = p.stage("analysis-hooks")
        interval, next_due, _ = stage.hooks[0]
        assert next_due % 60.0 == 0.0    # still on the original grid

    def test_hook_rejects_nonpositive_interval(self):
        p = MonitoringPipeline(make_machine(job_generator=None))
        with pytest.raises(ValueError):
            p.add_analysis(0.0, lambda pipeline, now: [])

    def test_run_argument_validation(self):
        p = MonitoringPipeline(make_machine(job_generator=None))
        with pytest.raises(ValueError):
            p.run()
        with pytest.raises(ValueError):
            p.run(duration_s=10.0, hours=1.0)


class TestOverheadAccounting:
    def test_overhead_report_structure(self, faulty_run):
        rep = faulty_run.overhead_report()
        assert "node_counters" in rep
        for stats in rep.values():
            assert stats["sweeps"] >= 1
            assert stats["wall_per_sweep_ms"] >= 0.0


class TestDashboardIntegration:
    def test_dashboard_renders_from_live_store(self, faulty_run):
        p = faulty_run
        before = p.frontend.stats().queries
        text = p.dashboard().render(p.machine.now, window_s=1200.0)
        assert "system status" in text
        assert "system power" in text
        # one serving-plane read per tile, not one per component
        assert p.frontend.stats().queries - before <= 40


class TestAutomaticPostJobGate:
    def test_built_site_drains_broken_nodes_post_job(self):
        """With build_site's gate installed, a node that breaks
        during a job is drained automatically when the job ends — no
        manual post_job call required."""
        m = make_machine(job_generator=None)
        p = build_site(SiteConfig(seed=4), machine=m)
        job = Job(APP_LIBRARY["qmc"], 8, 0.0, seed=1)
        job.work_seconds = 200.0
        m.scheduler.submit(job, 0.0)
        p.run(duration_s=100.0, dt=10.0)
        victim = job.nodes[0]
        m.nodes.kill_service(victim, "lnet")     # breaks mid-job
        p.run(duration_s=400.0, dt=10.0)         # job completes
        assert job.state.value in ("completed", "failed")
        assert victim in m.scheduler.unavailable
        assert victim in p.health_gate.drained
