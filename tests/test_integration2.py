"""Second round of integration tests: tiering, log mining, long-term
analysis over the live pipeline."""

import numpy as np
import pytest

from repro.analysis.logpatterns import (
    KnownPatternScanner,
    TemplateTracker,
    template_of,
)
from repro.cluster import (
    HungNode,
    LinkFailure,
    Machine,
    PackedPlacement,
    ServiceDeath,
    build_dragonfly,
)
from repro.cluster.workload import APP_LIBRARY, Job, JobGenerator
from repro.pipeline import MonitoringPipeline, default_collectors
from repro.sites import SiteConfig
from repro.storage.diskier import DiskTier
from repro.storage.tsdb import TimeSeriesStore


def faulty_pipeline(seed=5, hours=1.0):
    topo = build_dragonfly(groups=2, chassis_per_group=3,
                           blades_per_chassis=4)
    machine = Machine(
        topo,
        placement=PackedPlacement(),
        job_generator=JobGenerator(mean_interarrival_s=300,
                                   max_nodes=24, seed=seed),
        seed=seed,
    )
    machine.faults.add(HungNode(start=600.0, duration=900.0,
                                node=topo.nodes[3]))
    machine.faults.add(LinkFailure(start=1500.0, duration=600.0,
                                   link_index=2))
    machine.faults.add(ServiceDeath(start=2400.0, duration=600.0,
                                    node=topo.nodes[9], service="lnet"))
    pipeline = MonitoringPipeline(
        machine, collectors=default_collectors(machine, seed=seed)
    )
    pipeline.run(hours=hours, dt=10.0)
    return pipeline


class TestTieredStorageInPipeline:
    def test_archive_mid_run_queries_transparent(self, tmp_path):
        topo = build_dragonfly(groups=2, chassis_per_group=3,
                               blades_per_chassis=4)
        machine = Machine(topo, placement=PackedPlacement(), seed=2)
        job = Job(APP_LIBRARY["qmc"], 16, 0.0, seed=2)
        machine.scheduler.submit(job, 0.0)
        # a disk-backed store with small chunks (so sealed chunks age
        # out within the test's short horizon)
        pipeline = MonitoringPipeline(
            machine, SiteConfig(store_dir=str(tmp_path), chunk_size=8),
            collectors=default_collectors(machine, seed=2),
        )
        tiered = pipeline.tsdb

        pipeline.run(duration_s=1800.0, dt=10.0)
        moved = tiered.archive_before(900.0)
        assert moved > 0
        pipeline.run(duration_s=600.0, dt=10.0)

        node = topo.nodes[0]
        # the long-term query spans archived + live data transparently
        assert tiered.locate_archived("node.power_w", node)
        full = tiered.query("node.power_w", node, 0.0, machine.now)
        assert full.times.min() < 900.0 < full.times.max()
        assert tiered.disk_stats().loads >= 1
        # samples are continuous: one per collection interval
        assert len(full) == len(np.unique(full.times))
        tiered.disk.close()

    def test_cold_footprint_smaller_than_hot(self, tmp_path):
        tiered = TimeSeriesStore(chunk_size=32, disk=DiskTier(tmp_path))
        rng = np.random.default_rng(0)
        from repro.core.metric import SeriesBatch
        comps = [f"n{i}" for i in range(8)]
        for t in range(400):
            tiered.append(SeriesBatch.sweep(
                "m", t * 60.0, comps, rng.normal(250, 5, 8)))
        hot_before = tiered.disk_stats().hot_bytes
        tiered.archive_before(300 * 60.0)
        cold = sum(ref.length for c in comps
                   for _, ref in tiered.locate_archived("m", c))
        assert 0 < cold < hot_before
        # archived bytes left the resident set, byte for byte
        assert tiered.disk_stats().hot_bytes == hot_before - cold
        tiered.disk.close()


class TestLogMiningOverPipeline:
    def test_known_patterns_catch_injected_faults(self):
        p = faulty_pipeline()
        events = [p.logs.get(i) for i in range(len(p.logs))]
        hits = KnownPatternScanner().scan(events)
        assert "soft_lockup" in hits
        assert "link_failed" in hits
        assert "service_exit" in hits

    def test_novel_template_surfacing(self):
        p = faulty_pipeline()
        tracker = TemplateTracker(bucket_s=300.0)
        # day-one learning pass over the healthy prefix
        events = sorted(
            (p.logs.get(i) for i in range(len(p.logs))),
            key=lambda e: e.time,
        )
        healthy = [e for e in events if e.time < 500.0]
        faulty = [e for e in events if e.time >= 500.0]
        tracker.observe(healthy)
        novel = tracker.observe(faulty)
        # the fault signatures were never seen in the healthy prefix
        assert any("lockup" in t for t in novel)
        assert any("lcb lanes down" in t.lower() or "failed" in t
                   for t in novel)

    def test_template_collapses_variable_fields(self):
        p = faulty_pipeline()
        msgs = [p.logs.get(i).message for i in range(len(p.logs))
                if "started on" in p.logs.get(i).message]
        assert len(msgs) >= 2
        # job ids and node counts are masked; the app name (a stable
        # categorical field) survives — one template per application
        apps = {m.split("(")[1].split(")")[0] for m in msgs}
        assert len({template_of(m) for m in msgs}) == len(apps)


class TestLongTermTrend:
    def test_gpu_health_trend_over_archived_history(self, tmp_path):
        """Trend analysis across a reloaded archive — the 'revisiting
        historical data in conjunction with current data' requirement."""
        from repro.analysis.trend import fit_trend
        from repro.core.metric import SeriesBatch

        tiered = TimeSeriesStore(chunk_size=8, disk=DiskTier(tmp_path))
        # a year of weekly samples of declining GPU health
        for week in range(52):
            t = week * 7 * 86400.0
            health = 1.0 - 0.01 * week
            tiered.append(SeriesBatch.sweep("gpu.health", t,
                                            ["n0g0"], [health]))
        tiered.archive_before(26 * 7 * 86400.0)
        assert tiered.locate_archived("gpu.health", "n0g0")
        series = tiered.query("gpu.health", "n0g0", 0.0, np.inf)
        assert len(series) == 52
        fit = fit_trend(series)
        per_week = fit.slope * 7 * 86400.0
        assert per_week == pytest.approx(-0.01, rel=1e-6)
        tiered.disk.close()
