"""Tests for streaming (at-ingest) analysis operators."""

import numpy as np
import pytest

from repro.analysis.streaming import (
    RunningMoments,
    StreamingOutlierDetector,
    StreamingRateWatch,
    StreamingStats,
)
from repro.cluster import HungNode, Machine, PackedPlacement, build_dragonfly
from repro.cluster.workload import APP_LIBRARY, Job
from repro.core.metric import SeriesBatch
from repro.pipeline import MonitoringPipeline
from repro.sources.sedc import SedcCollector
from repro.transport.bus import MessageBus


class TestRunningMoments:
    def test_matches_numpy(self):
        rng = np.random.default_rng(0)
        xs = rng.normal(10, 3, 500)
        m = RunningMoments()
        for x in xs:
            m.update(float(x))
        assert m.n == 500
        assert m.mean == pytest.approx(xs.mean())
        assert m.std == pytest.approx(xs.std(ddof=1))
        assert m.minimum == xs.min() and m.maximum == xs.max()

    def test_nan_ignored(self):
        m = RunningMoments()
        m.update(float("nan"))
        m.update(5.0)
        assert m.n == 1 and m.mean == 5.0

    def test_single_sample_variance_zero(self):
        m = RunningMoments()
        m.update(3.0)
        assert m.variance == 0.0


class TestStreamingStats:
    def test_per_series_moments_via_bus(self):
        bus = MessageBus()
        stats = StreamingStats()
        stats.attach(bus)
        for t in range(10):
            bus.publish("metrics.m", SeriesBatch.sweep(
                "m", float(t), ["a", "b"], [1.0, float(t)]))
        assert stats.series_count() == 2
        assert stats.get("m", "a").mean == 1.0
        assert stats.get("m", "b").maximum == 9.0
        assert stats.get("m", "nope") is None

    def test_non_batch_payloads_ignored(self):
        bus = MessageBus()
        stats = StreamingStats()
        stats.attach(bus)
        bus.publish("metrics.m", {"not": "a batch"})
        assert stats.batches_seen == 0


class TestStreamingOutlierDetector:
    def sweep(self, values, t=0.0):
        comps = [f"n{i}" for i in range(len(values))]
        return SeriesBatch.sweep("node.power_w", t, comps, values)

    def test_outlier_detected_at_ingest(self):
        det = StreamingOutlierDetector(("node.power_w",), z_threshold=5.0)
        values = np.full(32, 95.0)
        values[7] = 340.0
        det.observe(self.sweep(values))
        (found,) = det.drain()
        (d,) = found.detections()
        assert d.component == "n7"
        assert det.drain() == []

    def test_other_metrics_skipped(self):
        det = StreamingOutlierDetector(("node.power_w",))
        det.observe(SeriesBatch.sweep("node.temp_c", 0.0,
                                      ["a"] * 9 + ["b"],
                                      [30.0] * 9 + [90.0]))
        assert det.sweeps_checked == 0

    def test_small_sweeps_skipped(self):
        det = StreamingOutlierDetector(("node.power_w",), min_sweep=8)
        det.observe(self.sweep(np.array([95.0, 400.0, 95.0])))
        assert det.drain() == []


class TestStreamingRateWatch:
    def test_rate_breach_flagged(self):
        watch = StreamingRateWatch("gpu.ecc_dbe", max_rate_per_s=0.1)
        watch.observe(SeriesBatch.sweep("gpu.ecc_dbe", 0.0, ["g0"], [0.0]))
        watch.observe(SeriesBatch.sweep("gpu.ecc_dbe", 10.0, ["g0"], [50.0]))
        (found,) = watch.drain()
        (d,) = found.detections()
        assert d.component == "g0"
        assert d.score == pytest.approx(50.0)   # 5/s over a 0.1/s limit

    def test_slow_growth_quiet(self):
        watch = StreamingRateWatch("gpu.ecc_dbe", max_rate_per_s=1.0)
        for t in range(5):
            watch.observe(SeriesBatch.sweep("gpu.ecc_dbe", t * 100.0,
                                            ["g0"], [float(t)]))
        assert watch.drain() == []


class TestPipelineIntegration:
    def test_streaming_detection_reaches_alerts(self):
        """The KAUST hung-node scenario caught by the *streaming*
        location: the power-sweep outlier fires at ingest and lands in
        the alert manager the same tick."""
        topo = build_dragonfly(groups=2, chassis_per_group=3,
                               blades_per_chassis=4)
        machine = Machine(topo, placement=PackedPlacement(), seed=3)
        job = Job(APP_LIBRARY["qmc"], 8, 0.0, seed=1, walltime_req=600.0)
        machine.scheduler.submit(job, 0.0)
        pipeline = MonitoringPipeline(
            machine, collectors=[SedcCollector(interval_s=60.0)]
        )
        pipeline.add_streaming(
            StreamingOutlierDetector(("node.power_w",), z_threshold=6.0)
        )
        pipeline.run(duration_s=300.0, dt=10.0)
        victim = job.nodes[0]
        machine.faults.add(HungNode(start=machine.now, node=victim))
        pipeline.run(duration_s=1500.0, dt=10.0)
        stream_alerts = [a for a in pipeline.alerts.alerts
                         if a.rule.startswith("stream.")]
        assert any(a.component == victim for a in stream_alerts)
