"""Unit tests for latency histograms and the self-metric emitter."""

import numpy as np
import pytest

from repro.core.registry import (
    MetricClass,
    MetricRegistry,
    MetricSpec,
    default_registry,
)
from repro.obs import selfmetrics
from repro.obs.chaos import crash_and_recover
from repro.obs.hist import LatencyHistogram
from repro.obs.selfmetrics import (
    SELFMON_METRICS,
    SelfMonitor,
    Vital,
    completeness_ratio,
    selfmon_specs,
)
from repro.pipeline import MonitoringPipeline
from repro.sites import SiteConfig, build_site
from repro.sources.counters import NodeCounterCollector
from tests.test_pipeline import make_machine


class TestLatencyHistogram:
    def test_percentiles_over_window(self):
        h = LatencyHistogram()
        for v in (1.0, 2.0, 3.0, 4.0, 5.0):
            h.record(v)
        assert h.percentile(50) == 3.0
        s = h.summary()
        assert s["p50_s"] == 3.0
        assert s["max_s"] == 5.0
        assert s["count"] == 5.0
        assert s["mean_s"] == 3.0

    def test_window_is_bounded_but_lifetime_stats_persist(self):
        h = LatencyHistogram(window=4)
        for v in range(100):
            h.record(float(v))
        assert len(h) == 4
        assert h.count == 100
        assert h.max_s == 99.0
        # window percentiles only see the most recent 4 observations
        assert h.percentile(0) == 96.0

    def test_empty_histogram_is_nan(self):
        h = LatencyHistogram()
        assert np.isnan(h.percentile(50))
        assert np.isnan(h.summary()["p50_s"])

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError):
            LatencyHistogram(window=0)


class TestCompleteness:
    def test_perfect_delivery_is_one(self):
        assert completeness_ratio(100, 0, 0) == 1.0

    def test_no_traffic_is_one(self):
        assert completeness_ratio(0, 0, 0) == 1.0

    def test_drops_and_errors_reduce_it(self):
        assert completeness_ratio(100, 10, 0) == pytest.approx(0.9)
        assert completeness_ratio(90, 0, 10) == pytest.approx(0.9)


def small_pipeline(config=None, **parts):
    return MonitoringPipeline(
        make_machine(),
        config,
        collectors=[NodeCounterCollector(interval_s=60.0)],
        **parts,
    )


class TestSingleDeclaration:
    """A table row is the whole declaration of a self-metric."""

    def test_every_row_is_in_the_default_registry(self):
        reg = default_registry()
        specs = selfmon_specs()
        assert len({s.name for s in specs}) == len(specs)
        for spec in specs:
            assert reg.get(spec.name) is spec

    def test_callers_registry_gains_the_rows(self):
        reg = MetricRegistry()
        for spec in default_registry():
            if not spec.name.startswith("selfmon."):
                reg.register(spec)
        p = build_site(SiteConfig(seed=1), overrides={"registry": reg})
        assert p.registry is reg
        for name in SELFMON_METRICS:
            assert name in reg

    def test_conflicting_spec_in_callers_registry_is_rejected(self):
        reg = default_registry()
        reg._specs["selfmon.bus.dropped"] = MetricSpec(
            "selfmon.bus.dropped", "count", MetricClass.COUNTER, "monitor",
            "Something else entirely.")
        with pytest.raises(ValueError, match="different spec"):
            small_pipeline(registry=reg)

    def test_one_extra_row_is_the_whole_change(self, monkeypatch):
        row = Vital(
            MetricSpec("selfmon.store.job_rows", "count",
                       MetricClass.GAUGE, "monitor",
                       "Jobs resident in the job index."),
            "jobstore", lambda p: len(p.jobs))
        monkeypatch.setattr(selfmetrics, "VITALS",
                            (*selfmetrics.VITALS, (lambda p: p, (row,))))
        assert ("selfmon.store.job_rows | count | gauge | monitor | "
                "Jobs resident in the job index."
                in default_registry().document())
        p = small_pipeline(SiteConfig(selfmon_interval_s=60.0))
        p.selfmon.maybe_emit(0.0)
        assert "selfmon.store.job_rows" in {
            b.metric for b in p.selfmon.sample(60.0, elapsed_s=60.0)}
        p.run(duration_s=200.0, dt=10.0)
        stored = p.tsdb.query("selfmon.store.job_rows", "jobstore")
        assert len(stored)
        assert stored.values[-1] == len(p.jobs)

    def test_each_stats_surface_is_read_once_per_sweep(self):
        p = small_pipeline()
        p.selfmon.maybe_emit(0.0)
        calls = {"bus.stats": 0, "delivery_report": 0, "frontend.stats": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        p.bus.stats = counted("bus.stats", p.bus.stats)
        p.delivery_report = counted("delivery_report", p.delivery_report)
        p.frontend.stats = counted("frontend.stats", p.frontend.stats)
        p.selfmon.sample(60.0, elapsed_s=60.0)
        assert calls == {"bus.stats": 1, "delivery_report": 1,
                         "frontend.stats": 1}


class TestRatesAcrossStoreSwap:
    RATES = [row.spec.name for _read, rows in selfmetrics.VITALS
             for row in rows if row.rate is selfmetrics._per_second]

    def test_no_rate_goes_negative_across_crash_and_recover(self, tmp_path):
        p = build_site(SiteConfig(
            shards=2, chunk_size=8, store_dir=str(tmp_path),
            hot_bytes=16 << 10, tick_s=60, metric_interval_s=60,
            selfmon_interval_s=60))
        for _ in range(40):
            p.step()
        before = p.tsdb.stats().samples
        crash_and_recover(p)
        assert p.tsdb.stats().samples < before   # counters went backwards
        for _ in range(5):
            p.step()
        assert len(self.RATES) == 7
        for metric in self.RATES:
            for comp in p.tsdb.components(metric):
                values = p.tsdb.query(metric, comp).values
                assert len(values)
                assert (values >= 0.0).all(), (metric, values.min())


class TestSelfMonitor:
    def test_first_call_is_baseline_only(self):
        p = small_pipeline()
        assert p.selfmon.maybe_emit(0.0) == []
        assert p.selfmon.emissions == 0

    def test_emits_on_cadence_not_before(self):
        p = small_pipeline(SiteConfig(selfmon_interval_s=120.0))
        mon = p.selfmon
        mon.maybe_emit(0.0)
        assert mon.maybe_emit(60.0) == []
        batches = mon.maybe_emit(120.0)
        assert batches
        assert mon.emissions == 1

    def test_emitted_batches_land_in_tsdb_via_bus(self):
        p = small_pipeline(SiteConfig(selfmon_interval_s=60.0))
        p.run(duration_s=200.0, dt=10.0)
        metrics = {k.metric for k in p.tsdb.keys()}
        for family in ("selfmon.bus.", "selfmon.collector.",
                       "selfmon.store."):
            assert any(m.startswith(family) for m in metrics), family

    def test_rates_use_elapsed_time(self):
        p = small_pipeline()
        mon = p.selfmon
        mon.maybe_emit(0.0)
        for _ in range(100):
            p.bus.publish("metrics.node.cpu_util", None)
        batches = {b.metric: b for b in mon.sample(50.0, elapsed_s=50.0)}
        rate = batches["selfmon.bus.publish_rate"].values[0]
        assert rate == pytest.approx(2.0)   # 100 msgs / 50 s

    def test_collector_latency_summaries_cover_all_collectors(self):
        p = small_pipeline()
        p.run(duration_s=200.0, dt=10.0)
        b = p.tsdb.query("selfmon.collector.sweep_p95_ms", "node_counters")
        assert len(b)
        assert (b.values >= 0.0).all()

    def test_disabled_selfmon_emits_nothing(self):
        p = small_pipeline(SiteConfig(selfmon_interval_s=None))
        assert p.selfmon is None
        p.run(duration_s=200.0, dt=10.0)
        metrics = {k.metric for k in p.tsdb.keys()}
        assert not any(m.startswith("selfmon.") for m in metrics)

    def test_bad_interval_rejected(self):
        with pytest.raises(ValueError):
            SelfMonitor(small_pipeline(), interval_s=0.0)

    def test_all_emitted_metrics_are_declared(self):
        p = small_pipeline()
        mon = p.selfmon
        mon.maybe_emit(0.0)
        emitted = {b.metric for b in mon.sample(60.0, elapsed_s=60.0)}
        assert emitted <= set(SELFMON_METRICS)


class TestTieredSurfaces:
    """Per-partition / per-shard gauges appear exactly when the tiered
    backends are installed, and are registered like everything else."""

    def test_flat_stack_omits_partition_and_shard_gauges(self):
        p = small_pipeline()
        p.selfmon.maybe_emit(0.0)
        emitted = {b.metric for b in p.selfmon.sample(60.0, elapsed_s=60.0)}
        assert "selfmon.bus.partition_depth" not in emitted
        assert "selfmon.store.shard_points" not in emitted

    def test_partitioned_bus_emits_partition_gauges(self):
        from repro.transport.partitioned import PartitionedBus

        p = small_pipeline(transport=PartitionedBus(partitions=4))
        p.run(duration_s=200.0, dt=10.0)
        comps = p.tsdb.components("selfmon.bus.partition_depth")
        assert comps == [f"partition-{i}" for i in range(4)]
        drops = p.tsdb.components("selfmon.bus.partition_dropped")
        assert drops == comps

    def test_sharded_store_emits_shard_gauges(self):
        from repro.storage.sharded import ShardedTimeSeriesStore

        p = small_pipeline(tsdb=ShardedTimeSeriesStore(shards=3))
        p.run(duration_s=200.0, dt=10.0)
        for metric in ("selfmon.store.shard_points",
                       "selfmon.store.shard_series",
                       "selfmon.store.shard_bytes"):
            assert (p.tsdb.components(metric)
                    == [f"shard-{i}" for i in range(3)]), metric
        # the per-shard gauges sum to the whole-store gauge
        t = p.machine.now
        total = sum(
            p.tsdb.query("selfmon.store.shard_points", c).values[-1]
            for c in p.tsdb.components("selfmon.store.shard_points")
        )
        whole = p.tsdb.query("selfmon.store.tsdb_points", "tsdb").values[-1]
        assert total <= whole <= p.tsdb.stats().samples
        assert t > 0

    def test_aggtree_reports_leaf_depths_as_partition_gauge(self):
        from repro.transport.aggtree import AggregatorTree

        p = small_pipeline(transport=AggregatorTree(leaves=4))
        p.run(duration_s=200.0, dt=10.0)
        comps = p.tsdb.components("selfmon.bus.partition_depth")
        assert comps == [f"leaf-{i}" for i in range(4)]


class TestCacheGauges:
    """The decompressed-chunk cache is a selfmon surface like any other."""

    CACHE_METRICS = ("selfmon.store.cache_hits",
                     "selfmon.store.cache_misses",
                     "selfmon.store.cache_evictions",
                     "selfmon.store.cache_bytes")

    def test_cache_gauges_emitted_for_plain_store(self):
        p = small_pipeline()
        p.selfmon.maybe_emit(0.0)
        batches = {b.metric: b for b in p.selfmon.sample(60.0,
                                                         elapsed_s=60.0)}
        for m in self.CACHE_METRICS:
            assert m in batches, m
            assert batches[m].components[0] == "chunk-cache"

    def test_cache_counters_reflect_query_traffic(self):
        p = small_pipeline()
        p.run(duration_s=400.0, dt=10.0)
        p.tsdb.flush()
        comp = p.tsdb.components("node.cpu_util")[0]
        for _ in range(3):
            p.tsdb.query("node.cpu_util", comp)
        mon = p.selfmon
        batches = {b.metric: b for b in mon.sample(500.0, elapsed_s=100.0)}
        hits = batches["selfmon.store.cache_hits"].values[0]
        misses = batches["selfmon.store.cache_misses"].values[0]
        assert misses > 0          # the cold read decompressed chunks
        assert hits > 0            # the repeats were served from cache
        s = p.tsdb.cache_stats()
        assert (hits, misses) == (float(s.hits), float(s.misses))

    def test_cache_gauges_emitted_for_sharded_store(self):
        from repro.storage.sharded import ShardedTimeSeriesStore

        p = small_pipeline(tsdb=ShardedTimeSeriesStore(shards=3))
        p.selfmon.maybe_emit(0.0)
        emitted = {b.metric for b in p.selfmon.sample(60.0, elapsed_s=60.0)}
        assert set(self.CACHE_METRICS) <= emitted


class TestAnalysisGauges:
    """selfmon.analysis.* appears exactly when streaming detectors are
    installed, one component per detector name."""

    ANALYSIS_METRICS = (
        "selfmon.analysis.batches",
        "selfmon.analysis.detections",
        "selfmon.analysis.sweep_p50_ms",
        "selfmon.analysis.sweep_p95_ms",
        "selfmon.analysis.sweep_max_ms",
    )

    def test_names_declared_and_registered(self):
        reg = default_registry()
        for m in self.ANALYSIS_METRICS:
            assert m in SELFMON_METRICS
            reg.get(m)

    def test_no_detectors_no_gauges(self):
        p = small_pipeline()
        p.selfmon.maybe_emit(0.0)
        emitted = {b.metric for b in p.selfmon.sample(60.0, elapsed_s=60.0)}
        assert not any(m.startswith("selfmon.analysis.") for m in emitted)

    def test_detector_gauges_land_in_tsdb(self):
        from repro.analysis.streaming import (
            StreamingOutlierDetector,
            StreamingStats,
        )

        p = small_pipeline(SiteConfig(selfmon_interval_s=60.0))
        p.add_streaming(StreamingStats())
        p.add_streaming(
            StreamingOutlierDetector(("node.cpu_util",), z_threshold=4.0)
        )
        p.run(duration_s=300.0, dt=10.0)
        comps = set(p.tsdb.components("selfmon.analysis.batches"))
        assert {"StreamingStats", "StreamingOutlierDetector"} <= comps
        b = p.tsdb.query("selfmon.analysis.batches", "StreamingStats")
        assert b.values[-1] > 0            # it really observed traffic
        lat = p.tsdb.query(
            "selfmon.analysis.sweep_p95_ms", "StreamingStats"
        )
        assert (lat.values >= 0.0).all()

    def test_same_class_twice_gets_unique_gauge_components(self):
        from repro.analysis.streaming import StreamingStats

        p = small_pipeline(SiteConfig(selfmon_interval_s=60.0))
        p.add_streaming(StreamingStats())
        p.add_streaming(StreamingStats())
        p.run(duration_s=200.0, dt=10.0)
        comps = set(p.tsdb.components("selfmon.analysis.batches"))
        assert {"StreamingStats", "StreamingStats-2"} <= comps
