"""Unit tests for latency histograms and the self-metric emitter."""

import json

import numpy as np
import pytest

from repro.core.registry import (
    MetricClass,
    MetricSpec,
    default_registry,
)
from repro.obs import selfmetrics
from repro.obs.chaos import crash_and_recover
from repro.obs.hist import LatencyHistogram
from repro.obs.selfmetrics import (
    SELFMON_METRICS,
    VITALS,
    SelfMonitor,
    Vital,
    selfmon_specs,
)
from repro.pipeline import MonitoringPipeline
from repro.sites import SiteConfig, build_site
from repro.sources.counters import NodeCounterCollector
from repro.transport.base import BusStats
from tests.test_pipeline import make_machine


def completeness_ratio(delivered, dropped, errors):
    return BusStats(published=0, delivered=delivered, dropped=dropped,
                    subscriptions=0, errors=errors).completeness


class TestLatencyHistogram:
    def test_fold_and_percentiles(self):
        h = LatencyHistogram(window=16)
        for s in (1.0, 5.0, 10.0, 100.0):
            h.record(s)
        assert h.count == 4
        assert h.total_s == 116.0
        assert h.max_s == 100.0
        assert h.percentile(100.0) == 100.0

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
        assert list(h.summary(99.0)) == ["p50_s", "p99_s", "max_s",
                                         "count", "mean_s"]

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


def small_pipeline(**knobs):
    return MonitoringPipeline(
        make_machine(),
        SiteConfig(**knobs),
        collectors=[NodeCounterCollector(interval_s=60.0)],
    )


class TestSingleDeclaration:
    """A table row is the whole declaration of a self-metric."""

    def test_every_row_is_in_the_default_registry(self):
        reg = default_registry()
        specs = selfmon_specs()
        assert len({s.name for s in specs}) == len(specs)
        for spec in specs:
            assert reg.get(spec.name) is spec

    def test_one_extra_row_is_the_whole_change(self, monkeypatch, capsys):
        from repro.__main__ import main

        row = Vital(
            MetricSpec("selfmon.store.job_rows", "count",
                       MetricClass.GAUGE, "monitor",
                       "Jobs resident in the job index."),
            "jobstore", lambda jobs: jobs["rows"])
        monkeypatch.setattr(selfmetrics, "VITALS", (
            *selfmetrics.VITALS,
            ("jobs", lambda p: {"rows": len(p.jobs)}, (row,))))
        assert ("selfmon.store.job_rows | count | gauge | monitor | "
                "Jobs resident in the job index."
                in default_registry().document())
        p = small_pipeline()
        p.selfmon.maybe_emit(0.0)
        assert "selfmon.store.job_rows" in {
            b.metric for b in p.selfmon.sample(60.0, elapsed_s=60.0)}
        p.run(duration_s=200.0, dt=10.0)
        stored = p.tsdb.query("selfmon.store.job_rows", "jobstore")
        assert len(stored)
        assert stored.values[-1] == len(p.jobs)
        # ... and the report, its render and the JSON report follow
        assert p.introspect().report().sections["jobs"] == {
            "rows": len(p.jobs)}
        assert f"jobs: rows={len(p.jobs)}" in p.introspect().render()
        assert main(["obs", "--hours", "0.05", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["report"]["jobs"]["rows"] >= 0
        assert "selfmon.store.job_rows" in doc["selfmon"]

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
        # the health report is one more reading of the same table
        p.introspect().report()
        assert calls == {"bus.stats": 2, "delivery_report": 2,
                         "frontend.stats": 2}


class TestReportAgreesWithSeries:
    """At a selfmon emit instant, every non-rate row's published value
    is the report's reading of the same group."""

    @pytest.mark.parametrize("knobs", [
        {},
        {"transport": "partitioned", "shards": 4, "chunk_size": 8,
         "hot_bytes": 16 << 10, "disk": True},
    ], ids=["flat-single", "partitioned-sharded-disk"])
    def test_published_values_equal_the_report(self, knobs, tmp_path):
        from repro.analysis.streaming import StreamingStats

        knobs = dict(knobs)
        if knobs.pop("disk", False):
            knobs["store_dir"] = str(tmp_path / "store")
        p = build_site(SiteConfig(seed=3, **knobs), machine=make_machine())
        p.add_streaming(StreamingStats())
        emits = []
        sample = p.selfmon.sample

        def sample_then_report(now, elapsed_s):
            batches = sample(now, elapsed_s)
            emits.append((batches, p.introspect().report()))
            return batches

        p.selfmon.sample = sample_then_report
        p.run(duration_s=900.0, dt=10.0)
        batches, report = emits[-1]
        published = {b.metric: dict(zip(b.components, b.values.tolist()))
                     for b in batches}
        checked = 0
        for section, _read, rows in selfmetrics.VITALS:
            reading = report.sections[section]
            for row in rows:
                name = row.spec.name
                if row.rate is not None:
                    continue
                if reading is None:
                    assert name not in published, name
                    continue
                value = row.field(reading)
                want = ({row.component: value} if row.component is not None
                        else value)
                got = published.get(name, {})
                assert list(got) == list(want), name
                assert np.array_equal(list(got.values()),
                                      [float(v) for v in want.values()],
                                      equal_nan=True), name
                checked += 1
        assert checked >= 40
        if knobs:
            assert report.sections["disk_tier"]["spills"] > 0
        p.tsdb.close()


class TestRatesAcrossStoreSwap:
    RATES = [row.spec.name for _section, _read, rows in selfmetrics.VITALS
             for row in rows if row.rate is selfmetrics._per_second]

    def test_no_rate_goes_negative_across_crash_and_recover(self, tmp_path):
        p = build_site(SiteConfig(
            shards=2, chunk_size=8, store_dir=str(tmp_path),
            hot_bytes=16 << 10, tick_s=60, metric_interval_s=60))
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
        p.tsdb.close()


class TestSelfMonitor:
    def test_first_call_is_baseline_only(self):
        p = small_pipeline()
        assert p.selfmon.maybe_emit(0.0) == []
        assert p.selfmon.emissions == 0

    def test_emits_on_cadence_not_before(self):
        p = small_pipeline()
        mon = p.selfmon = SelfMonitor(p, interval_s=120.0)
        mon.maybe_emit(0.0)
        assert mon.maybe_emit(60.0) == []
        batches = mon.maybe_emit(120.0)
        assert batches
        assert mon.emissions == 1

    def test_emitted_batches_land_in_tsdb_via_bus(self):
        p = small_pipeline()
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

    def test_bad_interval_rejected(self):
        with pytest.raises(ValueError):
            SelfMonitor(small_pipeline(), interval_s=0.0)

    def test_each_row_publishes_one_held_name_column(self):
        """Two sweeps hand every row the same read-only column object, so
        every identity memo downstream hits; a row whose components
        change gets a new one, and no more columns are held than
        ``VITALS`` has rows."""
        p = small_pipeline()
        mon = p.selfmon
        mon.maybe_emit(0.0)
        first = {b.metric: b.components for b in mon.sample(60.0, 60.0)}
        second = {b.metric: b.components for b in mon.sample(120.0, 60.0)}
        assert first.keys() == second.keys()
        for name, column in second.items():
            assert column is first[name], name
            assert not column.flags.writeable
        depth = "selfmon.bus.queue_depth"
        p.bus.subscribe("metrics.*", name="extra-consumer")
        third = {b.metric: b.components for b in mon.sample(180.0, 60.0)}
        assert third[depth] is not second[depth]
        assert "extra-consumer" in third[depth].tolist()
        assert all(third[m] is second[m] for m in third if m != depth)
        for i in range(5):          # changed components replace, not add
            p.bus.subscribe("metrics.*", name=f"consumer-{i}")
            mon.sample(240.0 + 60.0 * i, 60.0)
        assert len(mon._columns) <= sum(len(rows) for _, _, rows in VITALS)
        assert len(mon._columns) == len(third)

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
        p = small_pipeline(transport="partitioned")
        p.run(duration_s=200.0, dt=10.0)
        comps = p.tsdb.components("selfmon.bus.partition_depth")
        assert comps == [f"partition-{i}" for i in range(4)]
        drops = p.tsdb.components("selfmon.bus.partition_dropped")
        assert drops == comps

    def test_sharded_store_emits_shard_gauges(self):
        p = small_pipeline(shards=3)
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
        p = small_pipeline(transport="tree")
        p.run(duration_s=200.0, dt=10.0)
        comps = p.tsdb.components("selfmon.bus.partition_depth")
        assert comps == [f"leaf-{i}" for i in range(p.bus.n_leaves)]

    @pytest.mark.degrades
    def test_aggtree_reports_leaf_drops_per_leaf(self):
        """Leaf overflow is the tree's loss: it is published per leaf,
        like a partition's drop-oldest evictions."""
        p = small_pipeline(transport="tree")
        tree = p.bus
        for leaf in tree._leaves:      # overflow every leaf of the live tree
            leaf.maxlen = 1
        p.run(duration_s=200.0, dt=10.0)
        dropped = tree.stats().dropped_batches
        assert dropped > 0
        batches = {b.metric: b for b in p.selfmon.sample(
            p.machine.now, elapsed_s=60.0)}
        row = batches["selfmon.bus.partition_dropped"]
        assert list(row.components) == [f"leaf-{i}"
                                        for i in range(tree.n_leaves)]
        assert row.values.sum() == dropped


class TestCacheGauges:
    """The decompressed-chunk cache is a selfmon surface like any other."""

    CACHE_METRICS = ("selfmon.store.cache_hits",
                     "selfmon.store.cache_misses",
                     "selfmon.store.cache_evictions",
                     "selfmon.store.cache_bytes",
                     "selfmon.store.cache_entries")

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
        p = small_pipeline(shards=3)
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

        p = small_pipeline()
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

        p = small_pipeline()
        p.add_streaming(StreamingStats())
        p.add_streaming(StreamingStats())
        p.run(duration_s=200.0, dt=10.0)
        comps = set(p.tsdb.components("selfmon.analysis.batches"))
        assert {"StreamingStats", "StreamingStats-2"} <= comps
