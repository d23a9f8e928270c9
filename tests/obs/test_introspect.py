"""Integration tests: the pipeline observing itself end to end."""

import pytest

from repro.cluster import HungNode, SlowOst
from repro.sites import SiteConfig, build_site
from tests.test_pipeline import make_machine


@pytest.fixture(scope="module")
def monitored_run():
    """A ≥1-simulated-hour workload with self-monitoring enabled."""
    m = make_machine()
    m.faults.add(HungNode(start=900.0, duration=1200.0,
                          node=m.topo.nodes[5]))
    m.faults.add(SlowOst(start=1800.0, duration=1200.0, ost=0,
                         bw_factor=0.1))
    p = build_site(SiteConfig(seed=1), machine=m)
    p.run(hours=1.0, dt=10.0)
    return p


class TestSelfMonSeries:
    def test_selfmon_families_reach_tsdb(self, monitored_run):
        metrics = {k.metric for k in monitored_run.tsdb.keys()}
        for m in ("selfmon.bus.publish_rate", "selfmon.bus.completeness",
                  "selfmon.bus.queue_depth",
                  "selfmon.collector.sweep_p50_ms",
                  "selfmon.collector.sweep_p95_ms",
                  "selfmon.collector.sweep_max_ms",
                  "selfmon.store.tsdb_ingest_rate",
                  "selfmon.store.tsdb_points",
                  "selfmon.store.log_events",
                  "selfmon.store.sql_bytes",
                  "selfmon.pipeline.tick_ms"):
            assert m in metrics, m

    def test_selfmon_series_are_per_component(self, monitored_run):
        p = monitored_run
        # one latency series per collector
        comps = set(p.tsdb.components("selfmon.collector.sweep_p50_ms"))
        assert {c.name for c in p.scheduler.collectors} <= comps
        # one queue-depth series per subscription
        comps = set(p.tsdb.components("selfmon.bus.queue_depth"))
        assert {"tsdb-ingest", "selfmon-ingest", "log-ingest"} <= comps

    def test_counters_are_monotone(self, monitored_run):
        b = monitored_run.tsdb.query("selfmon.store.tsdb_points", "tsdb")
        assert len(b) >= 50        # one per cadence over the hour
        assert (b.values[1:] >= b.values[:-1]).all()

    def test_selfmon_appears_on_dashboard(self, monitored_run):
        p = monitored_run
        tiles = p.dashboard().selfmon_tiles(p.machine.now, window_s=600.0)
        names = {t.name for t in tiles}
        assert "data-path completeness" in names
        assert "monitoring tick" in names
        text = p.dashboard().render(p.machine.now, window_s=600.0)
        assert "monitoring plane" in text
        assert "data-path completeness" in text


class TestHealthReport:
    def test_stage_timings_cover_every_stage(self, monitored_run):
        report = monitored_run.introspect().report()
        stage_names = {s.name for s in report.stages}
        assert {s.name for s in monitored_run.stages} <= stage_names
        for s in report.stages:
            assert s.calls > 0
            assert s.total_s >= 0.0
            assert s.max_ms >= s.mean_ms - 1e9 * 0.0  # max is a max
        assert report.ticks == 360                    # one hour at 10 s

    def test_custom_stage_gets_a_timing_row(self):
        from repro.stages import default_stages

        class Heartbeat:
            name, plane, after = "heartbeat", "obs", ()

            def run(self, pipeline, now):
                return []

        p = build_site(SiteConfig(seed=1), machine=make_machine(),
                       overrides={"stages": [*default_stages(), Heartbeat()]})
        p.run(duration_s=100.0, dt=10.0)
        row = next(s for s in p.introspect().report().stages
                   if s.name == "heartbeat")
        assert row.calls == 10
        assert "heartbeat" in p.introspect().render()

    def test_completeness_is_one_under_no_drop(self, monitored_run):
        report = monitored_run.introspect().report()
        assert report.completeness == 1.0
        assert report.bus["dropped"] == 0
        assert report.bus["errors"] == 0

    def test_completeness_below_one_when_forced_to_drop(self):
        m = make_machine()
        p = build_site(SiteConfig(seed=1), machine=m)
        # a deliberately tiny bounded subscription that must drop under
        # the full sweep load
        starved = p.bus.subscribe("metrics.*", maxlen=5, name="starved")
        p.run(duration_s=600.0, dt=10.0)
        assert starved.dropped > 0
        report = p.introspect().report()
        assert report.completeness < 1.0
        # and the selfmon series recorded the loss as it happened
        b = p.tsdb.query("selfmon.bus.completeness", "bus")
        assert len(b)
        assert b.values[-1] < 1.0

    def test_queue_depth_reports_backpressure(self, monitored_run):
        p = monitored_run
        report = p.introspect().report()
        assert "tsdb-ingest" in report.queue_depths
        sub = p.bus.subscribe("metrics.*", name="lagging-consumer")
        for _ in range(12):            # two minutes: every collector sweeps
            p.step(10.0)
        report = p.introspect().report()
        assert report.queue_depths["lagging-consumer"] == len(sub) > 0
        assert "lagging-consumer" in report.backpressured
        p.bus.unsubscribe(sub)

    def test_slowest_spans_present(self, monitored_run):
        report = monitored_run.introspect().report(slowest_n=3)
        assert len(report.slowest_spans) == 3
        durations = [ms for _, ms, _ in report.slowest_spans]
        assert durations == sorted(durations, reverse=True)

    def test_collector_latency_summaries(self, monitored_run):
        report = monitored_run.introspect().report()
        for c in monitored_run.scheduler.collectors:
            entry = report.collectors[c.name]
            assert entry["sweeps"] > 0
            assert entry["p50_ms"] <= entry["p95_ms"] <= entry["max_ms"]

    def test_render_is_complete(self, monitored_run):
        text = monitored_run.introspect().render()
        assert "data-path completeness: 1.0000" in text
        for stage in monitored_run.stages:
            assert stage.name in text
        assert "slowest spans" in text
        assert "stores:" in text
        assert "chunk cache:" in text

    def test_chunk_cache_counters_reported(self, monitored_run):
        p = monitored_run
        p.tsdb.flush()
        comp = p.tsdb.components("node.cpu_util")[0]
        for _ in range(2):
            p.tsdb.query("node.cpu_util", comp)
        report = p.introspect().report()
        assert report.chunk_cache["misses"] > 0
        assert report.chunk_cache["hits"] > 0
        assert 0.0 < report.chunk_cache["hit_ratio"] <= 1.0


class TestIntrospectorWithArchivedStore:
    def test_archived_disk_store_reports(self, tmp_path):
        m = make_machine()
        p = build_site(
            SiteConfig(seed=1, store_dir=str(tmp_path), chunk_size=8),
            machine=m)
        p.run(duration_s=1200.0, dt=10.0)
        assert p.tsdb.archive_before(600.0) > 0
        report = p.introspect().report()
        assert report.stores["tsdb_points"] > 0
        assert report.disk["spills"] > 0
        assert report.disk["hot_bytes"] < report.stores["tsdb_bytes"]
        assert "disk tier:" in p.introspect().render()
        p.tsdb.disk.close()


class TestTieredStackReport:
    def test_flat_stack_reports_no_partitions_or_shards(self, monitored_run):
        report = monitored_run.introspect().report()
        assert report.partitions == {}
        assert report.shards == {}

    @pytest.fixture(scope="class")
    def tiered_run(self):
        p = build_site(
            SiteConfig(seed=1, transport="partitioned", shards=4),
            machine=make_machine())
        p.run(duration_s=600.0, dt=10.0)
        return p

    def test_partitioned_sharded_stack_reports_both(self, tiered_run):
        p = tiered_run
        report = p.introspect().report()
        assert sorted(report.partitions) == [
            f"partition-{i}" for i in range(4)
        ]
        assert sorted(report.shards) == [f"shard-{i}" for i in range(4)]
        assert (sum(s["points"] for s in report.shards.values())
                == p.tsdb.stats().samples)
        text = p.introspect().render()
        assert "partitions:" in text
        assert "shards:" in text

    def test_dashboard_builds_every_selfmon_tile(self, tiered_run):
        # the dashboard degrades away on a series it cannot find, so a
        # misspelt selfmon name there shows up as a missing tile here
        p = tiered_run
        assert p.supervisor is not None and p.freshness is not None
        tiles = p.dashboard().selfmon_tiles(p.machine.now, window_s=600.0)
        names = [t.name.split(" (")[0] for t in tiles]
        assert names == [
            "data-path completeness", "bus backlog", "monitoring tick",
            "tsdb ingest", "partition backlog", "shard skew",
            "monitor health", "accounted loss", "unaccounted points",
            "ingest-to-queryable p99", "freshness SLO burn",
            "freshness SLO breaches", "query cache hit ratio",
            "query rate", "queries shed",
        ]


class TestAnalysisSection:
    """Streaming detectors surface in the health report and render."""

    @pytest.fixture(scope="class")
    def streaming_run(self):
        from repro.analysis.streaming import (
            StreamingOutlierDetector,
            StreamingStats,
        )

        p = build_site(SiteConfig(seed=2), machine=make_machine())
        p.add_streaming(StreamingStats())
        p.add_streaming(
            StreamingOutlierDetector(("node.power_w",), z_threshold=4.0)
        )
        p.run(duration_s=600.0, dt=10.0)
        return p

    def test_report_covers_every_detector(self, streaming_run):
        report = streaming_run.introspect().report()
        assert set(report.analysis) == {
            "StreamingStats", "StreamingOutlierDetector"
        }
        for entry in report.analysis.values():
            assert entry["batches"] > 0
            assert entry["samples"] > 0
            assert entry["p50_ms"] <= entry["p95_ms"] <= entry["max_ms"]

    def test_render_lists_detectors(self, streaming_run):
        text = streaming_run.introspect().render()
        assert "streaming detectors:" in text
        assert "StreamingStats" in text

    def test_no_detectors_no_section(self, monitored_run):
        report = monitored_run.introspect().report()
        assert report.analysis == {}
        assert "streaming detectors:" not in monitored_run.introspect().render()
