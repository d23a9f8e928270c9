"""The declarative site layer: validation, the single assembly path,
and the config round-trip contract.

A :class:`~repro.sites.config.SiteConfig` is a whole deployment as
data; building it (:func:`~repro.sites.build.build_site`) and then
introspecting the live stack
(:func:`~repro.sites.build.site_capabilities`) must reproduce the
declared capability row *exactly* — that equality is what keeps the
regenerated Table I machine-checkable instead of hand-maintained.
"""

import numpy as np
import pytest

from repro.obs.trace import Tracer
from repro.pipeline import MonitoringPipeline
from repro.serve.quota import TenantQuota
from repro.sites import (
    PAPER_SITES,
    SiteConfig,
    build_machine,
    build_site,
    paper_site,
    site_capabilities,
)


class TestValidation:
    def test_defaults_are_valid(self):
        cfg = SiteConfig()
        assert cfg.name == ""
        assert cfg.expected_nodes() == 2 * 3 * 4 * 4

    def test_qualified_name_syntax_is_reserved(self):
        with pytest.raises(ValueError, match="may not contain"):
            SiteConfig(name="a/b")
        with pytest.raises(ValueError, match="may not contain"):
            SiteConfig(name="two words")

    def test_unknown_topology(self):
        with pytest.raises(ValueError, match="unknown topology"):
            SiteConfig(topology="hypercube")

    def test_dragonfly_wiring_constraint(self):
        with pytest.raises(ValueError, match="multiple of 3"):
            SiteConfig(chassis_per_group=4)

    def test_torus_dims(self):
        with pytest.raises(ValueError, match="three counts"):
            SiteConfig(topology="torus", torus_dims=(4, 4, 0))
        cfg = SiteConfig(topology="torus", torus_dims=(3, 2, 2))
        assert cfg.expected_nodes() == 3 * 2 * 2 * 2

    def test_unknown_transport(self):
        with pytest.raises(ValueError, match="unknown transport"):
            SiteConfig(transport="carrier-pigeon")

    def test_bad_counts(self):
        with pytest.raises(ValueError, match="shards"):
            SiteConfig(shards=0)
        with pytest.raises(ValueError, match="workers"):
            SiteConfig(workers=0)
        with pytest.raises(ValueError, match="chunk_size"):
            SiteConfig(chunk_size=1)
        with pytest.raises(ValueError, match="pyramid_levels"):
            SiteConfig(pyramid_levels=())

    def test_bad_intervals(self):
        with pytest.raises(ValueError, match="tick_s"):
            SiteConfig(tick_s=0.0)
        with pytest.raises(ValueError, match="selfmon_interval_s"):
            SiteConfig(selfmon_interval_s=-1.0)
        # None means "selfmon off", not an interval
        assert SiteConfig(selfmon_interval_s=None).selfmon_interval_s is None

    def test_gpu_nodes_shapes(self):
        SiteConfig(gpu_nodes=None)
        SiteConfig(gpu_nodes="all")
        SiteConfig(gpu_nodes=("c0-0c0s0n0",))
        with pytest.raises(ValueError, match="gpu_nodes"):
            SiteConfig(gpu_nodes=42)


class TestInstanceOverrides:
    """A live part may replace what the config would build, never
    contradict what it declares."""

    def test_tsdb_vs_store_dir(self):
        with pytest.raises(ValueError,
                           match="pass either tsdb= or store_dir=, not both"):
            build_site(SiteConfig(store_dir="/tmp/x"),
                       overrides={"tsdb": object()})

    def test_tsdb_vs_shards(self):
        from repro.storage.tsdb import TimeSeriesStore

        # would build one store under a row declaring four shards
        with pytest.raises(ValueError,
                           match="pass either tsdb= or shards=, not both"):
            build_site(SiteConfig(shards=4),
                       overrides={"tsdb": TimeSeriesStore()})

    def test_workers_vs_executor(self):
        from repro.runtime.executor import SerialExecutor

        with pytest.raises(ValueError,
                           match="pass either workers= or executor=, not both"):
            build_site(SiteConfig(workers=2),
                       overrides={"executor": SerialExecutor()})

    def test_the_constructor_rejects_them_too(self):
        config = SiteConfig(shards=4)
        with pytest.raises(ValueError,
                           match="pass either tsdb= or shards=, not both"):
            MonitoringPipeline(build_machine(config), config, tsdb=object())

    def test_instances_install_verbatim(self):
        from repro.runtime.executor import SerialExecutor
        from repro.storage.tsdb import TimeSeriesStore
        from repro.transport import MessageBus

        bus, store, ex = MessageBus(), TimeSeriesStore(), SerialExecutor()
        pipeline = build_site(SiteConfig(), overrides={
            "transport": bus, "tsdb": store, "executor": ex})
        assert pipeline.bus is bus
        assert pipeline.tsdb is store
        assert pipeline.executor is ex


class TestRoundTrip:
    """SiteConfig -> build_site -> introspect reproduces the declaration."""

    @pytest.mark.parametrize("name", sorted(PAPER_SITES))
    def test_every_paper_preset_round_trips(self, name):
        config = paper_site(name)
        pipeline = build_site(config)
        assert site_capabilities(pipeline) == config.capabilities()

    def test_anonymous_default_round_trips(self):
        config = SiteConfig()
        pipeline = build_site(config)
        assert site_capabilities(pipeline) == config.capabilities()
        # anonymous single-site keeps the historic selfmon identity
        assert pipeline.site == ""

    @pytest.mark.parametrize("knobs", [
        dict(with_health_gate=False),
        dict(transport="partitioned", shards=4, chunk_size=8,
             hot_bytes=16 << 10, disk=True),
        dict(transport="flat", shards=4, chunk_size=8,
             hot_bytes=16 << 10, disk=True),
    ], ids=["sweep", "durable-seal", "dash-wave"])
    def test_bench_shaped_configs_round_trip(self, knobs, tmp_path):
        # the benchmark's workloads at their 96-node smoke size (the
        # fourth, fed-10site, is the paper presets above)
        knobs = dict(knobs)
        if knobs.pop("disk", False):
            knobs["store_dir"] = str(tmp_path / "store")
        config = SiteConfig(metric_interval_s=60.0, tick_s=60.0, seed=3,
                            **knobs)
        assert config.expected_nodes() == 96
        assert site_capabilities(build_site(config)) == config.capabilities()

    def test_disk_tier_round_trips(self, tmp_path):
        config = SiteConfig(name="d", shards=2,
                            store_dir=str(tmp_path / "cold"))
        pipeline = build_site(config)
        caps = site_capabilities(pipeline)
        assert caps == config.capabilities()
        assert caps["disk"] is True and caps["shards"] == 2

    def test_quotas_round_trip(self):
        config = SiteConfig(name="q", quotas={
            "users": TenantQuota(qps=10.0), "ops": TenantQuota(),
        })
        assert site_capabilities(build_site(config))["tenants"] == 2

    def test_unknown_preset_is_a_clear_error(self):
        with pytest.raises(KeyError, match="unknown site"):
            paper_site("antarctica")

    def test_ten_sites_and_they_differ(self):
        assert len(PAPER_SITES) == 10
        rows = [c.capabilities() for c in PAPER_SITES.values()]
        # heterogeneity is the point: the rows must not collapse
        assert len({r["transport"] for r in rows}) == 3
        assert len({(r["topology"], r["nodes"]) for r in rows}) > 1


def _lean_collectors():
    from repro.sources.counters import NodeCounterCollector
    from repro.sources.sedc import SedcCollector

    return [NodeCounterCollector(60.0), SedcCollector(60.0)]


class TestSinglePath:
    """The constructor and ``build_site`` are the same assembly."""

    def test_plain_build_is_anonymous_and_runs(self):
        pipeline = build_site(SiteConfig(seed=3))
        assert isinstance(pipeline, MonitoringPipeline)
        assert pipeline.site == ""
        pipeline.run(hours=0.05, dt=10.0)
        pipeline.bus.flush()
        report = pipeline.delivery_report()
        assert report.balanced and report.unaccounted == 0
        assert report.lost == 0
        # fault-free: every stage has a breaker record and none moved
        health = pipeline.health_report()
        assert any(name.startswith("stage:") for name in health)
        assert all(rec["state"] == "ok" for rec in health.values())
        assert pipeline.supervisor.transitions == []

    def test_pipeline_always_carries_its_config(self):
        config = SiteConfig(shards=2, workers=2, tick_s=30.0, name="s")
        pipeline = build_site(config)
        assert pipeline.site_config is config
        assert pipeline.tick_s == 30.0 and pipeline.site == "s"
        pipeline.executor.shutdown()
        bare = MonitoringPipeline(build_machine(SiteConfig()))
        assert bare.site_config == SiteConfig()

    def test_pipeline_only_plumbing_passes_through(self):
        from repro.core.registry import default_registry

        reg = default_registry()
        pipeline = build_site(SiteConfig(), overrides={"registry": reg})
        assert pipeline.registry is reg

    def test_constructor_and_build_site_agree(self):
        config = SiteConfig(metric_interval_s=60.0, tick_s=60.0,
                            with_health_gate=False, seed=11)
        direct = MonitoringPipeline(build_machine(config), config,
                                    collectors=_lean_collectors())
        built = build_site(config,
                           overrides={"collectors": _lean_collectors()})
        for p in (direct, built):
            for _ in range(30):
                p.step()
            p.bus.flush()
        assert direct.delivery_report() == built.delivery_report()
        assert direct.alerts.alerts == built.alerts.alerts
        keys = sorted(direct.tsdb.keys(),
                      key=lambda k: (k.metric, k.component))
        assert keys == sorted(built.tsdb.keys(),
                              key=lambda k: (k.metric, k.component))
        assert len(keys) > 500
        for key in keys:
            if key.metric.startswith("selfmon."):
                continue        # wall-clock gauges of the run itself
            a = direct.tsdb.query(key.metric, key.component)
            b = built.tsdb.query(key.metric, key.component)
            assert np.array_equal(a.times, b.times), key
            assert np.array_equal(a.values, b.values), key

    def test_planes_switched_off_in_the_config_are_absent(self):
        config = SiteConfig(selfmon_interval_s=None, supervision=False,
                            freshness=False)
        built = build_site(config,
                           overrides={"tracer": Tracer(enabled=False)})
        for p in (built,
                  MonitoringPipeline(build_machine(config), config)):
            assert p.selfmon is None
            assert p.supervisor is None
            assert p.ledger is None
            assert p.freshness is None
        # ... and a run with them off pays and leaves nothing
        built.run(duration_s=200.0, dt=10.0)
        assert built.tsdb.stats().samples > 0
        assert built.delivery_report() is None
        assert built.health_report() == {}
        assert not built.scheduler.trace_batches
        assert built.tracer.aggregate() == {}
        assert not any(k.metric.startswith("selfmon.")
                       for k in built.tsdb.keys())
