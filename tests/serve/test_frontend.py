"""Unit tests: the multi-tenant front end's caching, shedding, planning."""

import numpy as np

from repro.core.metric import SeriesBatch
from repro.serve.frontend import QueryFrontend
from repro.serve.quota import TenantQuota
from repro.storage.rollup import DEFAULT_LEVELS
from repro.storage.sharded import ShardedTimeSeriesStore
from repro.storage.tsdb import TimeSeriesStore


def make_store(comps=("c0", "c1"), n=500, **kw):
    kw.setdefault("chunk_size", 64)
    kw.setdefault("pyramid_levels", DEFAULT_LEVELS)
    store = TimeSeriesStore(**kw)
    rng = np.random.default_rng(5)
    t = np.sort(rng.uniform(0.0, 7200.0, n)).round(3)
    for c in comps:
        store.append(SeriesBatch.for_component(
            "m.x", c, t, rng.normal(size=n)))
    return store


class TestResultCaching:
    def test_repeat_query_is_the_same_object(self):
        fe = QueryFrontend(make_store())
        r1 = fe.downsample("m.x", "c0", 0.0, 7200.0, 60.0, "max")
        r2 = fe.downsample("m.x", "c0", 0.0, 7200.0, 60.0, "max")
        assert r2 is r1
        assert fe.stats().cache.hits == 1

    def test_append_invalidates_only_that_metric(self):
        store = make_store()
        store.append(SeriesBatch.for_component(
            "m.other", "c0", [1.0, 2.0], [0.0, 1.0]))
        fe = QueryFrontend(store)
        rx = fe.downsample("m.x", "c0", 0.0, 7200.0, 60.0, "max")
        ro = fe.query("m.other", "c0")
        store.append(SeriesBatch.for_component("m.x", "c0",
                                               [9000.0], [1.0]))
        assert fe.downsample("m.x", "c0", 0.0, 7200.0, 60.0,
                             "max") is not rx
        assert fe.query("m.other", "c0") is ro   # untouched metric: hit
        assert fe.stats().cache.stale == 1

    def test_drop_series_invalidates(self):
        store = make_store()
        fe = QueryFrontend(store)
        r1 = fe.query_components("m.x")
        store.drop_series("m.x", "c1")
        r2 = fe.query_components("m.x")
        assert r2 is not r1
        assert sorted(r2) == ["c0"]

    def test_all_answers_match_store_paths(self):
        store = make_store()
        fe = QueryFrontend(store)
        for agg in ("mean", "sum", "min", "max", "last", "count"):
            got = fe.downsample("m.x", "c0", 123.4, 7000.0, 60.0, agg)
            want = store.downsample("m.x", "c0", 123.4, 7000.0, 60.0,
                                    agg, prune=False)
            assert np.array_equal(got.times, want.times)
            if agg in ("mean", "sum"):
                assert np.allclose(got.values, want.values, rtol=1e-9)
            else:
                assert np.array_equal(got.values, want.values,
                                      equal_nan=True)
        # a component named twice counts once, as in the store's
        # query_components dict — in the answer and in the cache key
        ones = TimeSeriesStore(chunk_size=16, pyramid_levels=DEFAULT_LEVELS)
        for c in ("a", "b"):
            ones.append(SeriesBatch.for_component(
                "m", c, np.arange(60) * 10.0, np.ones(60)))
        fe = QueryFrontend(ones)
        got = fe.aggregate_across("m", ["a", "a", "b"], 0.0, 600.0, 60.0,
                                  "count")
        want = ones.aggregate_across("m", ["a", "a", "b"], 0.0, 600.0,
                                     60.0, "count")
        assert np.array_equal(got.times, want.times)
        assert got.values.tolist() == want.values.tolist() == [12.0] * 10
        assert fe.aggregate_across("m", ["a", "a", "b"], 0.0, 600.0, 60.0,
                                   "count") is got
        assert fe.stats().cache.hits == 1

    def test_pyramid_counter_moves_on_eligible_grid(self):
        fe = QueryFrontend(make_store())
        fe.downsample("m.x", "c0", 0.0, 7200.0, 600.0, "min")
        fe.downsample("m.x", "c0", 0.0, 7200.0, 77.0, "min")  # ineligible
        s = fe.stats()
        assert s.pyramid_answers == 1 and s.raw_answers == 1
        assert 0.0 < s.pyramid_ratio < 1.0

    def test_pyramidless_store_still_serves(self):
        store = make_store(pyramid_levels=None)
        fe = QueryFrontend(store)
        got = fe.downsample("m.x", "c0", 0.0, 7200.0, 60.0, "max")
        want = store.downsample("m.x", "c0", 0.0, 7200.0, 60.0, "max")
        assert np.array_equal(got.times, want.times)
        assert np.array_equal(got.values, want.values)
        assert fe.stats().pyramid_answers == 0


class TestTenantShedding:
    def test_rejection_returns_empty_shapes(self):
        fe = QueryFrontend(make_store(),
                           quotas={"g": TenantQuota(qps=0.0, burst=0.0)})
        assert len(fe.query("m.x", "c0", tenant="g")) == 0
        assert fe.query_components("m.x", tenant="g") == {}
        assert fe.components("m.x", tenant="g") == []
        assert len(fe.downsample("m.x", "c0", 0.0, 1.0, 1.0,
                                 tenant="g")) == 0
        assert len(fe.aggregate_across("m.x", tenant="g")) == 0
        s = fe.stats()
        assert s.rejected == 5 and s.admitted == 0
        assert fe.tenant_stats("g").rejected_rate == 5

    def test_tenants_are_isolated(self):
        fe = QueryFrontend(make_store(),
                           quotas={"g": TenantQuota(qps=0.0, burst=0.0)})
        assert len(fe.query("m.x", "c0", tenant="ops")) > 0
        assert len(fe.query("m.x", "c0", tenant="g")) == 0
        assert fe.tenant_stats("ops").rejected == 0

    def test_concurrency_slot_released_after_answer(self):
        fe = QueryFrontend(make_store(),
                           quotas={"t": TenantQuota(max_concurrent=1)})
        for _ in range(5):      # sequential queries never collide
            assert len(fe.query("m.x", "c0", tenant="t")) > 0
        assert fe.tenant_stats("t").rejected_concurrency == 0


class TestShardedStore:
    def test_failed_shard_matches_store_and_invalidates(self):
        store = ShardedTimeSeriesStore(shards=3, chunk_size=64,
                                       pyramid_levels=DEFAULT_LEVELS)
        rng = np.random.default_rng(6)
        t = np.sort(rng.uniform(0.0, 7200.0, 400)).round(3)
        for c in ("c0", "c1", "c2", "c3"):
            store.append(SeriesBatch.for_component(
                "m.x", c, t, rng.normal(size=400)))
        fe = QueryFrontend(store)
        before = fe.aggregate_across("m.x", step=600.0, agg="max",
                                     t0=0.0, t1=7200.0)
        victim = store.shard_of("m.x", "c0")
        store.fail_shard(victim)
        after = fe.aggregate_across("m.x", step=600.0, agg="max",
                                    t0=0.0, t1=7200.0)
        want = store.aggregate_across("m.x", step=600.0, agg="max",
                                      t0=0.0, t1=7200.0)
        assert after is not before          # health epoch moved
        assert np.array_equal(after.times, want.times)
        assert np.array_equal(after.values, want.values, equal_nan=True)
        store.recover_shard(victim)
        healed = fe.aggregate_across("m.x", step=600.0, agg="max",
                                     t0=0.0, t1=7200.0)
        assert healed is not after
