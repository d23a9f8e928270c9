"""Unit tests: the multi-tenant front end's caching, shedding, planning."""

import numpy as np
import pytest

from repro.core.metric import SeriesBatch
from repro.serve.frontend import QueryFrontend
from repro.serve.quota import TenantQuota, TenantStats
from repro.storage.rollup import DEFAULT_LEVELS, bucket_anchor, reduce_partials
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

    def test_latest_is_cached_and_revalidates_against_the_epoch(self):
        store = make_store(comps=("c0", "c1", "c2"))
        fe = QueryFrontend(store)
        first = fe.latest("m.x", ["c2", "c0", "c2"], 0.0, 8000.0)
        assert fe.latest("m.x", ("c2", "c0"), 0, 8000) is first   # one plan
        assert first.components.tolist() == ["c2", "c0"]
        store.append(SeriesBatch.sweep("m.x", 7500.0, ["c0", "c1", "c2"],
                                       [1.0, 2.0, 3.0]))
        moved = fe.latest("m.x", ["c2", "c0"], 0.0, 8000.0)
        assert moved is not first
        assert fe.stats().cache.stale == 1
        assert moved.values.tolist() == [3.0, 1.0]
        assert_same(moved, store.latest("m.x", ["c2", "c0"], 0.0, 8000.0))

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

    def test_partials_serve_every_agg_from_one_entry(self):
        """The federation's per-site reads: one cached partials answer
        (its plan has no agg) reduces to the store's answer for all six
        aggs; a shed tenant gets no pieces and no first time."""
        store = make_store()
        fe = QueryFrontend(store, quotas={"g": TenantQuota(0.0, 0.0)})
        t0 = fe.first_time("m.x", None)
        assert t0 == store.first_time("m.x") == store.query(
            "m.x", "c0").times[0]
        for agg in ("mean", "sum", "min", "max", "last", "count"):
            pieces, comp, _ = fe.partials("m.x", None, t0, 7000.0, 600.0)
            got_t, got_v = reduce_partials(
                pieces, bucket_anchor(t0, 600.0), 600.0, agg, comp)
            want = store.aggregate_across("m.x", None, -np.inf, 7000.0,
                                          600.0, agg)
            assert np.array_equal(got_t, want.times)
            assert np.allclose(got_v, want.values, rtol=1e-12)
        s = fe.stats()
        assert s.cache.hits == 5 and s.pyramid_answers == 1
        assert fe.partials("m.x", None, t0, 7000.0, 600.0,
                           tenant="g") == ([], [], False)
        assert fe.first_time("m.x", None, tenant="g") == np.inf
        assert fe.rejected == 2

    @pytest.mark.parametrize("shards", [0, 2])
    @pytest.mark.parametrize("step", [np.nan, np.inf, 0.0, -1.0])
    def test_partials_refuse_a_step_that_makes_no_grid(self, shards, step):
        """A step that is not positive and finite is refused before
        admission and before any grid is anchored, on a plain store and
        a sharded one alike: no answer, no warning, no tenant charged."""
        store = (ShardedTimeSeriesStore(shards=shards, chunk_size=4)
                 if shards else TimeSeriesStore(chunk_size=4))
        for i in range(6):
            store.append(SeriesBatch.sweep("m", 10.0 * i, ["a", "b"],
                                           [float(i), -float(i)]))
        fe = QueryFrontend(store, quotas={"g": TenantQuota(0.0, 0.0)})
        for tenant in ("default", "g"):
            with pytest.raises(ValueError,
                               match="step must be positive and finite"):
                fe.partials("m", None, 0.0, 3000.0, step, tenant=tenant)
        s = fe.stats()
        assert (s.rejected, s.cache.hits, s.cache.misses) == (0, 0, 0)

    def test_partials_are_charged_the_levels_they_keep_alive(self):
        """Rollup rows in a partials answer are slices of a series'
        merged level, which a cached answer keeps alive whole: the
        result cache's byte bound counts the level, not the slice."""
        store = TimeSeriesStore(chunk_size=16, pyramid_levels=DEFAULT_LEVELS)
        store.append(SeriesBatch.for_component(
            "m", "c0", np.arange(2000) * 10.0, np.ones(2000)))
        fe = QueryFrontend(store)
        pieces, _, rollup = fe.partials("m", None, 19000.0, 19600.0, 60.0)
        kept = {id(a.base): a.base.nbytes for piece in pieces for a in piece
                if isinstance(a.base, np.ndarray)}
        assert rollup and kept
        assert fe.stats().cache.bytes >= sum(kept.values())

    def test_pyramid_counter_moves_on_eligible_grid(self):
        fe = QueryFrontend(make_store())
        fe.downsample("m.x", "c0", 0.0, 7200.0, 600.0, "min")
        fe.downsample("m.x", "c0", 0.0, 7200.0, 77.0, "min")  # ineligible
        s = fe.stats()
        assert s.pyramid_answers == 1 and s.raw_answers == 1
        assert 0.0 < s.pyramid_ratio < 1.0


@pytest.mark.parametrize("shards", [0, 3])
class TestNonStrComponents:
    """The store keys components by ``str``; the front end asks it with
    the plan's normalized components, never the caller's raw ones."""

    @staticmethod
    def make(shards):
        store = (ShardedTimeSeriesStore(shards=shards) if shards
                 else TimeSeriesStore())
        for i in range(3):
            store.append(SeriesBatch.sweep("n", 10.0 * i, ["1", "2"],
                                           [i, -i]))
        return store

    def test_an_int_component_reads_its_series_and_caches_that(self, shards):
        fe = QueryFrontend(self.make(shards))
        assert len(fe.query("n", 1)) == 3
        again = fe.query("n", "1")
        assert len(again) == 3 and fe.stats().cache.hits == 1

    def test_an_int_selection_reads_its_series(self, shards):
        fe = QueryFrontend(self.make(shards))
        got = fe.query_components("n", [2])
        assert list(got) == ["2"] and got["2"].values.tolist() == [0, -1, -2]
        assert fe.query_components("n", ["2"]) is got


class TestTenantShedding:
    def test_tenants_are_isolated(self):
        fe = QueryFrontend(make_store(),
                           quotas={"g": TenantQuota(qps=0.0, burst=0.0)})
        assert len(fe.query("m.x", "c0", tenant="ops")) > 0
        assert len(fe.query("m.x", "c0", tenant="g")) == 0
        assert fe.tenant_stats("ops").rejected == 0


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


#: every read method, as ``call(reader, **kw)`` over the front end or the
#: store itself (same arguments, the front end's plus ``tenant``)
READS = {
    "components": lambda r, **kw: r.components("m.x", **kw),
    "query": lambda r, **kw: r.query("m.x", "c0", 100.0, 5000.0, **kw),
    "query_components": lambda r, **kw: r.query_components(
        "m.x", None, 100.0, 5000.0, **kw),
    "latest": lambda r, **kw: r.latest("m.x", None, 100.0, 5000.0, **kw),
    "downsample": lambda r, **kw: r.downsample(
        "m.x", "c0", 0.0, 7200.0, 600.0, "max", **kw),
    "aggregate_across": lambda r, **kw: r.aggregate_across(
        "m.x", None, 0.0, 7200.0, 600.0, "max", **kw),
}


def contract_store(kind):
    if kind == "plain":
        return make_store(comps=("c0", "c1", "c2", "c3"))
    store = ShardedTimeSeriesStore(shards=3, chunk_size=64,
                                   pyramid_levels=DEFAULT_LEVELS)
    rng = np.random.default_rng(5)
    t = np.sort(rng.uniform(0.0, 7200.0, 500)).round(3)
    for c in ("c0", "c1", "c2", "c3"):
        store.append(SeriesBatch.for_component(
            "m.x", c, t, rng.normal(size=500)))
    victim = store.shard_of("m.x", "c1")     # c1 and c2 go dark
    assert victim != store.shard_of("m.x", "c0")
    store.fail_shard(victim)
    return store


def assert_same(got, want):
    if isinstance(want, SeriesBatch):
        assert list(got.components) == list(want.components)
        assert np.array_equal(got.times, want.times)
        assert np.array_equal(got.values, want.values, equal_nan=True)
    elif isinstance(want, dict):
        assert list(got) == list(want)
        for key in want:
            assert_same(got[key], want[key])
    else:
        assert got == want


class _Broken:
    """A store whose every call raises."""

    def __getattr__(self, name):
        raise RuntimeError(f"store down: {name}")


@pytest.mark.parametrize("store_kind", ["plain", "sharded-failed-shard"])
@pytest.mark.parametrize("method", list(READS))
class TestReadContract:
    """One contract over every read method and both store shapes."""

    def test_over_quota_tenant_gets_the_empty_shape(self, method,
                                                    store_kind):
        fe = QueryFrontend(contract_store(store_kind),
                           quotas={"g": TenantQuota(qps=0.0, burst=0.0)})
        READS[method](fe)                   # a tenant with no quota
        before = fe.stats()
        got = READS[method](fe, tenant="g")
        after = fe.stats()
        assert after.rejected == before.rejected + 1
        assert after.admitted == before.admitted
        assert fe.tenant_stats("g").rejected == 1
        if isinstance(got, SeriesBatch):
            assert got.metric == "m.x" and len(got) == 0
        else:
            assert got == type(READS[method](fe))()

    def test_admitted_answer_is_the_stores(self, method, store_kind):
        store = contract_store(store_kind)
        fe = QueryFrontend(store)
        want = READS[method](store)
        for _ in range(2):                  # a miss, then a cache hit
            assert_same(READS[method](fe, tenant="t"), want)
        assert fe.stats().rejected == 0

    def test_raising_store_releases_the_slot(self, method, store_kind):
        """A raising store propagates and leaves nothing held: the next
        read is admitted and answers."""
        store = contract_store(store_kind)
        fe = QueryFrontend(store)
        fe.store = _Broken()
        with pytest.raises(RuntimeError, match="store down"):
            READS[method](fe, tenant="t")
        fe.store = store
        assert_same(READS[method](fe, tenant="t"), READS[method](store))
        assert fe.tenant_stats("t") == TenantStats(2, 0)
