"""Unit tests for the sharded time-series store."""

import numpy as np
import pytest

from repro.core.metric import MetricKey, SeriesBatch
from repro.storage.sharded import ShardedTimeSeriesStore
from repro.storage.tsdb import TimeSeriesStore


def fill(store, n_metrics=3, n_components=16, n_sweeps=5):
    for metric_i in range(n_metrics):
        metric = f"m{metric_i}.value"
        comps = [f"c{j}" for j in range(n_components)]
        for s in range(n_sweeps):
            store.append(SeriesBatch.sweep(
                metric, 10.0 * s, comps,
                [float(metric_i * 100 + j + s) for j in range(n_components)],
            ))


class TestRouting:
    def test_shard_assignment_is_stable(self):
        a = ShardedTimeSeriesStore(shards=4)
        b = ShardedTimeSeriesStore(shards=4)
        for j in range(50):
            assert (a.shard_of("node.power_w", f"n{j}")
                    == b.shard_of("node.power_w", f"n{j}"))

    def test_series_spread_across_shards(self):
        store = ShardedTimeSeriesStore(shards=4)
        hit = {store.shard_of("node.power_w", f"n{j}") for j in range(100)}
        assert hit == {0, 1, 2, 3}

    def test_shard_count_validation(self):
        with pytest.raises(ValueError):
            ShardedTimeSeriesStore(shards=0)


class TestSingleStoreEquivalence:
    def test_query_matches_single_store(self):
        sharded = ShardedTimeSeriesStore(shards=4)
        single = TimeSeriesStore()
        fill(sharded)
        fill(single)
        for key in single.keys():
            a = sharded.query(key.metric, key.component)
            b = single.query(key.metric, key.component)
            assert np.array_equal(a.times, b.times)
            assert np.array_equal(a.values, b.values)

    def test_keys_and_components_match(self):
        sharded = ShardedTimeSeriesStore(shards=4)
        single = TimeSeriesStore()
        fill(sharded)
        fill(single)
        assert sharded.keys() == single.keys()
        assert sharded.keys("m1.value") == single.keys("m1.value")
        assert sharded.components("m1.value") == single.components("m1.value")

    def test_query_layer_rides_the_mixin(self):
        sharded = ShardedTimeSeriesStore(shards=4)
        single = TimeSeriesStore()
        fill(sharded)
        fill(single)
        a = sharded.aggregate_across("m0.value", None, 0.0, 50.0, step=10.0)
        b = single.aggregate_across("m0.value", None, 0.0, 50.0, step=10.0)
        assert np.array_equal(a.values, b.values)

    def test_stats_merge_across_shards(self):
        sharded = ShardedTimeSeriesStore(shards=4)
        single = TimeSeriesStore()
        fill(sharded)
        fill(single)
        a, b = sharded.stats(), single.stats()
        assert a.series == b.series
        assert a.samples == b.samples

    def test_drop_series_routes_to_owner(self):
        sharded = ShardedTimeSeriesStore(shards=4)
        fill(sharded)
        assert sharded.drop_series("m0.value", "c3")
        assert not sharded.drop_series("m0.value", "c3")
        assert MetricKey("m0.value", "c3") not in sharded.keys()


class TestShardFailover:
    def batch(self, n=16, t=0.0, metric="m.value"):
        return SeriesBatch.sweep(metric, t, [f"c{j}" for j in range(n)],
                                 [float(j) for j in range(n)])

    def shard_split(self, store, batch):
        """points of ``batch`` owned by each shard index."""
        counts = [0] * store.n_shards
        for c in batch.components:
            counts[store.shard_of(batch.metric, str(c))] += 1
        return counts

    def test_failed_shard_defers_to_redo_not_stored(self):
        from repro.core.lifecycle import Health

        store = ShardedTimeSeriesStore(shards=4)
        b = self.batch()
        split = self.shard_split(store, b)
        store.fail_shard(1)
        assert store.shard_health()[1] is Health.FAILED
        assert store.health() is Health.DEGRADED   # others still serve
        stored = store.append(b)
        assert stored == len(b) - split[1]
        assert store.redo_pending_points() == split[1]

    def test_recover_replays_redo_exactly(self):
        store = ShardedTimeSeriesStore(shards=4)
        b = self.batch()
        split = self.shard_split(store, b)
        store.fail_shard(1)
        store.append(b)
        replayed = store.recover_shard(1)
        assert replayed == split[1]
        assert store.redo_pending_points() == 0
        # every component queryable again, including shard 1's
        for c in b.components:
            assert len(store.query(b.metric, str(c))) == 1

    def test_query_on_failed_shard_returns_empty_not_raises(self):
        store = ShardedTimeSeriesStore(shards=4)
        b = self.batch()
        store.append(b)
        victim = str(b.components[0])
        i = store.shard_of(b.metric, victim)
        store.fail_shard(i)
        out = store.query(b.metric, victim)
        assert len(out) == 0 and out.metric == b.metric
        assert all(store.shard_of(k.metric, k.component) != i
                   for k in store.keys())    # failed shard's keys hidden
        store.recover_shard(i)
        assert len(store.query(b.metric, victim)) == 1

    def test_bucketed_reads_on_a_failed_shard_answer_like_query(self):
        store = ShardedTimeSeriesStore(shards=4)
        for s in range(5):
            store.append(self.batch(t=10.0 * s))
        comps = [str(c) for c in self.batch().components]
        whole = store.aggregate_across("m.value", comps, 0.0, 50.0, 20.0)
        victim = comps[0]
        store.fail_shard(store.shard_of("m.value", victim))
        # named explicitly, a failed shard's series still read as empty
        assert len(store.query("m.value", victim)) == 0
        assert len(store.downsample("m.value", victim, 0.0, 50.0, 20.0)) == 0
        for agg in ("sum", "last", "count"):
            got, _ = store._bucketed_read("m.value", comps, 0.0, 50.0, 20.0,
                                          agg, "x")
            want = store.aggregate_across("m.value", comps, 0.0, 50.0, 20.0,
                                          agg)
            assert np.array_equal(got.times, want.times)
            assert np.array_equal(got.values, want.values)
        lost = self.shard_split(store, self.batch())[
            store.shard_of("m.value", victim)]
        assert want.values[0] == 2 * (len(comps) - lost)    # the count
        store.recover_shard(store.shard_of("m.value", victim))
        healed, _ = store._bucketed_read("m.value", comps, 0.0, 50.0, 20.0,
                                         "sum", "x")
        assert np.array_equal(healed.values, whole.values)

    def test_redo_overflow_evicts_oldest_as_accounted_loss(self):
        from repro.core.ledger import DeliveryLedger

        store = ShardedTimeSeriesStore(shards=1, redo_points=40)
        ledger = DeliveryLedger()
        store.ledger = ledger
        store.fail_shard(0)
        for k in range(5):                       # 5 x 16 points > 40
            b = self.batch(t=float(k), metric="metrics.m")
            ledger.published_batch("test", b)
            store.append(b)
        assert store.redo_pending_points() <= 40
        lost = ledger.lost_by_cause()
        assert lost.get("shard-redo-overflow", 0) == \
            5 * 16 - store.redo_pending_points()
        # identity holds with the redo buffer as `pending`
        report = ledger.balance(pending=store.redo_pending_points(),
                                in_flight=0)
        assert report.balanced, report.render()
        # recovery replays the survivors; identity still exact
        store.recover_shard(0)
        report = ledger.balance(pending=0, in_flight=0)
        assert report.balanced, report.render()
        assert report.stored == store.stats().samples

    def test_single_shard_failure_is_total_failure(self):
        from repro.core.lifecycle import Health

        store = ShardedTimeSeriesStore(shards=1)
        store.fail_shard(0)
        assert store.health() is Health.FAILED

    def test_supervised_surface(self):
        from repro.core.lifecycle import Health, Supervised

        store = ShardedTimeSeriesStore(shards=2)
        assert isinstance(store, Supervised)
        assert store.health() is Health.OK
        store.fail("injected")
        assert store.health() is not Health.OK
        store.heal()
        assert store.health() is Health.OK


class TestPerShardSurfaces:
    def test_per_shard_stats_sum_to_total(self):
        sharded = ShardedTimeSeriesStore(shards=4)
        fill(sharded)
        per = sharded.per_shard_stats()
        assert len(per) == 4
        assert sum(p.samples for p in per) == sharded.stats().samples
        assert sum(p.series for p in per) == sharded.stats().series


class TestShortRoutes:
    """A batch pays for its points: a column owned by one shard is handed
    to it whole, and a warm tick files no route and no identity memo for
    a column it has routed before."""

    def one_shard_column(self, store, metric, shard, n):
        names = (f"c{j}" for j in range(10_000))
        return [c for c in names if store.shard_of(metric, c) == shard][:n]

    def test_a_one_shard_piece_shares_the_batch_columns(self):
        store = ShardedTimeSeriesStore(shards=4)
        comps = self.one_shard_column(store, "m", 2, 5)
        batch = SeriesBatch.sweep("m", 60.0, comps, np.arange(5.0))
        ((i, piece),) = store.split(batch)
        assert i == 2
        assert piece.components is batch.components
        assert piece.times is batch.times and piece.values is batch.values
        assert piece.trace is None
        # and a one-point batch
        one = SeriesBatch.sweep("m", 60.0, comps[:1], [7.0])
        ((i, piece),) = store.split(one)
        assert i == 2 and piece.values is one.values

    def test_a_one_shard_route_keeps_no_reference_to_its_column(self):
        import gc

        store = ShardedTimeSeriesStore(shards=4)
        *three, other = self.one_shard_column(store, "m", 1, 4)
        comps = np.array(three, dtype=object)
        key = id(comps)
        store.append(SeriesBatch.sweep("m", 0.0, comps, [1.0, 2.0, 3.0]))
        assert store._route_memo[key] == {"m": 1}   # the shard alone
        # the shard's head block remembers the last column it saw
        store.append(SeriesBatch.sweep("m", 60.0, [other], [4.0]))
        del comps
        gc.collect()
        assert key not in store._route_memo     # died with it

    def test_split_pieces_partition_the_batch(self):
        store = ShardedTimeSeriesStore(shards=4)
        comps = [f"n{j}" for j in range(40)]
        batch = SeriesBatch.sweep("m", 5.0, comps, np.arange(40.0))
        pieces = store.split(batch)
        assert [i for i, _ in pieces] == sorted({i for i, _ in pieces})
        got = sorted((str(c), v) for _, p in pieces
                     for c, v in zip(p.components, p.values))
        assert got == sorted(zip(comps, np.arange(40.0)))
        for i, p in pieces:
            assert {store.shard_of("m", str(c)) for c in p.components} == {i}

    def test_a_warm_tick_files_no_route_and_no_identity_memo(
            self, tmp_path, monkeypatch):
        from repro.sites import SiteConfig, build_site
        from repro.storage import diskier, sharded

        filed = []
        for mod in (sharded, diskier):
            def counted(memo, array, value, real=mod.memo_by_identity):
                filed.append(array)
                real(memo, array, value)
            monkeypatch.setattr(mod, "memo_by_identity", counted)
        misses = []
        real_routing = ShardedTimeSeriesStore._routing

        def routing(self, metric, components, n):
            def has():
                return metric in self._route_memo.get(id(components), ())
            before = has()
            route = real_routing(self, metric, components, n)
            if not before and has():
                misses.append((metric, n))
            return route

        monkeypatch.setattr(ShardedTimeSeriesStore, "_routing", routing)
        p = build_site(SiteConfig(
            metric_interval_s=60.0, tick_s=60.0, transport="partitioned",
            shards=4, chunk_size=16, store_dir=str(tmp_path / "store"),
            hot_bytes=64 << 10, seed=0))
        try:
            for _ in range(4):
                p.step()
            assert misses and filed      # warm-up built the memos
            misses.clear()
            filed.clear()
            stored = p.ledger.stored_total()
            p.step()
            assert p.ledger.stored_total() > stored
            # job.io_bps is the one column that follows the running jobs;
            # every other batch rides a column routed in an earlier tick
            assert {m for m, _ in misses} <= {"job.io_bps"}
            assert len(filed) == len(misses)
        finally:
            p.tsdb.close()


class TestWholeMetricSelection:
    """``components=None`` is every live row, resolved from the head
    blocks' live counts: it answers every read exactly like the explicit
    full list, on a plain and a sharded store, after a drop and
    re-creation, and with a shard down."""

    def stores(self):
        return [TimeSeriesStore(chunk_size=4),
                ShardedTimeSeriesStore(shards=4, chunk_size=4)]

    def fill(self, store):
        rng = np.random.default_rng(3)
        comps = [f"c{j}" for j in rng.permutation(24)]
        for s in range(11):
            store.append(SeriesBatch.sweep("m", 10.0 * s, comps,
                                           rng.normal(size=24)))
        # a late ragged row and a tie at one time, for `last`
        store.append(SeriesBatch("m", ["c3", "c3", "zz"], [5.0, 5.0, 7.0],
                                 [1.0, 2.0, 3.0]))

    def assert_none_is_the_full_list(self, store):
        full = store.components("m")
        assert store._resolve("m", None)[0] == full
        a, b = (store.query_components("m", c) for c in (None, full))
        assert list(a) == list(b) == full
        for c in full:
            assert np.array_equal(a[c].times, b[c].times)
            assert np.array_equal(a[c].values, b[c].values)
        for window in [(-np.inf, np.inf), (20.0, 75.0)]:
            la, lb = (store.latest("m", c, *window) for c in (None, full))
            assert list(la.components) == list(lb.components)
            assert np.array_equal(la.times, lb.times)
            assert np.array_equal(la.values, lb.values)
            for agg in ("mean", "sum", "min", "max", "count", "last"):
                x, y = (store.aggregate_across("m", c, *window, 30.0, agg)
                        for c in (None, full))
                assert np.array_equal(x.times, y.times)
                assert np.array_equal(x.values, y.values, equal_nan=True)
        assert store.first_time("m", None) == store.first_time("m", full)
        pa, ca, ra = store.bucket_partials("m", None, 0.0, 120.0, 30.0, 0.0)
        pb, cb, rb = store.bucket_partials("m", full, 0.0, 120.0, 30.0, 0.0)
        assert ra == rb and len(pa) == len(pb)
        for x, y in zip(pa, pb):
            assert all(np.array_equal(u, v) for u, v in zip(x, y))
        for x, y in zip(ca, cb):
            assert np.array_equal(x, y)

    def test_a_whole_metric_read_answers_like_the_full_list(self):
        for store in self.stores():
            self.fill(store)
            self.assert_none_is_the_full_list(store)

    def test_after_a_drop_and_a_recreation(self):
        for store in self.stores():
            self.fill(store)
            before = store._resolve("m", None)
            assert store._resolve("m", None) is before     # memoized
            assert store.drop_series("m", "c5")
            assert "c5" not in store._resolve("m", None)[0]
            self.assert_none_is_the_full_list(store)
            store.append(SeriesBatch.sweep("m", 500.0, ["c5"], [9.0]))
            assert "c5" in store._resolve("m", None)[0]
            self.assert_none_is_the_full_list(store)

    @pytest.mark.parametrize("victim", range(4))
    def test_with_a_failed_shard(self, victim):
        # the last shard too: the healthy shards' key lists then match
        # the memo's first three, and only the health epoch tells
        store = self.stores()[1]
        self.fill(store)
        whole = store._resolve("m", None)[0]
        store.fail_shard(victim)
        lost = {c for c in whole if store.shard_of("m", c) == victim}
        assert lost and set(store._resolve("m", None)[0]) == set(whole) - lost
        self.assert_none_is_the_full_list(store)
        store.recover_shard(victim)
        assert store._resolve("m", None)[0] == whole
        self.assert_none_is_the_full_list(store)

    def test_an_unknown_metric_selects_nothing(self):
        for store in self.stores():
            assert store._resolve("nope", None) == ([], [])
            assert store.query_components("nope") == {}
