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
