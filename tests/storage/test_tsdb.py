"""Unit tests for the time-series store and chunk codec."""

import gc
import sys
from unittest.mock import Mock

import numpy as np
import pytest

from repro.core.lifecycle import Health
from repro.core.metric import MetricKey, SeriesBatch
from repro.core.soa import name_column
from repro.serve.frontend import QueryFrontend
from repro.storage import rollup, tsdb
from repro.storage.chunkcache import ChunkCache
from repro.storage.diskier import DiskTier
from repro.storage.rollup import DEFAULT_LEVELS
from repro.storage.sharded import ShardedTimeSeriesStore
from repro.storage.tsdb import (
    SealedChunk,
    TimeSeriesStore,
    _compress_chunk_slow,
    _decompress_chunk_slow,
    _xor_token_lens,
    compress_chunk,
    decompress_chunk,
)


class TestChunkCodec:
    def round_trip(self, times, values):
        t, v = decompress_chunk(compress_chunk(np.asarray(times),
                                               np.asarray(values)))
        return t, v

    def test_empty_chunk(self):
        t, v = self.round_trip([], [])
        assert len(t) == 0 and len(v) == 0

    def test_single_sample(self):
        t, v = self.round_trip([42.0], [3.14])
        assert t[0] == 42.0 and v[0] == 3.14

    def test_regular_interval_exact(self):
        times = np.arange(0, 600, 60, dtype=float)
        values = np.linspace(100, 200, len(times))
        t, v = self.round_trip(times, values)
        assert np.array_equal(t, times)
        assert np.array_equal(v, values)

    def test_irregular_times_ms_resolution(self):
        times = np.array([0.001, 0.5, 7.25, 1000.125])
        values = np.array([1.0, -2.5, 1e-9, 1e9])
        t, v = self.round_trip(times, values)
        assert np.allclose(t, times, atol=5e-4)
        assert np.array_equal(v, values)

    def test_special_float_values(self):
        values = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 1e-300])
        times = np.arange(len(values), dtype=float)
        t, v = self.round_trip(times, values)
        assert np.array_equal(
            np.isnan(v), np.isnan(values)
        )
        finite = ~np.isnan(values)
        assert np.array_equal(v[finite], values[finite])

    def test_constant_series_compresses_hard(self):
        times = np.arange(0, 512 * 60, 60, dtype=float)
        values = np.full(512, 230.0)
        blob = compress_chunk(times, values)
        # ~2 bytes/sample (1 ts varint + 1 zero-xor marker) + headers
        assert len(blob) < 512 * 3
        raw = 512 * 16
        assert raw / len(blob) > 5

    def test_random_series_still_round_trips(self):
        rng = np.random.default_rng(0)
        times = np.sort(rng.uniform(0, 1e6, 300))
        # dedupe at ms resolution to keep expectations exact
        times = np.unique(np.round(times * 1000) / 1000)
        values = rng.normal(0, 1e5, len(times))
        t, v = self.round_trip(times, values)
        assert np.allclose(t, times, atol=5e-4)
        assert np.array_equal(v, values)


class TestVectorizedMatchesSlow:
    """The vectorized codec against its retained scalar reference."""

    def cases(self):
        rng = np.random.default_rng(7)
        yield np.arange(0, 512 * 60, 60, dtype=float), rng.normal(size=512)
        yield np.arange(5, dtype=float), np.array(
            [0.0, -0.0, np.nan, np.inf, -np.inf])
        # duplicate + out-of-order timestamps (seal sorts, codec must not)
        yield (np.array([3.0, 1.0, 1.0, 2.0, 0.5]),
               np.array([1.0, 1.0, 1.0, 2.0, 5e-324]))
        yield np.array([]), np.array([])
        yield np.array([1.5]), np.array([42.0])

    def test_compress_byte_identical(self):
        for times, values in self.cases():
            assert (compress_chunk(times, values)
                    == _compress_chunk_slow(times, values))

    def test_decompress_matches_slow_with_and_without_hint(self):
        for times, values in self.cases():
            blob = compress_chunk(times, values)
            st, sv = _decompress_chunk_slow(blob)
            for hint in (None, _xor_token_lens(values)):
                vt, vv = decompress_chunk(blob, lens_hint=hint)
                assert np.array_equal(vt, st)
                assert np.array_equal(vv.view(np.uint64),
                                      sv.view(np.uint64))


@pytest.fixture()
def store():
    return TimeSeriesStore(chunk_size=16)


def sweep(metric, t, comps, vals):
    return SeriesBatch.sweep(metric, t, comps, vals)


class TestIngestAndQuery:
    def test_append_and_query_single(self, store):
        store.append(sweep("m", 0.0, ["a"], [1.0]))
        store.append(sweep("m", 60.0, ["a"], [2.0]))
        out = store.query("m", "a")
        assert list(out.values) == [1.0, 2.0]
        assert list(out.times) == [0.0, 60.0]

    def test_query_unknown_series_empty(self, store):
        assert len(store.query("m", "nope")) == 0

    def test_query_spans_sealed_and_head(self, store):
        for i in range(40):  # crosses two sealed chunks + open head
            store.append(sweep("m", i * 60.0, ["a"], [float(i)]))
        out = store.query("m", "a")
        assert len(out) == 40
        assert list(out.values) == [float(i) for i in range(40)]

    def test_time_window_query(self, store):
        for i in range(40):
            store.append(sweep("m", i * 60.0, ["a"], [float(i)]))
        out = store.query("m", "a", t0=600.0, t1=1200.0)
        assert list(out.values) == [10.0, 11.0, 12.0, 13.0,
                                    14.0, 15.0, 16.0, 17.0, 18.0, 19.0]

    def test_multi_component_sweep(self, store):
        store.append(sweep("m", 0.0, ["a", "b", "c"], [1, 2, 3]))
        assert store.components("m") == ["a", "b", "c"]
        assert store.query("m", "b").values[0] == 2.0

    def test_keys_filtered_by_metric(self, store):
        store.append(sweep("m1", 0.0, ["a"], [1]))
        store.append(sweep("m2", 0.0, ["a"], [1]))
        assert store.keys("m1") == [MetricKey("m1", "a")]

    def test_chunk_size_validated(self):
        with pytest.raises(ValueError):
            TimeSeriesStore(chunk_size=1)

    def test_flush_then_query(self, store):
        store.append(sweep("m", 0.0, ["a"], [5.0]))
        store.flush()
        assert store.query("m", "a").values[0] == 5.0
        assert store.stats().sealed_chunks == 1


class TestDownsample:
    def fill(self, store):
        for i in range(120):
            store.append(sweep("m", float(i), ["a"], [float(i)]))

    def test_mean_buckets(self, store):
        self.fill(store)
        out = store.downsample("m", "a", 0.0, 120.0, step=60.0, agg="mean")
        assert len(out) == 2
        assert out.values[0] == pytest.approx(np.mean(range(60)))
        assert out.values[1] == pytest.approx(np.mean(range(60, 120)))

    def test_max_buckets(self, store):
        self.fill(store)
        out = store.downsample("m", "a", 0.0, 120.0, step=60.0, agg="max")
        assert list(out.values) == [59.0, 119.0]

    def test_empty_buckets_omitted(self, store):
        store.append(sweep("m", 0.0, ["a"], [1.0]))
        store.append(sweep("m", 500.0, ["a"], [2.0]))
        out = store.downsample("m", "a", 0.0, 600.0, step=60.0)
        assert len(out) == 2
        assert list(out.times) == [0.0, 480.0]

    def test_unknown_agg_rejected(self, store):
        with pytest.raises(ValueError, match="unknown agg"):
            store.downsample("m", "a", 0, 1, 1, agg="median?")

    def test_bad_step_rejected(self, store):
        with pytest.raises(ValueError, match="step"):
            store.downsample("m", "a", 0, 1, 0.0)


class TestAggregateAcross:
    def test_sum_across_components(self, store):
        for t in (0.0, 60.0):
            store.append(sweep("fs.read_bps", t, ["ost0", "ost1"],
                               [100.0, 50.0]))
        out = store.aggregate_across("fs.read_bps", step=60.0, agg="sum")
        assert list(out.values) == [150.0, 150.0]

    def test_mean_across_subset(self, store):
        store.append(sweep("m", 0.0, ["a", "b", "c"], [1.0, 3.0, 100.0]))
        out = store.aggregate_across("m", ["a", "b"], step=60.0, agg="mean")
        assert out.values[0] == 2.0

    def test_empty_store_empty_aggregate(self, store):
        assert len(store.aggregate_across("m")) == 0

    def test_last_is_time_ordered_not_component_ordered(self, store):
        # regression: "a" iterates first but holds the LATEST sample; a
        # concatenate-without-sort implementation returns b's 2.0
        store.append(sweep("m", 10.0, ["a"], [1.0]))
        store.append(sweep("m", 5.0, ["b"], [2.0]))
        out = store.aggregate_across("m", step=60.0, agg="last")
        assert list(out.values) == [1.0]

    def test_matches_naive_mask_scan_oracle(self, store):
        rng = np.random.default_rng(3)
        times = np.round(np.sort(rng.uniform(0, 900, 200)), 3)
        for comp in ("a", "b", "c"):
            vals = rng.normal(size=len(times))
            for t, v in zip(times, vals):
                store.append(sweep("m", float(t), [comp], [float(v)]))
        store.flush()
        full = store.query_components("m")
        t = np.concatenate([b.times for b in full.values()])
        v = np.concatenate([b.values for b in full.values()])
        order = np.argsort(t, kind="stable")
        t, v = t[order], v[order]
        for agg, fn in (("sum", np.sum), ("mean", np.mean),
                        ("min", np.min), ("max", np.max),
                        ("last", lambda a: a[-1]),
                        ("count", len)):
            out = store.aggregate_across("m", step=60.0, agg=agg)
            # unbounded windows anchor on the step grid at/below the
            # first sample (bucket_anchor), like every bucketing path
            anchor = np.floor(t[0] / 60.0) * 60.0
            buckets = np.floor((t - anchor) / 60.0).astype(int)
            expect = [float(fn(v[buckets == b]))
                      for b in np.unique(buckets)]
            assert np.allclose(out.values, expect, rtol=1e-12), agg
            assert np.array_equal(out.times,
                                  anchor + np.unique(buckets) * 60.0), agg

    def test_single_component_aggregate_equals_downsample(self, store):
        for i in range(100):
            store.append(sweep("m", float(i), ["a"], [float(i % 7)]))
        store.flush()
        for agg in ("sum", "mean", "min", "max", "last", "count"):
            via_agg = store.aggregate_across("m", ["a"], t0=0.0, t1=100.0,
                                             step=13.0, agg=agg)
            via_ds = store.downsample("m", "a", 0.0, 100.0, step=13.0,
                                      agg=agg, prune=False)
            assert np.array_equal(via_agg.times, via_ds.times), agg
            assert np.allclose(via_agg.values, via_ds.values,
                               rtol=1e-12), agg


class TestSummaryPrunedDownsample:
    """prune=True (summaries + cache) against prune=False (decompress)."""

    def fill(self, store, n=400, seed=11):
        rng = np.random.default_rng(seed)
        times = np.round(np.sort(rng.uniform(0, 3600, n)), 3)
        vals = rng.normal(50.0, 20.0, n)
        for t, v in zip(times, vals):
            store.append(sweep("m", float(t), ["a"], [float(v)]))
        store.flush()

    @pytest.mark.parametrize("agg", ["mean", "sum", "min", "max",
                                     "last", "count"])
    def test_pruned_equals_cold(self, agg):
        store = TimeSeriesStore(chunk_size=16)
        self.fill(store)
        warm = store.downsample("m", "a", 0.0, 3600.0, step=300.0, agg=agg)
        cold = store.downsample("m", "a", 0.0, 3600.0, step=300.0, agg=agg,
                                prune=False)
        assert np.array_equal(warm.times, cold.times)
        if agg in ("min", "max", "last", "count"):
            assert np.array_equal(warm.values, cold.values)
        else:   # sum/mean may differ in ulps (reassociated additions)
            assert np.allclose(warm.values, cold.values, rtol=1e-9)

    def test_pruned_covers_open_head_and_window_edges(self):
        store = TimeSeriesStore(chunk_size=16)
        self.fill(store, n=100)
        store.append(sweep("m", 3599.5, ["a"], [7.0]))   # unsealed head
        warm = store.downsample("m", "a", 100.0, 3500.0, step=77.0)
        cold = store.downsample("m", "a", 100.0, 3500.0, step=77.0,
                                prune=False)
        assert np.array_equal(warm.times, cold.times)
        assert np.allclose(warm.values, cold.values, rtol=1e-9)

    def test_pruned_path_avoids_decompression(self):
        cache = ChunkCache()
        store = TimeSeriesStore(chunk_size=16, cache=cache)
        for i in range(160):
            store.append(sweep("m", float(i), ["a"], [float(i)]))
        store.flush()
        # chunks span 16 s each; 160-s buckets swallow chunks whole, so
        # the summary path never touches the cache at all
        store.downsample("m", "a", 0.0, 160.0, step=160.0, agg="sum")
        assert cache.stats().misses == 0
        # misaligned buckets force boundary chunks through the cache
        store.downsample("m", "a", 0.0, 160.0, step=24.0, agg="sum")
        assert cache.stats().misses > 0
        # an unbounded window anchors the grid at the first sample and
        # is pruned all the same
        cache.clear()
        misses = cache.stats().misses
        store.downsample("m", "a", -np.inf, 160.0, step=160.0, agg="sum")
        assert cache.stats().misses == misses
        for agg in ("mean", "sum", "min", "max", "last", "count"):
            warm = store.downsample("m", "a", -np.inf, 150.0, step=24.0,
                                    agg=agg)
            cold = store.downsample("m", "a", -np.inf, 150.0, step=24.0,
                                    agg=agg, prune=False)
            assert np.array_equal(warm.times, cold.times)
            assert np.array_equal(warm.values, cold.values)
        # the serving plane's cross-series aggregate takes the same
        # bucketed read: a pyramid-less store, or a step no rollup level
        # divides, still answers whole chunks from their summaries
        for levels, step in ((None, 160.0), (DEFAULT_LEVELS, 165.0)):
            cache = ChunkCache()
            store = TimeSeriesStore(chunk_size=16, cache=cache,
                                    pyramid_levels=levels)
            for i in range(160):
                store.append(sweep("m", float(i), ["a", "b", "c"],
                                   [float(i), 2.0 * i, -1.0 * i]))
            store.flush()
            fe = QueryFrontend(store)
            # 3 series x 10 sealed chunks, each inside the one bucket
            whole = fe.aggregate_across("m", None, 0.0, 160.0, step, "sum")
            assert cache.stats().misses == 0
            # buckets that straddle chunks send those through the cache
            split = fe.aggregate_across("m", None, 0.0, 160.0, 24.0, "sum")
            assert cache.stats().misses > 0
            for got, span in ((whole, step), (split, 24.0)):
                want = store.aggregate_across("m", None, 0.0, 160.0, span,
                                              "sum")
                assert np.array_equal(got.times, want.times)
                assert np.array_equal(got.values, want.values)
        # rollup rows answer a step-aligned window outright: the chunks
        # straddling its two ends are not decoded either
        cache.clear()
        misses = cache.stats().misses
        got = fe.aggregate_across("m", None, 60.0, 120.0, 60.0, "sum")
        assert cache.stats().misses == misses
        want = store.aggregate_across("m", None, 60.0, 120.0, 60.0, "sum")
        assert np.array_equal(got.values, want.values)


class TestStats:
    def test_counts(self, store):
        for i in range(40):
            store.append(sweep("m", float(i), ["a", "b"], [1.0, 2.0]))
        s = store.stats()
        assert s.series == 2
        assert s.samples == 80
        assert s.sealed_chunks == 4  # 2 series x (40 // 16) sealed
        assert s.compressed_bytes > 0

    def test_compression_ratio_beats_raw_on_regular_data(self, store):
        for i in range(512):
            store.append(sweep("m", i * 60.0, ["a"], [42.0]))
        store.flush()
        assert store.stats().compression_ratio > 4

    def test_drop_series(self, store):
        store.append(sweep("m", 0.0, ["a"], [1.0]))
        assert store.drop_series("m", "a")
        assert not store.drop_series("m", "a")
        assert len(store.query("m", "a")) == 0


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64)


class TestHeadBlock:
    """The per-metric head block: lock-step, its break, its cost."""

    NAMES = ["a", "b", "c", "d"]

    def sweeps(self, store, n, metrics=("m", "k")):
        for i in range(n):
            for m in metrics:
                store.append(sweep(m, i * 10.0, self.NAMES,
                                   np.arange(4.0) + i))

    def test_a_late_joiner_breaks_lock_step_for_its_metric_only(self):
        store = TimeSeriesStore(chunk_size=64)
        self.sweeps(store, 10)
        # in lock-step a head holds 8 B per value and each metric one
        # shared 8 B timestamp per sweep
        assert store.stats().compressed_bytes == 8 * 80 + 8 * (10 + 10)
        before = {c: store.query("m", c) for c in self.NAMES}
        vals = np.array([7.0, float("nan"), -0.0, float("inf"), 5.0])
        store.append(sweep("m", 100.0, self.NAMES + ["late"], vals))
        # "m" carries per-row times now, 16 B per open point; "k" is
        # untouched and still shares its column
        assert store.stats().compressed_bytes == (
            16 * (40 + 5) + 8 * 40 + 8 * 10)
        for c, v in zip(self.NAMES, vals):
            got = store.query("m", c)
            assert np.array_equal(got.times, np.r_[before[c].times, 100.0])
            assert np.array_equal(bits(got.values),
                                  bits(np.r_[before[c].values, v]))
        late = store.query("m", "late")
        assert late.times.tolist() == [100.0] and late.values[0] == 5.0
        for agg in ("mean", "sum", "min", "max", "last", "count"):
            warm = store.downsample("m", "a", 0.0, 200.0, 30.0, agg)
            cold = store.downsample("m", "a", 0.0, 200.0, 30.0, agg,
                                    prune=False)
            assert np.array_equal(warm.times, cold.times)
            assert np.array_equal(warm.values, cold.values)
        # a ragged block keeps sealing the same chunks: once every head
        # is empty again the metric is back in lock-step
        store.flush()
        sealed = store.stats().compressed_bytes
        self.sweeps(store, 1, metrics=("m",))
        assert store.stats().compressed_bytes == sealed + 8 * 4 + 8

    def test_split_and_lagging_sweeps_stay_in_lock_step(self):
        store = TimeSeriesStore(chunk_size=4)
        for i in range(6):      # the two halves seal in different appends
            store.append(sweep("m", i * 10.0, ["a", "b"], [i, i + 1.0]))
            store.append(sweep("m", i * 10.0, ["c", "d"], [i + 2.0, i + 3.0]))
        s = store.stats()
        assert s.sealed_chunks == 4
        assert s.compressed_bytes - sum(
            c.nbytes for n in self.NAMES
            for c in store._series_view("m", n)[0].chunks) == 8 * 8 + 8 * 2
        for j, c in enumerate(self.NAMES):
            got = store.query("m", c)
            assert got.times.tolist() == [i * 10.0 for i in range(6)]
            assert got.values.tolist() == [i + float(j) for i in range(6)]

    def test_adopt_chunk_trims_a_head_prefix_in_order(self):
        # recovery finds a chunk sealed from the front of a restored
        # head: exactly those samples leave it, the rest keep their order
        store = TimeSeriesStore(chunk_size=64)
        self.sweeps(store, 10, metrics=("m",))
        want = {c: store.query("m", c) for c in self.NAMES}
        t, v = want["b"].times[:4], want["b"].values[:4]
        chunk = SealedChunk.of(t, v, blob=compress_chunk(t, v))
        assert store.adopt_chunk(MetricKey("m", "b"), chunk, t, v) == 0
        s = store.stats()
        assert (s.samples, s.sealed_chunks) == (40, 1)
        assert len(store._series_view("m", "b")[0].head()[0]) == 6
        for c in self.NAMES:
            got = store.query("m", c)
            assert np.array_equal(got.times, want[c].times)
            assert np.array_equal(bits(got.values), bits(want[c].values))
        # a chunk longer than the head takes all of it and reports the
        # rest as points the WAL replay must skip
        t2 = np.arange(40.0, 140.0, 10.0)
        chunk = SealedChunk.of(t2, t2, blob=compress_chunk(t2, t2))
        assert store.adopt_chunk(MetricKey("m", "b"), chunk, t2, t2) == 4
        assert store.stats().samples == 44
        assert len(store.query("m", "b")) == 14

    def test_a_sweep_allocates_per_batch_not_per_point(self):
        # a count, not a timing: the list heads made two float objects
        # and a MetricKey per point (>= 65,000 blocks for these sweeps)
        n = 4096
        names = name_column([f"n{i}" for i in range(n)])
        values = np.random.default_rng(0).normal(size=n)
        batches = [SeriesBatch.sweep("m", i * 60.0, names, values)
                   for i in range(16)]
        store = TimeSeriesStore(chunk_size=512)
        for b in batches[:8]:
            store.append(b)
        gc.collect()
        before = sys.getallocatedblocks()
        for b in batches[8:]:
            store.append(b)
        assert sys.getallocatedblocks() - before < n
        assert store.stats().samples == 16 * n

    @pytest.mark.parametrize("shards", [0, 4])
    def test_an_aggregate_over_open_heads_folds_blocks_not_series(
            self, shards, monkeypatch):
        # a count, not a timing: one fold per head block the selection
        # touches, where the per-row read made one per series (256)
        head = Mock(wraps=tsdb.head_partials)
        fold = Mock(wraps=rollup.fold_partials)
        monkeypatch.setattr(tsdb, "head_partials", head)
        monkeypatch.setattr(rollup, "fold_partials", fold)
        store = (ShardedTimeSeriesStore(shards=shards, chunk_size=64,
                                        pyramid_levels=DEFAULT_LEVELS)
                 if shards else
                 TimeSeriesStore(chunk_size=64, pyramid_levels=DEFAULT_LEVELS))
        names = name_column([f"n{i}" for i in range(256)])
        values = np.arange(256.0)       # integer-valued: any order sums alike
        for i in range(12):
            store.append(SeriesBatch.sweep("m", i * 60.0, names, values + i))
        got, _ = store._bucketed_read("m", list(names), 120.0, 720.0, 300.0,
                                      "mean", "x")
        assert fold.call_count == 0
        assert 1 <= head.call_count <= max(shards, 1)
        want = store.aggregate_across("m", list(names), 120.0, 720.0, 300.0,
                                      "mean")
        assert np.array_equal(got.times, want.times)
        assert np.array_equal(got.values, want.values)

    def assert_block_fold_is_the_raw_answer(self, store, comps):
        for t0, step in ((-np.inf, 10.0), (0.0, 20.0), (15.0, 7.0)):
            for agg in ("mean", "sum", "min", "max", "last", "count"):
                got, _ = store._bucketed_read("m", comps, t0, 200.0, step,
                                              agg, "x")
                want = store.aggregate_across("m", comps, t0, 200.0, step,
                                              agg)
                assert np.array_equal(got.times, want.times), (t0, step, agg)
                assert np.array_equal(got.values, want.values,
                                      equal_nan=True), (t0, step, agg)

    def test_a_half_applied_split_sweep_reads_like_the_raw_path(self):
        # rows c, d lag the shared time column by one: still lock-step
        store = TimeSeriesStore(chunk_size=64)
        self.sweeps(store, 5, metrics=("m",))
        store.append(sweep("m", 50.0, ["a", "b"], [0.5, float("nan")]))
        assert store.stats().compressed_bytes == 8 * 22 + 8 * 6
        self.assert_block_fold_is_the_raw_answer(store, ["d", "a", "c", "b"])

    def test_a_late_joiner_reads_like_the_raw_path(self):
        # ragged: per-row times, one row far shorter, one out of order
        store = TimeSeriesStore(chunk_size=64)
        self.sweeps(store, 5, metrics=("m",))
        store.append(sweep("m", 50.0, self.NAMES + ["late"], np.arange(5.0)))
        store.append(sweep("m", 5.0, ["late", "b"], [9.0, -9.0]))
        assert store.stats().compressed_bytes == 16 * 27
        self.assert_block_fold_is_the_raw_answer(
            store, ["late", "d", "b", "gone", "a"])


class TestBlockSeal:
    """A seal storm is sealed a group at a time, whatever mix fills."""

    NAMES = ["a", "b", "c", "d"]
    LEVELS = (10.0, 60.0)

    def feed(self, store):
        """Per sweep: a lock-step metric, a metric a late joiner made
        ragged, and a batch that repeats components (runs, not a sweep);
        the fourth sweep fills every head of all three."""
        fed = []
        rng = np.random.default_rng(5)
        for i in range(9):
            t = 7.0 * i
            fed.append(sweep("m.step", t, self.NAMES, rng.normal(size=4)))
            late = self.NAMES + (["late"] if i else [])
            fed.append(sweep("m.ragged", t, late, rng.normal(size=len(late))))
            fed.append(SeriesBatch(
                "m.runs", np.array(["a", "b", "a", "b"], dtype=object),
                np.array([t, t, t + 3.0, t + 3.0]), rng.normal(size=4)))
        for b in fed:
            store.append(b)
        return fed

    def assert_answers_like(self, store, ref):
        assert store.points_by_metric() == ref.points_by_metric()
        for key in ref.keys():
            m, c = key.metric, key.component
            got, want = store.query(m, c), ref.query(m, c)
            assert np.array_equal(got.times, want.times), key
            assert np.array_equal(bits(got.values), bits(want.values)), key
            for agg in ("last", "min", "max", "count"):    # order-free
                warm = store.downsample(m, c, 0.0, 100.0, 20.0, agg)
                cold = ref.downsample(m, c, 0.0, 100.0, 20.0, agg,
                                      prune=False)
                assert np.array_equal(warm.times, cold.times), (key, agg)
                assert np.array_equal(warm.values, cold.values), (key, agg)

    def test_a_storm_mixes_a_group_a_late_joiner_and_repeated_components(
            self, monkeypatch):
        groups = Mock(wraps=tsdb.compress_chunks)
        monkeypatch.setattr(tsdb, "compress_chunks", groups)
        store = TimeSeriesStore(chunk_size=4, pyramid_levels=self.LEVELS)
        self.feed(store)
        ref = TimeSeriesStore(chunk_size=64)       # nothing seals
        self.feed(ref)
        # 2 storms x (4 step + 4 ragged), 2 late chunks, 4 x 2 run chunks
        assert store.stats().sealed_chunks == 16 + 2 + 8
        # the lock-step metric sealed four rows a call, the rest a row
        assert sorted(len(c.args[1]) for c in groups.call_args_list) == (
            [1] * 18 + [4, 4])
        self.assert_answers_like(store, ref)
        # rows sealed together share their bucket, count and t_last
        # columns, read-only; what differs by row is a row's own
        a, b = (store._series_view("m.step", c)[0].pyramid._pieces[10.0][0]
                for c in "ab")
        for i in (0, 1, 5):
            assert a[i] is b[i] and not a[i].flags.writeable
        assert not np.array_equal(a[2], b[2])

    def test_a_crash_between_two_groups_of_a_storm_recovers_exact(
            self, tmp_path):
        def tier():
            return DiskTier(tmp_path / "tier", sync_every_bytes=1 << 20)
        store = TimeSeriesStore(chunk_size=4, pyramid_levels=self.LEVELS,
                                disk=tier())
        fed = self.feed(TimeSeriesStore(chunk_size=64))
        ref = TimeSeriesStore(chunk_size=64)
        storm = 3 * 3 + 1               # sweep 3 of the ragged metric
        for b in fed[:storm]:
            store.append(b)
            ref.append(b)
        store.snapshot()
        ref.append(fed[storm])

        class PowerLoss(Exception):
            pass

        def die_after_the_first_group():
            store.disk.sync()           # its record and the WAL are down
            raise PowerLoss
        store.disk.enforce_budget = die_after_the_first_group
        with pytest.raises(PowerLoss):
            store.append(fed[storm])
        # in memory, too, a row is either sealed or still open
        assert store.points_by_metric() == ref.points_by_metric()
        store.simulate_crash()
        rec = store.reopen()
        r = rec.recovery
        assert (r.scanned_chunks, r.wal_points_skipped,
                r.wal_points_replayed) == (1, 1, 4)
        self.assert_answers_like(rec, ref)
        rec.close()

    def test_a_window_past_everything_sealed_reads_no_sealed_state(self):
        store = TimeSeriesStore(chunk_size=4, pyramid_levels=self.LEVELS)
        self.feed(store)                # sealed through t = 49, heads at 56
        series = store._series_view("m.step", "a")[0]
        assert series.sealed_t_max == 49.0
        got = store.downsample("m.step", "a", 50.0, 70.0, 10.0, "mean")
        assert series.pyramid._merged == {}     # no level was merged
        want = store.downsample("m.step", "a", 50.0, 70.0, 10.0, "mean",
                                prune=False)
        assert got.times.tolist() == want.times.tolist() == [50.0]
        assert np.array_equal(got.values, want.values)
        store.downsample("m.step", "a", 40.0, 70.0, 10.0, "mean")
        assert set(series.pyramid._merged) == {10.0}


class TestMetricIndex:
    """``components(metric)`` is answered from a per-metric index; it
    must stay what a scan of every series would say."""

    @staticmethod
    def scan(store, metric):
        shards = getattr(store, "shards", None)
        if shards is None:
            shards = [store]
        else:
            shards = [s for s, h in zip(shards, store.shard_health())
                      if h is not Health.FAILED]
        keys = sorted((k for s in shards for k in s._series
                       if k.metric == metric), key=str)
        return [k.component for k in keys]

    def assert_scan(self, store):
        for _ in range(2):              # building the index, then using it
            for metric in ("m", "k", "never.seen"):
                assert store.components(metric) == self.scan(store, metric)
                assert ([k.component for k in store.keys(metric)]
                        == self.scan(store, metric))

    @pytest.mark.parametrize("shards", [0, 4])
    def test_index_follows_create_drop_reopen_and_shard_health(
            self, tmp_path, shards):
        if shards:
            store = ShardedTimeSeriesStore(shards=shards, chunk_size=4,
                                           disk_dir=str(tmp_path))
        else:
            store = TimeSeriesStore(chunk_size=4, disk=DiskTier(tmp_path))
        names = [f"n{i}" for i in (3, 10, 1, 2, 11)]
        for i in range(6):
            store.append(sweep("m", 10.0 * i, names, np.arange(5.0)))
            store.append(sweep("k", 10.0 * i, names[:2], [1.0, 2.0]))
        self.assert_scan(store)
        assert store.components("m") == ["n1", "n10", "n11", "n2", "n3"]
        store.append(sweep("m", 60.0, ["n0", "n4"], [0.0, 4.0]))   # created
        self.assert_scan(store)
        assert store.drop_series("m", "n10")
        assert store.drop_series("k", "n3")
        self.assert_scan(store)
        assert "n10" not in store.components("m")
        store.append(sweep("m", 70.0, ["n10"], [1.0]))      # and back
        self.assert_scan(store)
        before = store.components("m")
        store.close()
        store = store.reopen()                              # restored
        try:
            self.assert_scan(store)
            assert store.components("m") == before
            if shards:
                i = store.shard_of("m", "n1")
                store.fail_shard(i)
                self.assert_scan(store)
                assert "n1" not in store.components("m")
                store.recover_shard(i)
                self.assert_scan(store)
                assert store.components("m") == before
        finally:
            store.close()


class TestComponentColumn:
    def test_for_component_is_one_read_only_scalar_seen_n_times(self):
        b = SeriesBatch.for_component("m", "c0-0c1s4n2", [0.0, 1.0, 2.0],
                                      [1.0, 2.0, 3.0])
        old = np.full(3, "c0-0c1s4n2", dtype=object)
        assert b.components.dtype == object and b.components.shape == (3,)
        assert np.array_equal(b.components, old)
        assert not b.components.flags.writeable
        assert b.components.strides == (0,)         # no per-sample pointer
        with pytest.raises(ValueError):
            b.components[0] = "other"
        # what consumers do with the column still works, and copies own
        assert np.array_equal(b.in_window(1.0, 3.0).components, old[1:])
        b.copy().components[0] = "other"
        empty = SeriesBatch.for_component("m", "x", [], [])
        assert len(empty) == 0 and empty.components.shape == (0,)

    def test_store_answers_carry_it(self, store):
        for t in range(40):
            store.append(sweep("m", float(t), ["a", "b"], [t, -t]))
        for batch in (store.query("m", "a", 3.0, 30.0),
                      store.query_components("m")["b"],
                      store.downsample("m", "a", 0.0, 40.0, 10.0)):
            assert len(batch) and not batch.components.flags.writeable
            assert batch.components.tolist() == (
                [batch.components[0]] * len(batch))
