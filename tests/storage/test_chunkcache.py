"""Unit + integration tests for the decompressed-chunk cache: the one
:class:`LRUCache`, holding ``chunk id -> (times, values)`` at epoch 0."""

import numpy as np
import pytest

from repro.core.metric import SeriesBatch
from repro.storage.chunkcache import CHUNK_CACHE_BYTES, LRUCache
from repro.storage.diskier import DiskTier
from repro.storage.sharded import ShardedTimeSeriesStore
from repro.storage.tsdb import TimeSeriesStore


def arrays(n, fill=1.0):
    return np.arange(n, dtype=np.float64), np.full(n, fill)


def put(c, cid, t, v):
    c.put(cid, (t, v), t.nbytes + v.nbytes)


class TestChunkCacheUnit:
    def test_get_miss_then_hit(self):
        c = LRUCache(CHUNK_CACHE_BYTES)
        assert c.get(1) is None
        t, v = arrays(8)
        put(c, 1, t, v)
        got = c.get(1)
        assert got is not None and np.array_equal(got[0], t)
        s = c.stats()
        assert (s.hits, s.misses, s.entries) == (1, 1, 1)
        assert s.bytes == t.nbytes + v.nbytes
        assert s.hit_ratio == 0.5

    def test_lru_eviction_under_byte_bound(self):
        # each entry is 16 B/sample * 8 = 128 B; bound fits two entries
        c = LRUCache(256)
        for cid in (1, 2):
            put(c, cid, *arrays(8))
        c.get(1)                       # make 2 the least-recently-used
        put(c, 3, *arrays(8))
        assert c.get(2) is None        # evicted
        assert c.get(1) is not None
        assert c.get(3) is not None
        assert c.stats().evictions == 1
        assert c.resident_bytes <= 256

    def test_replacing_an_entry_does_not_leak_bytes(self):
        c = LRUCache(1024)
        put(c, 1, *arrays(8))
        put(c, 1, *arrays(16))
        assert len(c) == 1
        assert c.resident_bytes == 16 * 16

    def test_oversized_entry_is_refused(self):
        c = LRUCache(64)
        put(c, 1, *arrays(64))
        assert len(c) == 0 and c.get(1) is None

    def test_zero_bytes_disables_caching(self):
        c = LRUCache(0)
        put(c, 1, *arrays(4))
        assert c.get(1) is None
        assert c.stats().evictions == 0

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError):
            LRUCache(-1)

    def test_invalidate_counts_only_resident(self):
        c = LRUCache(CHUNK_CACHE_BYTES)
        put(c, 1, *arrays(4))
        put(c, 2, *arrays(4))
        assert c.invalidate([1, 99]) == 1
        assert c.stats().invalidations == 1
        assert len(c) == 1

    def test_clear_preserves_lifetime_counters(self):
        c = LRUCache(CHUNK_CACHE_BYTES)
        put(c, 1, *arrays(4))
        c.get(1)
        c.clear()
        assert len(c) == 0 and c.resident_bytes == 0
        assert c.stats().hits == 1

    def test_empty_cache_hit_ratio_is_zero(self):
        assert LRUCache(CHUNK_CACHE_BYTES).stats().hit_ratio == 0.0


def fill(store, n=64, metric="m", comp="a"):
    for i in range(n):
        store.append(SeriesBatch.sweep(metric, float(i), [comp], [float(i)]))
    store.flush()


class TestStoreIntegration:
    def test_repeated_reads_hit_the_cache(self):
        cache = LRUCache(CHUNK_CACHE_BYTES)
        store = TimeSeriesStore(chunk_size=16, cache=cache)
        fill(store)
        store.query("m", "a")
        misses_after_cold = cache.stats().misses
        assert misses_after_cold == 4
        store.query("m", "a")
        s = cache.stats()
        assert s.misses == misses_after_cold
        assert s.hits == 4

    def test_cached_and_uncached_reads_agree(self):
        cached = TimeSeriesStore(chunk_size=16,
                                 cache=LRUCache(CHUNK_CACHE_BYTES))
        plain = TimeSeriesStore(chunk_size=16)
        fill(cached), fill(plain)
        cached.query("m", "a")          # populate
        a = cached.query("m", "a", 10.0, 50.0)
        b = plain.query("m", "a", 10.0, 50.0)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.values, b.values)

    def test_drop_series_invalidates(self):
        cache = LRUCache(CHUNK_CACHE_BYTES)
        store = TimeSeriesStore(chunk_size=16, cache=cache)
        fill(store)
        store.query("m", "a")
        store.drop_series("m", "a")
        assert len(cache) == 0
        assert cache.stats().invalidations == 4

    def test_sharded_store_shares_one_cache(self):
        store = ShardedTimeSeriesStore(shards=4, chunk_size=16)
        for comp in ("a", "b", "c", "d"):
            fill(store, comp=comp)
        for comp in ("a", "b", "c", "d"):
            store.query("m", comp)
        assert store.cache_stats().misses == 16
        for comp in ("a", "b", "c", "d"):
            store.query("m", comp)
        s = store.cache_stats()
        assert s.hits == 16
        # every shard routed through the same instance
        assert all(sh.cache is store.cache for sh in store.shards)

    @pytest.mark.parametrize("max_bytes", [32 << 20, 5 * 16 * 16, 0])
    def test_a_batched_read_counts_like_the_same_chunks_one_by_one(
            self, max_bytes):
        comps = ["a", "b", "c", "d"]
        batched, single = (
            TimeSeriesStore(chunk_size=16, cache=LRUCache(max_bytes))
            for _ in range(2))
        for store in (batched, single):
            for comp in comps:
                fill(store, comp=comp)          # 4 sealed chunks each
        for warm in (False, True):
            got = batched.query_components("m", comps, 5.0, 60.0)
            want = {c: single.query("m", c, 5.0, 60.0) for c in comps}
            for c in comps:
                assert np.array_equal(got[c].times, want[c].times)
                assert np.array_equal(got[c].values, want[c].values)
            if warm and 0 < max_bytes < 16 * 16 * 16:
                # a cache smaller than the read: the batched read probes
                # before it admits, so it still finds the five chunks
                # that one-by-one reading evicts on its way to them
                assert (batched.cache_stats().hits,
                        single.cache_stats().hits) == (5, 0)
            else:
                assert batched.cache_stats() == single.cache_stats()
        cache = batched.cache
        assert cache.stats().misses >= 16
        assert (cache.stats().evictions > 0) == (max_bytes == 5 * 16 * 16)
        # what was admitted owns its memory: the byte count is the truth
        # and no entry keeps a decode batch alive
        entries = [tv for _, tv, _ in cache._entries.values()]
        assert cache.resident_bytes == sum(t.nbytes + v.nbytes
                                           for t, v in entries)
        assert all(a.base is None or a.base.nbytes == a.nbytes
                   for tv in entries for a in tv)

    @pytest.mark.parametrize("shards", [0, 4])
    def test_archive_invalidates_demoted_chunks(self, tmp_path, shards):
        if shards:
            tiered = ShardedTimeSeriesStore(shards=shards, chunk_size=16,
                                            disk_dir=str(tmp_path))
        else:
            tiered = TimeSeriesStore(chunk_size=16,
                                     cache=LRUCache(CHUNK_CACHE_BYTES),
                                     disk=DiskTier(tmp_path))
        fill(tiered)
        tiered.query("m", "a")
        resident_before = len(tiered.cache)
        assert resident_before == 4
        tiered.archive_before(32.0)
        assert len(tiered.cache) == 2    # archived chunks dropped
        assert tiered.cache_stats().invalidations == 2
        # transparent reload still returns the full, correct series
        out = tiered.query("m", "a", 0.0, 64.0)
        assert list(out.values) == [float(i) for i in range(64)]
        for shard in getattr(tiered, "shards", [tiered]):
            shard.disk.close()


class TestGroupedEntryDensity:
    """A seal group's chunks share one time column, so their cache
    entries are values only: a lock-step history that decodes to between
    one and two caches' worth of ``(times, values)`` fits at 8 B a
    sample, and a cyclic sweep over it hits from its second pass on."""

    N, K = 32, 8                        # chunk size, rows a metric
    METRICS = [f"m{i}" for i in range(4)]
    SEALS = 6                           # sealed chunks a row

    def fleet(self, store):
        comps = [f"c{k}" for k in range(self.K)]
        rng = np.random.default_rng(3)
        for i in range(self.N * self.SEALS):
            for m in self.METRICS:
                store.append(SeriesBatch.sweep(
                    m, 60.0 * i, comps, rng.normal(size=self.K)))
        return self.N * self.SEALS * 60.0

    def chunks(self, store):
        return [c for m in self.METRICS
                for s in store._blocks[m].series if s is not None
                for c in s.chunks]

    def test_a_cyclic_sweep_fits_and_hits_from_its_second_pass(self):
        sealed = len(self.METRICS) * self.K * self.SEALS * self.N
        cache = LRUCache(sealed * 16 * 2 // 3)   # the history is 1.5x it
        store = TimeSeriesStore(chunk_size=self.N, cache=cache)
        t1 = self.fleet(store)
        chunks = self.chunks(store)
        want = [store.query_components(m, None, 0.0, t1)
                for m in self.METRICS]
        first = cache.stats()
        assert first.hits == 0 and first.misses == len(chunks)
        for _ in range(2):
            got = [store.query_components(m, None, 0.0, t1)
                   for m in self.METRICS]
            for w, g in zip(want, got):
                for c in w:
                    assert np.array_equal(g[c].times, w[c].times)
                    assert np.array_equal(g[c].values.view(np.int64),
                                          w[c].values.view(np.int64))
        s = cache.stats()
        assert s.hits == 2 * len(chunks) and s.evictions == 0
        assert cache.resident_bytes == 8 * sealed <= cache.max_bytes
        assert all(c.times is not None for c in chunks)    # all grouped
        for c in chunks:
            v = cache._entries[c.cid][1]
            assert isinstance(v, np.ndarray) and v.nbytes == 8 * self.N

    def test_own_chunks_keep_times_and_values(self, tmp_path):
        sealed = len(self.METRICS) * self.K * self.SEALS * self.N
        store = TimeSeriesStore(chunk_size=self.N,
                                cache=LRUCache(sealed * 20),
                                disk=DiskTier(tmp_path))
        t1 = self.fleet(store)
        grouped = [store.query_components(m, None, 0.0, t1)
                   for m in self.METRICS]
        assert store.cache.resident_bytes == 8 * sealed
        store.snapshot()
        store.close()
        rec = store.reopen()
        try:
            chunks = self.chunks(rec)
            assert all(c.times is None for c in chunks)    # all own
            for _ in range(2):
                for m, w in zip(self.METRICS, grouped):
                    g = rec.query_components(m, None, 0.0, t1)
                    for c in w:
                        assert np.array_equal(g[c].times, w[c].times)
                        assert np.array_equal(g[c].values.view(np.int64),
                                              w[c].values.view(np.int64))
            cache = rec.cache
            assert cache.stats().hits == len(chunks)
            assert cache.resident_bytes == 16 * sealed <= cache.max_bytes
            for c in chunks:
                t, v = cache._entries[c.cid][1]
                assert t.nbytes == v.nbytes == 8 * self.N
        finally:
            rec.close()

    def test_a_small_cache_stays_inside_its_bound(self):
        cache = LRUCache(8 * self.N * 5 + 1)    # five grouped entries
        store = TimeSeriesStore(chunk_size=self.N, cache=cache)
        t1 = self.fleet(store)
        for m in self.METRICS * 2:
            store.query_components(m, ["c0", "c1", "c2"], 0.0, t1)
            assert cache.resident_bytes <= cache.max_bytes
            assert len(cache) == 5
