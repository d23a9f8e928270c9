"""Unit + integration tests for the decompressed-chunk LRU cache."""

import numpy as np
import pytest

from repro.core.metric import SeriesBatch
from repro.storage.chunkcache import ChunkCache
from repro.storage.diskier import DiskTier
from repro.storage.sharded import ShardedTimeSeriesStore
from repro.storage.tsdb import TimeSeriesStore


def arrays(n, fill=1.0):
    return np.arange(n, dtype=np.float64), np.full(n, fill)


class TestChunkCacheUnit:
    def test_get_miss_then_hit(self):
        c = ChunkCache()
        assert c.get(1) is None
        t, v = arrays(8)
        c.put(1, t, v)
        got = c.get(1)
        assert got is not None and np.array_equal(got[0], t)
        s = c.stats()
        assert (s.hits, s.misses, s.entries) == (1, 1, 1)
        assert s.bytes == t.nbytes + v.nbytes
        assert s.hit_ratio == 0.5

    def test_lru_eviction_under_byte_bound(self):
        # each entry is 16 B/sample * 8 = 128 B; bound fits two entries
        c = ChunkCache(max_bytes=256)
        for cid in (1, 2):
            c.put(cid, *arrays(8))
        c.get(1)                       # make 2 the least-recently-used
        c.put(3, *arrays(8))
        assert c.get(2) is None        # evicted
        assert c.get(1) is not None
        assert c.get(3) is not None
        assert c.stats().evictions == 1
        assert c.resident_bytes <= 256

    def test_replacing_an_entry_does_not_leak_bytes(self):
        c = ChunkCache(max_bytes=1024)
        c.put(1, *arrays(8))
        c.put(1, *arrays(16))
        assert len(c) == 1
        assert c.resident_bytes == 16 * 16

    def test_oversized_entry_is_refused(self):
        c = ChunkCache(max_bytes=64)
        c.put(1, *arrays(64))
        assert len(c) == 0 and c.get(1) is None

    def test_zero_bytes_disables_caching(self):
        c = ChunkCache(max_bytes=0)
        c.put(1, *arrays(4))
        assert c.get(1) is None
        assert c.stats().evictions == 0

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError):
            ChunkCache(max_bytes=-1)

    def test_invalidate_counts_only_resident(self):
        c = ChunkCache()
        c.put(1, *arrays(4))
        c.put(2, *arrays(4))
        assert c.invalidate([1, 99]) == 1
        assert c.stats().invalidations == 1
        assert len(c) == 1

    def test_clear_preserves_lifetime_counters(self):
        c = ChunkCache()
        c.put(1, *arrays(4))
        c.get(1)
        c.clear()
        assert len(c) == 0 and c.resident_bytes == 0
        assert c.stats().hits == 1

    def test_empty_cache_hit_ratio_is_zero(self):
        assert ChunkCache().stats().hit_ratio == 0.0


def fill(store, n=64, metric="m", comp="a"):
    for i in range(n):
        store.append(SeriesBatch.sweep(metric, float(i), [comp], [float(i)]))
    store.flush()


class TestStoreIntegration:
    def test_repeated_reads_hit_the_cache(self):
        cache = ChunkCache()
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
        cached = TimeSeriesStore(chunk_size=16, cache=ChunkCache())
        plain = TimeSeriesStore(chunk_size=16)
        fill(cached), fill(plain)
        cached.query("m", "a")          # populate
        a = cached.query("m", "a", 10.0, 50.0)
        b = plain.query("m", "a", 10.0, 50.0)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.values, b.values)

    def test_drop_series_invalidates(self):
        cache = ChunkCache()
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
            TimeSeriesStore(chunk_size=16, cache=ChunkCache(max_bytes))
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
        entries = list(cache._entries.values())
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
            tiered = TimeSeriesStore(chunk_size=16, cache=ChunkCache(),
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
