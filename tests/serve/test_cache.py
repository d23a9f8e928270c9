"""Unit tests: the query-result cache's epoch invalidation and bounds.

The result cache is the one byte-bounded :class:`LRUCache` (the chunk
cache is the same class) keyed on normalized plans, with the metric's
mutation epoch on every entry.
"""

import numpy as np

from repro.core.metric import SeriesBatch
from repro.serve.frontend import QueryFrontend
from repro.serve.plan import QueryPlan
from repro.storage.chunkcache import LRUCache
from repro.storage.tsdb import TimeSeriesStore


def batch(n=8):
    return SeriesBatch.for_component(
        "m.x", "c0", np.arange(n, dtype=float), np.ones(n))


def plan(i=0):
    return QueryPlan.downsample("m.x", "c0", 0.0, 100.0, 10.0 + i, "mean")


def put(c, key, epoch, b):
    c.put(key, b, b.times.nbytes + b.values.nbytes + 160, epoch)


def frontend(n=4096, comps=("c0",)):
    store = TimeSeriesStore(chunk_size=512)
    for comp in comps:
        store.append(SeriesBatch.for_component(
            "m.x", comp, np.arange(n, dtype=float), np.ones(n)))
    return QueryFrontend(store)


class TestQueryResultCache:
    def test_hit_after_put(self):
        c = LRUCache(16 << 20)
        b = batch()
        put(c, plan(), 1, b)
        assert c.get(plan(), 1) is b
        s = c.stats()
        assert (s.hits, s.misses, s.entries) == (1, 0, 1)

    def test_epoch_move_invalidates(self):
        c = LRUCache(16 << 20)
        put(c, plan(), 1, batch())
        assert c.get(plan(), 2) is None     # metric mutated since
        s = c.stats()
        assert s.stale == 1 and s.misses == 1 and s.entries == 0
        assert s.bytes == 0                 # stale entry's bytes released

    def test_miss_on_absent_plan(self):
        c = LRUCache(16 << 20)
        assert c.get(plan(), 0) is None
        assert c.stats().misses == 1

    def test_lru_byte_bound_evicts_oldest(self):
        c = LRUCache(1000)
        for i in range(8):
            put(c, plan(i), 1, batch(16))   # 416 B each incl. overhead
        s = c.stats()
        assert s.bytes <= 1000
        assert s.evictions >= 1
        assert c.get(plan(0), 1) is None    # oldest went first
        assert c.get(plan(7), 1) is not None

    def test_dict_payload_accounted(self):
        fe = frontend(n=8, comps=("c0", "c1"))
        fe.query_components("m.x")
        assert fe.stats().cache.bytes > 2 * 8 * 16

    def test_zero_bytes_disables(self):
        c = LRUCache(0)
        put(c, plan(), 1, batch())
        assert c.get(plan(), 1) is None
        assert c.stats().entries == 0

    def test_clear_keeps_lifetime_counters(self):
        c = LRUCache(16 << 20)
        put(c, plan(), 1, batch())
        c.get(plan(), 1)
        c.clear()
        s = c.stats()
        assert s.entries == 0 and s.bytes == 0 and s.hits == 1

    def test_replace_same_plan_reaccounts_bytes(self):
        c = LRUCache(16 << 20)
        put(c, plan(), 1, batch(64))
        big = c.stats().bytes
        put(c, plan(), 2, batch(4))
        s = c.stats()
        assert s.entries == 1 and s.bytes < big

    def test_oversized_answer_keeps_resident_answers(self):
        # an answer larger than the whole bound is refused: it must not
        # evict every resident answer on its way in (and then itself)
        fe = frontend()
        fe.result_cache.max_bytes = 2000
        small = [fe.query("m.x", "c0", float(t), float(t) + 10.0)
                 for t in (0, 100, 200)]
        assert fe.stats().cache.entries == 3
        big = fe.query("m.x", "c0")
        assert len(big) == 4096
        s = fe.stats().cache
        assert (s.entries, s.evictions) == (3, 0)
        assert all(fe.query("m.x", "c0", float(t), float(t) + 10.0) is b
                   for t, b in zip((0, 100, 200), small))
