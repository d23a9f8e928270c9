"""Property-based tests: a seal group's chunks share one read-only time
column, their chunk-cache entries hold values only, and every decode —
a cache miss or a hit — is bit for bit the chunk's own blob decoded."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.metric import SeriesBatch
from repro.storage import tsdb
from repro.storage.sharded import ShardedTimeSeriesStore
from repro.storage.tsdb import (TimeSeriesStore, decompress_chunk,
                                decompress_chunks)

from .test_storage_properties import _bits, _chunk_spec

SPECIALS = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0])


@st.composite
def fleets(draw):
    """``(times, values)`` of a lock-step fleet: ``(S,)`` sweep times and
    ``(K, S)`` values over ``S`` = one to two chunks and a partial one."""
    n = draw(st.sampled_from([3, 4, 7, 32, 128, 256]))
    k = draw(st.integers(2, 8))
    s = n * draw(st.integers(1, 2)) + draw(st.integers(0, n - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cadence = draw(st.sampled_from(["regular", "irregular", "sub-ms"]))
    if cadence == "regular":            # one-byte varints
        t = 60.0 * np.arange(s)
    elif cadence == "irregular":        # multi-byte varints
        t = np.cumsum(rng.integers(1, 10**6, s)) / 1000.0
    else:                               # stamps the seal rounds to the ms
        t = 10.0 * np.arange(s) + rng.uniform(0.0, 0.002, s)
    if draw(st.booleans()):             # out-of-order sweeps, sorted at seal
        for lo in range(0, s, n):
            t[lo:lo + n] = rng.permutation(t[lo:lo + n])
    v = np.round(rng.normal(200.0, 30.0, (k, s)), draw(st.integers(0, 3)))
    v[1] = 3.5                          # uniform tokens: no hint
    mask = rng.random((k, s)) < 0.1
    v[mask] = rng.choice(SPECIALS, int(mask.sum()))
    return n, t, v


def _store(n, shards):
    if shards:
        return ShardedTimeSeriesStore(shards=shards, chunk_size=n)
    return TimeSeriesStore(chunk_size=n)


def _fill(store, t, v):
    comps = [f"c{i}" for i in range(len(v))]
    for j, tj in enumerate(t.tolist()):
        store.append(SeriesBatch.sweep("m", tj, comps, v[:, j]))
    return comps


def _blocks(store):
    return [b for sh in getattr(store, "shards", [store])
            for b in sh._blocks.values()]


class TestGroupedDecode:
    @given(fleet=fleets(), shards=st.sampled_from([0, 4]))
    @settings(max_examples=60, deadline=None)
    def test_a_miss_and_a_hit_are_the_blob_decoded(self, fleet, shards):
        n, t, v = fleet
        store = _store(n, shards)
        _fill(store, t, v)
        cache = store.cache
        for block in _blocks(store):
            wanted = [(block.tier, c) for s in block.series if s is not None
                      for c in s.chunks]
            hits = cache.stats().hits
            miss = tsdb._decode(wanted, cache)
            hit = tsdb._decode(wanted, cache)
            assert cache.stats().hits - hits == len(wanted)
            for (_, chunk), a, b in zip(wanted, miss, hit):
                want_t, want_v = decompress_chunk(chunk.blob)
                for got_t, got_v in (a, b):
                    assert np.array_equal(_bits(got_t), _bits(want_t))
                    assert np.array_equal(_bits(got_v), _bits(want_v))
                    assert not got_t.flags.writeable
                    assert not got_v.flags.writeable
                if chunk.times is not None:
                    assert a[0] is b[0] is chunk.times
                    assert cache._entries[chunk.cid][2] == 8 * n
                else:
                    assert cache._entries[chunk.cid][2] == 16 * n
            # one read-only column per group, the object its chunks hold
            grouped = [c for g in block.groups for c in g.chunks]
            assert len({id(c.times) for c in grouped}) == len(block.groups)
            for g in block.groups:
                assert not g.times.flags.writeable
                assert all(c.times is g.times for c in g.chunks)
        assert cache.resident_bytes <= cache.max_bytes

    @given(fleet=fleets(), shards=st.sampled_from([0, 4]))
    @settings(max_examples=40, deadline=None)
    def test_writing_into_a_raw_answer_leaves_the_next_read(self, fleet,
                                                            shards):
        n, t, v = fleet
        store = _store(n, shards)
        comps = _fill(store, t, v)
        t1 = float(t.max()) + 1.0
        for read in (lambda: store.query_components("m", None, 0.0, t1),
                     lambda: {c: store.query("m", c, 0.0, t1)
                              for c in comps}):
            first = read()
            want = {c: (r.times.copy(), r.values.copy())
                    for c, r in first.items()}
            for r in first.values():
                r.times[:] = -1.0
                r.values[:] = 7.0
            for c, r in read().items():
                assert np.array_equal(_bits(r.times), _bits(want[c][0]))
                assert np.array_equal(_bits(r.values), _bits(want[c][1]))
                assert len(r.values) == len(t)

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_a_values_only_batch_is_the_full_decode_s_values(self, data):
        items = [_chunk_spec(data.draw)
                 for _ in range(data.draw(st.integers(0, 12)))]
        full = decompress_chunks(items)
        vals = decompress_chunks(items, times=False)
        assert len(vals) == len(full)
        for (_, want), got in zip(full, vals):
            assert np.array_equal(_bits(got), _bits(want))
            assert got.base is None or got.base.nbytes == got.nbytes
