"""Property-based tests: the disk tier never changes an answer.

Three invariants, each against an oracle that never touches disk:

* **segment round-trip is byte-identical** — a sealed blob written to a
  segment file and read back through the mmap decodes to the exact
  same arrays (values compared on their uint64 bit patterns, so NaN
  payloads and signed zeros count);
* **spilling is invisible** — demoting sealed chunks to disk-only refs
  at arbitrary points, then querying, produces bit-exact answers versus
  a never-spilled store fed the same appends (sharded included).
  Downsample comparisons hold the prune mode fixed on both sides:
  the pruned and raw paths differ by float summation order by design,
  so the oracle must take the same route;
* **a synced crash is invisible** — snapshot + fsync, hard-crash
  (files truncated to the synced extents), recover: every query
  answers exactly as before.
"""

import tempfile
from contextlib import closing
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.metric import SeriesBatch
from repro.storage.diskier import DiskTier
from repro.storage.rollup import DEFAULT_LEVELS
from repro.storage.sharded import ShardedTimeSeriesStore
from repro.storage.tsdb import TimeSeriesStore, compress_chunk, decompress_chunk

#: full-float values including specials — round-trip compares bit
#: patterns, so arbitrary NaN payloads and -0.0 are in scope
any_values = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, width=64),
    st.sampled_from([0.0, -0.0, 1.0, 1.0, 1.0]),   # runs compress away
)

#: integer-valued floats + specials: aggregation-order independent, so
#: downsample oracles hold bit-exactly (same trick as the serving suite)
exact_values = st.one_of(
    st.integers(min_value=-(1 << 30), max_value=1 << 30).map(float),
    st.sampled_from([float("nan"), float("inf"), float("-inf"),
                     0.0, -0.0]),
)

#: millisecond-grid times; sometimes shuffled (out-of-order arrival)
times_ms = st.lists(
    st.integers(min_value=0, max_value=3_600_000),
    min_size=1, max_size=100,
).map(lambda ms: np.asarray(sorted(ms), dtype=np.float64) / 1000.0)


def _values(data, n, pool=exact_values):
    return np.asarray(data.draw(st.lists(pool, min_size=n, max_size=n)),
                      dtype=np.float64)


def bits_equal(a, b):
    return np.array_equal(np.asarray(a, dtype=np.float64).view(np.uint64),
                          np.asarray(b, dtype=np.float64).view(np.uint64))


class TestSegmentRoundTrip:
    @given(times=times_ms, shuffle=st.booleans(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_blob_via_mmap_decodes_byte_identical(self, times, shuffle,
                                                  data):
        values = _values(data, len(times), pool=any_values)
        if shuffle and len(times) > 1:
            perm = data.draw(st.permutations(range(len(times))))
            times, values = times[list(perm)], values[list(perm)]
        blob = compress_chunk(times, values)
        mem_t, mem_v = decompress_chunk(blob)
        with tempfile.TemporaryDirectory() as d:
            tier = DiskTier(Path(d), hot_bytes=0)
            try:
                ref = tier.append_blob("m", "c", blob)
                tier.sync()
                view = tier.load(ref)
                assert bytes(view) == blob      # byte-identical storage
                disk_t, disk_v = decompress_chunk(view)
            finally:
                tier.close()
        assert np.array_equal(mem_t, disk_t)
        assert bits_equal(mem_v, disk_v)


class TestSpillIsInvisible:
    @given(times=times_ms, spill_after=st.integers(0, 3),
           cut=st.floats(min_value=0.0, max_value=3700.0,
                         allow_nan=False),
           step=st.sampled_from([10.0, 60.0, 77.0, 600.0]),
           agg=st.sampled_from(["mean", "sum", "min", "max", "last",
                                "count"]),
           data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_spilled_store_answers_like_memory(self, times, spill_after,
                                               cut, step, agg, data):
        n = len(times)
        chunks = [("m.x", "c0", times, _values(data, n)),
                  ("m.x", "c1", times[: n // 2 + 1],
                   _values(data, n // 2 + 1)),
                  ("m.y", "c0", times[n // 2:],
                   _values(data, n - n // 2)),
                  ("m.x", "c0", times, _values(data, n))]
        oracle = TimeSeriesStore(chunk_size=8,
                                 pyramid_levels=DEFAULT_LEVELS)
        with (tempfile.TemporaryDirectory() as d,
              closing(TimeSeriesStore(
                  chunk_size=8, pyramid_levels=DEFAULT_LEVELS,
                  disk=DiskTier(Path(d), hot_bytes=1 << 9),
              )) as store):
            for i, (m, c, t, v) in enumerate(chunks):
                b = SeriesBatch.for_component(m, c, t, v)
                ob = SeriesBatch.for_component(m, c, t, v)
                store.append(b)
                oracle.append(ob)
                if i == spill_after:
                    # demotion at an arbitrary mid-ingest point
                    store.archive_before(cut)
            for m, c in (("m.x", "c0"), ("m.x", "c1"), ("m.y", "c0")):
                got, want = store.query(m, c), oracle.query(m, c)
                assert np.array_equal(got.times, want.times)
                assert bits_equal(got.values, want.values)
                for prune in (False, True):
                    g = store.downsample(m, c, 0.0, 3700.0, step, agg,
                                         prune=prune)
                    w = oracle.downsample(m, c, 0.0, 3700.0, step, agg,
                                          prune=prune)
                    assert np.array_equal(g.times, w.times), (agg, prune)
                    assert np.array_equal(g.values, w.values,
                                          equal_nan=True), (agg, prune)

    @given(times=times_ms,
           step=st.sampled_from([10.0, 60.0, 77.0]),
           agg=st.sampled_from(["mean", "sum", "min", "max", "count"]),
           data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_sharded_spilled_matches_sharded_memory(self, times, step,
                                                    agg, data):
        with (tempfile.TemporaryDirectory() as d,
              closing(ShardedTimeSeriesStore(
                  shards=3, chunk_size=8, pyramid_levels=DEFAULT_LEVELS,
                  disk_dir=d, hot_bytes=1 << 9,
              )) as spilled):
            oracle = ShardedTimeSeriesStore(
                shards=3, chunk_size=8, pyramid_levels=DEFAULT_LEVELS,
            )
            for i in range(4):
                v = _values(data, len(times))
                for s in (spilled, oracle):
                    s.append(SeriesBatch.for_component(
                        "m.x", f"c{i}", times, v))
            for i in range(4):
                got = spilled.query("m.x", f"c{i}")
                want = oracle.query("m.x", f"c{i}")
                assert np.array_equal(got.times, want.times)
                assert bits_equal(got.values, want.values)
                g = spilled.downsample("m.x", f"c{i}", 0.0, 3700.0,
                                       step, agg, prune=True)
                w = oracle.downsample("m.x", f"c{i}", 0.0, 3700.0,
                                      step, agg, prune=True)
                assert np.array_equal(g.times, w.times)
                assert np.array_equal(g.values, w.values, equal_nan=True)


class TestCrashRecovery:
    @given(times=times_ms,
           step=st.sampled_from([10.0, 60.0, 77.0]),
           agg=st.sampled_from(["mean", "sum", "min", "max", "count"]),
           data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_synced_crash_preserves_every_answer(self, times, step, agg,
                                                 data):
        with (tempfile.TemporaryDirectory() as d,
              closing(TimeSeriesStore(
                  chunk_size=8, pyramid_levels=DEFAULT_LEVELS,
                  disk=DiskTier(Path(d), hot_bytes=1 << 9),
              )) as store):
            half = len(times) // 2
            store.append(SeriesBatch.for_component(
                "m.x", "c0", times[:half], _values(data, half)))
            store.snapshot()
            store.append(SeriesBatch.for_component(
                "m.x", "c0", times[half:],
                _values(data, len(times) - half)))
            store.flush()                       # fsync past the snapshot
            want_q = store.query("m.x", "c0")
            want_ds = {prune: store.downsample("m.x", "c0", 0.0, 3700.0,
                                               step, agg, prune=prune)
                       for prune in (False, True)}
            store.disk.simulate_crash()
            with closing(store.reopen()) as recovered:
                got = recovered.query("m.x", "c0")
                assert np.array_equal(got.times, want_q.times)
                assert bits_equal(got.values, want_q.values)
                for prune in (False, True):
                    g = recovered.downsample("m.x", "c0", 0.0, 3700.0,
                                             step, agg, prune=prune)
                    w = want_ds[prune]
                    assert np.array_equal(g.times, w.times), prune
                    assert np.array_equal(g.values, w.values,
                                          equal_nan=True), prune
