"""Property-based tests: storage-layer invariants."""

import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.events import Event, EventKind, Severity
from repro.core.metric import SeriesBatch
from repro.storage import rollup, tsdb
from repro.storage.diskier import (DiskTier, _decode_wal_batch,
                                   _encode_wal_batch)
from repro.storage.logstore import LogStore, tokenize
from repro.storage.sharded import ShardedTimeSeriesStore
from repro.storage.tsdb import (
    SealedChunk,
    TimeSeriesStore,
    _compress_chunk_slow,
    _decompress_chunk_slow,
    _xor_token_lens,
    compress_chunk,
    compress_chunks,
    decompress_chunk,
    decompress_chunks,
)

# -- chunk codec -------------------------------------------------------------

# times at millisecond resolution, strictly representable
times_strategy = st.lists(
    st.integers(min_value=0, max_value=10**10),   # milliseconds
    min_size=0,
    max_size=200,
).map(lambda ms: np.asarray(sorted(set(ms)), dtype=np.float64) / 1000.0)

finite_floats = st.floats(
    allow_nan=False, allow_infinity=False, width=64,
    min_value=-1e30, max_value=1e30,
)


class TestChunkCodecProperties:
    @given(times=times_strategy, data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_round_trip_lossless(self, times, data):
        values = np.asarray(
            data.draw(
                st.lists(finite_floats, min_size=len(times),
                         max_size=len(times))
            ),
            dtype=np.float64,
        )
        t, v = decompress_chunk(compress_chunk(times, values))
        assert len(t) == len(times)
        assert np.array_equal(v, values)        # values bit-exact
        assert np.allclose(t, times, atol=5e-4)  # times to ms resolution

    @given(times=times_strategy)
    @settings(max_examples=100, deadline=None)
    def test_compressed_never_catastrophically_larger(self, times):
        values = np.arange(len(times), dtype=np.float64)
        blob = compress_chunk(times, values)
        # worst case per sample: varint ts (<=10 B) + header+8 B value
        assert len(blob) <= 20 + len(times) * 19


# adversarial values for the vectorized-vs-scalar equivalence: specials
# (NaN, ±inf, −0.0, denormals) and identical-value runs, in any mix
special_floats = st.sampled_from(
    [0.0, -0.0, float("nan"), float("inf"), float("-inf"),
     5e-324, 2.2250738585072014e-308, 1.0, 230.0]
)
adversarial_values = st.lists(
    st.tuples(
        st.one_of(special_floats,
                  st.floats(width=64, allow_nan=True, allow_infinity=True)),
        st.integers(min_value=1, max_value=8),    # run length
    ),
    min_size=0,
    max_size=60,
).map(lambda runs: np.repeat([v for v, _ in runs],
                             [n for _, n in runs]).astype(np.float64))

# irregular, duplicate, and out-of-order timestamps — the seal sorts its
# input, but the codec itself must round-trip any order byte-exactly
unsorted_times_ms = st.lists(
    st.integers(min_value=0, max_value=10**10),
    min_size=0,
    max_size=120,
)


class TestVectorizedCodecEquivalence:
    """The numpy codec against the `_slow` scalar reference oracle."""

    @given(times_ms=unsorted_times_ms, data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_byte_identical_and_bit_exact(self, times_ms, data):
        values = data.draw(adversarial_values)
        n = min(len(times_ms), len(values))
        times = np.asarray(times_ms[:n], dtype=np.float64) / 1000.0
        values = values[:n]
        blob = compress_chunk(times, values)
        assert blob == _compress_chunk_slow(times, values)
        st_, sv = _decompress_chunk_slow(blob)
        for hint in (None, _xor_token_lens(values)):
            vt, vv = decompress_chunk(blob, lens_hint=hint)
            assert np.array_equal(vt, st_)
            # bit-level equality survives NaN payloads and -0.0
            assert np.array_equal(vv.view(np.uint64), sv.view(np.uint64))
            assert np.array_equal(vv.view(np.uint64),
                                  values.view(np.uint64))


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def _chunk_spec(draw):
    """One sealed chunk as the read path hands it to the codec: a blob
    (``bytes``, or the ``memoryview`` a spilled chunk maps to) and the
    hint stored beside it — right, absent, or some other chunk's."""
    n = draw(st.sampled_from([0, 1, 2, 3, 3, 5, 128]))
    if draw(st.booleans()):             # a regular cadence: 1-byte varints
        t = (draw(st.integers(0, 10**9))
             + draw(st.integers(1, 10**5)) * np.arange(n)) / 1000.0
    else:                               # irregular: multi-byte varints
        t = np.asarray(draw(st.lists(st.integers(0, 10**10), min_size=n,
                                     max_size=n)), dtype=np.float64) / 1000.0
    kind = draw(st.sampled_from(["const", "any", "specials", "ints"]))
    if kind == "const":                 # uniform 1-byte tokens
        v = np.full(n, draw(st.floats(width=64)))
    elif kind == "ints":                # mixed short tokens
        v = np.asarray(draw(st.lists(st.integers(0, 300), min_size=n,
                                     max_size=n)), dtype=np.float64)
    else:
        pool = (special_floats if kind == "specials"
                else st.floats(width=64, allow_nan=True,
                               allow_infinity=True))
        v = np.asarray(draw(st.lists(pool, min_size=n, max_size=n)),
                       dtype=np.float64)
    blob = compress_chunk(t, v)
    hint = _xor_token_lens(v)
    wrong = draw(st.sampled_from(["right", "none", "short", "sum",
                                  "permuted"]))
    if wrong == "none":
        hint = None
    elif hint is not None and wrong == "short":
        hint = hint[:-1]
    elif hint is not None and wrong == "sum":
        hint = hint + np.uint8(1)
    elif hint is not None and wrong == "permuted":
        hint = hint[::-1].copy()
    return (memoryview(blob) if draw(st.booleans()) else blob), hint


class TestBatchedCodecEquivalence:
    """``decompress_chunks`` against the scalar reference, chunk by
    chunk and bit for bit, whatever shares the batch."""

    @given(data=st.data(),
           slab=st.sampled_from([1, 6, 300, tsdb._SLAB_SAMPLES]))
    @settings(max_examples=150, deadline=None)
    def test_every_chunk_of_a_mixed_batch_is_the_scalar_decode(self, data,
                                                               slab):
        items = [_chunk_spec(data.draw)
                 for _ in range(data.draw(st.integers(0, 12)))]
        # the same blob twice in one batch (a repeated selection)
        items += data.draw(st.lists(st.sampled_from(items), max_size=4)
                           if items else st.just([]))
        with mock.patch.object(tsdb, "_SLAB_SAMPLES", slab):
            got = decompress_chunks(items)
        assert len(got) == len(items)
        for (blob, _), (t, v) in zip(items, got):
            want_t, want_v = _decompress_chunk_slow(bytes(blob))
            assert t.dtype == v.dtype == np.float64
            assert np.array_equal(_bits(t), _bits(want_t))
            assert np.array_equal(_bits(v), _bits(want_v))
            # an owning array: caching it pins nothing else
            assert t.base is None or t.base.nbytes == t.nbytes
            assert v.base is None or v.base.nbytes == v.nbytes

    def test_a_batch_larger_than_one_slab(self):
        rng = np.random.default_rng(7)
        chunks = []
        for i in range(2 * tsdb._SLAB_SAMPLES // 128 + 3):
            t = 1000.0 * i + 60.0 * np.arange(128)
            v = np.round(rng.normal(200.0, 30.0, 128), i % 3)
            chunks.append((compress_chunk(t, v), _xor_token_lens(v), t, v))
        got = decompress_chunks([(blob, hint) for blob, hint, _, _ in chunks])
        for (_, _, t, v), (gt, gv) in zip(chunks, got):
            assert np.array_equal(gt, t)
            assert np.array_equal(_bits(gv), _bits(v))


def _value_rows(rng, k, n):
    """``k`` rows of ``n`` values cycling through the shapes the XOR
    coder branches on: noise, a constant, small integers (mixed short
    tokens), and a row salted with NaN, ±inf, ±0.0 and subnormals."""
    v = rng.normal(200.0, 30.0, (k, n))
    v[1::4] = 3.5
    v[2::4] = rng.integers(0, 300, v[2::4].shape)
    specials = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -2.5e-310]
    v[3::4] = rng.choice(specials + [1.0], v[3::4].shape)
    return v


class TestBlockCompress:
    """``compress_chunks`` against the scalar encoder, row by row."""

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 127, 128, 512, 1000])
    @pytest.mark.parametrize("k", [1, 2, 3, 17])
    def test_every_row_is_the_scalar_blob_and_its_hint(self, k, n):
        rng = np.random.default_rng(1000 * k + n)
        columns = {
            "regular": 1.5e9 + 60.0 * np.arange(n),
            # a multi-byte first delta, multi-byte delta-of-deltas
            "jittered": 1.5e9 + np.cumsum(rng.integers(1, 10**7, n)) / 1e3,
            "unsorted": rng.permutation(1.5e9 + 0.25 * np.arange(n)),
        }
        wide = _value_rows(rng, k, 2 * n)
        for name, t in columns.items():
            # contiguous, and as a strided view of a wider matrix
            for v in (np.ascontiguousarray(wide[:, :n]), wide[:, ::2]):
                got = compress_chunks(t, v)
                assert len(got) == k
                for row, (blob, hint) in zip(v, got):
                    assert blob == _compress_chunk_slow(t, row), name
                    want = _xor_token_lens(row)
                    assert (hint is None) == (want is None), name
                    assert hint is None or (
                        hint.dtype == want.dtype
                        and hint.tobytes() == want.tobytes())
        assert compress_chunk(t, v[0]) == got[0][0]

    def test_no_samples_and_no_rows(self):
        assert compress_chunks(np.empty(0), np.empty((2, 0))) == [
            (_compress_chunk_slow(np.empty(0), np.empty(0)), None)] * 2
        assert compress_chunks(np.arange(3.0), np.empty((0, 3))) == []


def _seal_rows_reference(self, block, rows):
    """The per-row sequence the block seal replaced, on the scalar codec
    and the one-series fold: the oracle ``_seal_rows`` is held to."""
    for r in rows.tolist():
        s = block.series[r]
        t, v = s.head()
        order = np.argsort(t, kind="stable")
        t, v = t[order], v[order]
        blob = _compress_chunk_slow(t, v)
        t_r = np.round(t * 1000.0).astype(np.int64).astype(np.float64) / 1000.0
        chunk = SealedChunk.of(t_r, v, blob=blob)
        if s.tier is not None:
            s.tier.on_seal(s.key, chunk)
        if s.pyramid is not None:
            s.pyramid.add_sealed(t_r, v, s.n_sealed_samples)
        s.adopt(chunk)
        block.take(r, len(t))
        if s.tier is not None:
            s.tier.enforce_budget()
        self._note_seal(1, len(t), len(blob))


def _sealed_state(store):
    """Everything a seal leaves behind, in comparable form."""
    out = {}
    for key, s in sorted(store._series.items(), key=lambda kv: str(kv[0])):
        out[str(key)] = (
            [(repr(c.summary), None if c.hint is None
              else (str(c.hint.dtype), c.hint.tobytes()), c.ref,
              c.blob) for c in s.chunks],
            s.n_sealed_samples, s.sealed_bytes, s.sealed_t_max,
            [[[(str(col.dtype), col.tobytes()) for col in piece]
              for piece in s.pyramid._pieces[lv]]
             for lv in s.pyramid.levels],
            [(str(col.dtype), col.tobytes())
             for lv in s.pyramid.levels
             for col in s.pyramid.level_columns(lv)],
        )
    return out


class TestBlockSealAgainstPerRowReference:
    @pytest.mark.parametrize("cadence", [1.0, 5.0, 60.0])
    def test_a_storm_seals_like_row_by_row(self, cadence, tmp_path):
        """Lock-step groups (in order and out of order), a late joiner's
        ragged block and a closing flush, on a disk tier whose hot budget
        is smaller than one group: summaries, hints, every pyramid
        column, spill counters, hot set and segment bytes all equal."""
        n_rows, chunk = 9, 16

        def run(root, seal_rows):
            rng = np.random.default_rng(11)
            names = np.array([f"n{i}" for i in range(n_rows)], dtype=object)
            store = TimeSeriesStore(
                chunk_size=chunk, pyramid_levels=(10.0, 60.0, 3600.0),
                disk=DiskTier(root, hot_bytes=700))
            with mock.patch.object(TimeSeriesStore, "_seal_rows", seal_rows), \
                    mock.patch.object(tsdb, "_SLAB_SAMPLES", 4 * chunk):
                for i in range(3 * chunk + 5):
                    t = 3590.0 + cadence * i
                    store.append(SeriesBatch(
                        "m.step", names, np.full(n_rows, t),
                        _value_rows(rng, n_rows, 1)[:, 0]))
                    # every fourth sweep arrives before the one ahead of it
                    store.append(SeriesBatch(
                        "m.late", names,
                        np.full(n_rows, t - 2.5 * cadence * (i % 4 == 3)),
                        rng.normal(size=n_rows)))
                    late = names if i > 6 else names[::2]
                    store.append(SeriesBatch(
                        "m.ragged", late, np.full(len(late), t),
                        rng.normal(size=len(late))))
                state = _sealed_state(store)
                store.flush()
            flushed = _sealed_state(store), store.disk_stats(), store.stats()
            answers = [store.downsample("m.late", "n3", 0.0, 1e6, step, agg)
                       for step in (10.0, 60.0) for agg in ("mean", "last")]
            store.close()
            segs = [p.read_bytes() for p in sorted(Path(root).glob("seg-*"))]
            return state, flushed, segs, [
                (b.times.tobytes(), b.values.tobytes()) for b in answers]

        got = run(tmp_path / "block", TimeSeriesStore._seal_rows)
        want = run(tmp_path / "rows", _seal_rows_reference)
        assert got[0] == want[0]
        assert got[1] == want[1]
        assert got[2] == want[2] and len(got[2][0]) > 0
        assert got[3] == want[3]
        # the budget really was smaller than a group: it spilled, and held
        assert got[1][1].spills > 0 and got[1][1].hot_bytes <= 700


class TestMergePieces:
    """The in-order concatenation against the sorted merge."""

    @staticmethod
    def _sorted_merge(pieces):
        b, cnt, vsum, vmin, vmax, t_last, v_last, seq = (
            np.concatenate([p[i] for p in pieces]) for i in range(8))
        order = np.lexsort((seq, t_last, b))
        b, cnt, vsum, vmin, vmax, t_last, v_last, seq = (
            c[order] for c in (b, cnt, vsum, vmin, vmax, t_last, v_last, seq))
        starts = np.concatenate(([0], np.flatnonzero(b[1:] != b[:-1]) + 1))
        last = np.append(starts[1:], len(b)) - 1
        with rollup.ieee_sums():
            vsum = np.add.reduceat(vsum, starts)
        return (b[starts], np.add.reduceat(cnt, starts), vsum,
                np.minimum.reduceat(vmin, starts),
                np.maximum.reduceat(vmax, starts),
                t_last[last], v_last[last], seq[last])

    @given(cuts=st.lists(st.integers(1, 59), min_size=1, max_size=5,
                         unique=True),
           cadence=st.sampled_from([1.0, 7.0, 60.0]),
           shuffle=st.booleans(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_equals_the_sorted_path(self, cuts, cadence, shuffle, data):
        """Chunks cut from one series: disjoint buckets at a cadence no
        finer than the level, a shared boundary bucket at a finer one,
        interleaved when the chunks arrive out of time order."""
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        t = 1000.0 + cadence * np.arange(60)
        v = _value_rows(rng, 4, 60)[data.draw(st.integers(0, 3))]
        bounds = [0, *sorted(cuts), 60]
        spans = list(zip(bounds, bounds[1:]))
        if shuffle:
            rng.shuffle(spans)
        for level in (10.0, 60.0):
            pieces, seq = [], 0
            for lo, hi in spans:
                pieces.append(rollup.fold_partials(t[lo:hi], v[lo:hi], 0.0,
                                                   level, seq_base=seq))
                seq += hi - lo
            got = rollup._merge_pieces(pieces)
            want = pieces[0] if len(pieces) == 1 else self._sorted_merge(pieces)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


# -- store query semantics ------------------------------------------------------

samples_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=10**7),       # time ms
        st.floats(allow_nan=False, allow_infinity=False,
                  min_value=-1e12, max_value=1e12),
    ),
    min_size=1,
    max_size=300,
)


class TestStoreProperties:
    @given(samples=samples_strategy,
           chunk_size=st.integers(min_value=2, max_value=64))
    @settings(max_examples=100, deadline=None)
    def test_store_returns_everything_time_sorted(self, samples,
                                                  chunk_size):
        store = TimeSeriesStore(chunk_size=chunk_size)
        for t_ms, v in samples:
            store.append(SeriesBatch.sweep("m", t_ms / 1000.0, ["c"], [v]))
        out = store.query("m", "c")
        assert len(out) == len(samples)
        assert (np.diff(out.times) >= 0).all()
        # multiset of values preserved
        assert sorted(out.values) == sorted(v for _, v in samples)

    @given(samples=samples_strategy, data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_window_query_equals_filtered_full_query(self, samples, data):
        store = TimeSeriesStore(chunk_size=8)
        for t_ms, v in samples:
            store.append(SeriesBatch.sweep("m", t_ms / 1000.0, ["c"], [v]))
        t0 = data.draw(st.integers(0, 10**7)) / 1000.0
        t1 = data.draw(st.integers(0, 10**7)) / 1000.0
        windowed = store.query("m", "c", t0, t1)
        full = store.query("m", "c")
        mask = (full.times >= t0) & (full.times < t1)
        assert len(windowed) == mask.sum()
        assert sorted(windowed.values) == sorted(full.values[mask])

    @given(samples=samples_strategy)
    @settings(max_examples=50, deadline=None)
    def test_downsample_conserves_sum(self, samples):
        store = TimeSeriesStore(chunk_size=16)
        for t_ms, v in samples:
            store.append(SeriesBatch.sweep("m", t_ms / 1000.0, ["c"], [v]))
        out = store.downsample("m", "c", 0.0, 10**4 + 1.0, step=100.0,
                               agg="sum")
        total_in = sum(v for _, v in samples)
        assert np.isclose(out.values.sum(), total_in, rtol=1e-9, atol=1e-6)

    @given(samples=samples_strategy, data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_pruned_downsample_equals_cold_path(self, samples, data):
        """Summary-served buckets are indistinguishable from decompression."""
        store = TimeSeriesStore(chunk_size=data.draw(
            st.integers(min_value=2, max_value=32)))
        for t_ms, v in samples:
            store.append(SeriesBatch.sweep("m", t_ms / 1000.0, ["c"], [v]))
        if data.draw(st.booleans()):
            store.flush()
        step = data.draw(st.integers(1, 2000))
        agg = data.draw(st.sampled_from(
            ["mean", "sum", "min", "max", "last", "count"]))
        warm = store.downsample("m", "c", 0.0, 10**4 + 1.0, float(step),
                                agg=agg)
        cold = store.downsample("m", "c", 0.0, 10**4 + 1.0, float(step),
                                agg=agg, prune=False)
        assert np.array_equal(warm.times, cold.times)
        if agg in ("min", "max", "last", "count"):
            assert np.array_equal(warm.values, cold.values)
        else:   # sums reassociate across chunk summaries: ulp-level drift
            assert np.allclose(warm.values, cold.values,
                               rtol=1e-9, atol=1e-9)


# -- the head block against a trivial reference ----------------------------------

#: integer-valued floats + specials: every summation order gives the
#: same bits, so all six aggs compare exactly on every route
exact_values = st.one_of(
    st.integers(min_value=-(1 << 30), max_value=1 << 30).map(float),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), 0.0, -0.0]),
)
grid_times = st.integers(min_value=0, max_value=200_000).map(
    lambda ms: ms / 1000.0)      # the codec's millisecond grid
AGGS = ("mean", "sum", "min", "max", "last", "count")


class _Reference:
    """What the store must answer like: per-series arrival-ordered
    lists, one dict per flush epoch."""

    def __init__(self):
        self.epochs = [{}]

    def add(self, metric, comps, times, values):
        for c, t, v in zip(comps, times, values):
            self.epochs[-1].setdefault((metric, c), []).append((t, v))

    def drop(self, metric, comp):
        for epoch in self.epochs:
            epoch.pop((metric, comp), None)

    def components(self, metric):
        return sorted({c for e in self.epochs for m, c in e if m == metric})

    def series(self, metric, comps):
        """Samples of ``comps`` in the store's read order: each series
        stably time-sorted, then the concatenation stably time-sorted."""
        out = []
        for c in comps:
            out += sorted((s for e in self.epochs
                           for s in e.get((metric, c), ())),
                          key=lambda s: s[0])
        return sorted(out, key=lambda s: s[0])

    def bucketed(self, metric, comps, t0, t1, step, agg):
        rows = [s for s in self.series(metric, comps) if t0 <= s[0] < t1]
        if not rows:
            return [], []
        lo = t0 if math.isfinite(t0) else rows[0][0]
        anchor = math.floor(lo / step) * step
        buckets = {}
        for t, v in rows:
            buckets.setdefault(math.floor((t - anchor) / step), []).append(v)
        nan = float("nan")
        fold = {
            "sum": sum,
            "mean": lambda vs: sum(vs) / len(vs),
            "min": lambda vs: nan if any(v != v for v in vs) else min(vs),
            "max": lambda vs: nan if any(v != v for v in vs) else max(vs),
            "last": lambda vs: vs[-1],
            "count": lambda vs: float(len(vs)),
        }[agg]
        return ([anchor + b * step for b in buckets],
                [fold(vs) for vs in buckets.values()])


def _same(batch, times, values):
    return (np.array_equal(batch.times, np.asarray(times, dtype=float))
            and np.array_equal(batch.values, np.asarray(values, dtype=float),
                               equal_nan=True))


class TestHeadBlockAgainstReference:
    @given(chunk_size=st.integers(min_value=2, max_value=8),
           pyramid=st.booleans(), sharded=st.booleans(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_any_interleaving_answers_like_per_series_lists(
            self, chunk_size, pyramid, sharded, data):
        levels = (10.0, 60.0) if pyramid else None
        store = (ShardedTimeSeriesStore(shards=2, chunk_size=chunk_size,
                                        pyramid_levels=levels) if sharded
                 else TimeSeriesStore(chunk_size=chunk_size,
                                      pyramid_levels=levels))
        ref = _Reference()
        members = ["a", "b", "c"]
        spare = ["d", "e", "f"]
        draw = data.draw

        def append(metric, comps, times):
            values = draw(st.lists(exact_values, min_size=len(comps),
                                   max_size=len(comps)))
            store.append(SeriesBatch(metric, comps, times, values))
            ref.add(metric, comps, times, values)

        for _ in range(draw(st.integers(min_value=1, max_value=14))):
            metric = draw(st.sampled_from(["m", "k"]))
            op = draw(st.sampled_from(
                ["full", "full", "split", "subset", "join", "drop",
                 "repeat", "ragged", "flush"]))
            t = draw(grid_times)
            if op == "full":
                append(metric, members, [t] * len(members))
            elif op == "split":         # one timestamp, disjoint subsets
                cut = draw(st.integers(1, len(members) - 1))
                append(metric, members[:cut], [t] * cut)
                if draw(st.booleans()):     # ...or never completed
                    append(metric, members[cut:],
                           [t] * (len(members) - cut))
            elif op == "subset":
                comps = draw(st.lists(st.sampled_from(members), min_size=1,
                                      unique=True))
                append(metric, comps, [t] * len(comps))
            elif op == "join" and spare:
                members.append(spare.pop())
            elif op == "drop":          # re-appended by a later sweep
                comp = draw(st.sampled_from(members))
                assert (store.drop_series(metric, comp)
                        == (comp in ref.components(metric)))
                ref.drop(metric, comp)
            elif op == "repeat":
                comps = draw(st.lists(st.sampled_from(members), min_size=2,
                                      max_size=12))
                append(metric, comps,
                       draw(st.lists(grid_times, min_size=len(comps),
                                     max_size=len(comps))))
            elif op == "ragged":        # non-uniform, out-of-order times
                append(metric, members,
                       draw(st.lists(grid_times, min_size=len(members),
                                     max_size=len(members))))
            elif op == "flush":
                store.flush()
                ref.epochs.append({})
            self.check(store, ref, draw)
        self.check_blobs(store, ref, chunk_size, levels)

    @staticmethod
    def check(store, ref, draw):
        t0 = draw(st.sampled_from([-math.inf, 0.0, 33.3, 120.0]))
        step = draw(st.sampled_from([1.0, 7.0, 10.0, 60.0, 1000.0]))
        # a selection as the serving plane hands it over: any order,
        # repeats counted once, naming series that were dropped, that
        # lag a split sweep or that never existed
        pick = list(dict.fromkeys(draw(st.lists(
            st.sampled_from("abcdefz"), max_size=9))))
        n = 0
        for metric in ("m", "k"):
            for agg in AGGS:    # the block fold against the raw concat
                want = store.aggregate_across(metric, pick, t0, 150.0, step,
                                              agg)
                assert _same(store._bucketed_read(
                    metric, pick, t0, 150.0, step, agg, "x")[0],
                    want.times, want.values), (pick, agg)
                assert _same(want, *ref.bucketed(metric, pick, t0, 150.0,
                                                 step, agg)), (pick, agg)
            comps = ref.components(metric)
            assert store.components(metric) == comps
            for c in comps:
                rows = ref.series(metric, [c])
                n += len(rows)
                assert _same(store.query(metric, c), *zip(*rows))
                for agg in AGGS:
                    want = ref.bucketed(metric, [c], t0, 150.0, step, agg)
                    for prune in (True, False):
                        assert _same(store.downsample(
                            metric, c, t0, 150.0, step, agg, prune=prune),
                            *want), (agg, prune)
            for agg in AGGS:
                assert _same(
                    store.aggregate_across(metric, None, t0, 150.0, step,
                                           agg),
                    *ref.bucketed(metric, comps, t0, 150.0, step, agg)), agg
        assert store.stats().samples == n

    @staticmethod
    def check_blobs(store, ref, chunk_size, levels):
        """Every sealed blob is what a store fed the same series one
        ``for_component`` batch at a time would have sealed."""
        plain = TimeSeriesStore(chunk_size=chunk_size, pyramid_levels=levels)
        for epoch in ref.epochs:
            for (metric, c), rows in epoch.items():
                times, values = zip(*rows)
                plain.append(SeriesBatch.for_component(metric, c, times,
                                                       values))
            if epoch is not ref.epochs[-1]:
                plain.flush()
        assert store.keys() == plain.keys()
        for k in store.keys():
            got, want = (s._series_view(k.metric, k.component)[0]
                         for s in (store, plain))
            assert ([c.blob for c in got.chunks]
                    == [c.blob for c in want.chunks])
            assert np.array_equal(got.head()[0], want.head()[0])


# -- the raw block read against a reference that shares none of its code ---------

def _raw_reference(store, metric, comp, t0, t1):
    """What ``query`` must answer for one series, with no read code of
    the store's: every sealed blob through the scalar decoder, then the
    head, cut to the window and stably time-sorted.  A series reads
    cannot reach (missing, or on a failed shard) is empty."""
    view = store._series_view(metric, comp)
    if view is None:
        return np.empty(0), np.empty(0)
    series = view[0]
    parts = [_decompress_chunk_slow(bytes(series.chunk_blob(c)))
             for c in series.chunks] + [series.head()]
    t = np.concatenate([p[0] for p in parts])
    v = np.concatenate([p[1] for p in parts])
    keep = (t >= t0) & (t < t1)
    order = np.argsort(t[keep], kind="stable")
    return t[keep][order], v[keep][order]


class TestRawBlockRead:
    @given(kind=st.sampled_from(["plain", "sharded", "spilled"]),
           chunk_size=st.integers(min_value=3, max_value=8), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_query_components_is_the_per_series_reference(self, kind,
                                                          chunk_size, data):
        draw = data.draw
        members = list("abcdef")
        with tempfile.TemporaryDirectory() as d:
            if kind == "sharded":
                store = ShardedTimeSeriesStore(shards=4,
                                               chunk_size=chunk_size)
            else:       # spilled: every sealed blob is read back mapped
                store = TimeSeriesStore(
                    chunk_size=chunk_size,
                    disk=DiskTier(d, hot_bytes=0) if kind == "spilled"
                    else None)
            # a fixed cadence, so most chunks take the codec's regular
            # shape and decode as a batch; the rest decode one by one
            now, cadence = 0.0, draw(st.sampled_from([0.25, 1.0, 10.0]))
            try:
                for _ in range(draw(st.integers(min_value=1, max_value=40))):
                    op = draw(st.sampled_from(
                        ["sweep"] * 6 + ["subset", "ragged", "flush",
                                         "drop"]))
                    if op == "flush":
                        store.flush()
                        continue
                    if op == "drop":    # the next sweep starts it again
                        store.drop_series("m", draw(st.sampled_from(members)))
                        continue
                    comps = members if op != "subset" else draw(st.lists(
                        st.sampled_from(members), min_size=1, unique=True))
                    now += cadence
                    times = ([now] * len(comps) if op != "ragged" else draw(
                        st.lists(grid_times, min_size=len(comps),
                                 max_size=len(comps))))
                    store.append(SeriesBatch("m", comps, times, draw(
                        st.lists(exact_values, min_size=len(comps),
                                 max_size=len(comps)))))
                    if draw(st.booleans()):          # reads interleave
                        self.check(store, draw, now, rounds=1)
                if kind == "sharded" and draw(st.booleans()):
                    store.fail_shard(draw(st.integers(0, 3)))
                self.check(store, draw, now)
            finally:
                store.close()

    @staticmethod
    def check(store, draw, now, rounds=4):
        # mostly inside the data, so windows cut chunks and heads mid-way
        bound = st.one_of(
            st.integers(0, int(1000 * now) + 1000).map(lambda ms: ms / 1e3),
            st.sampled_from([-math.inf, math.inf, float("nan")]))
        for _ in range(rounds):
            t0, t1 = draw(bound), draw(bound)   # any order: t0 >= t1 too
            # any order, repeats, a component that never existed — or
            # the whole metric
            pick = draw(st.one_of(st.none(), st.lists(
                st.sampled_from("abcdefz"), max_size=9)))
            got = store.query_components("m", pick, t0, t1)
            want = (store.components("m") if pick is None
                    else list(dict.fromkeys(pick)))
            assert list(got) == want
            for c, batch in got.items():
                t, v = _raw_reference(store, "m", c, t0, t1)
                assert np.array_equal(_bits(batch.times), _bits(t)), c
                assert np.array_equal(_bits(batch.values), _bits(v)), c
                assert batch.components.tolist() == [c] * len(t)
                one = store.query("m", c, t0, t1)
                assert np.array_equal(_bits(one.times), _bits(t))
                assert np.array_equal(_bits(one.values), _bits(v))


class TestWalFrame:
    @given(comps=st.lists(st.sampled_from(["a", "bb", "c-0c1s4n2", ""]),
                          max_size=12),
           one_comp=st.booleans(), one_time=st.booleans(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_round_trip_is_bit_exact_under_every_flag_combination(
            self, comps, one_comp, one_time, data):
        if one_comp:
            comps = comps[:1] * len(comps)
        n = len(comps)
        floats = st.floats(width=64, allow_nan=True, allow_infinity=True)
        times = data.draw(st.lists(floats, min_size=n, max_size=n))
        if one_time:
            times = times[:1] * n
        values = data.draw(st.lists(floats, min_size=n, max_size=n))
        t = np.asarray(times, dtype=np.float64)
        v = np.asarray(values, dtype=np.float64)
        payload = _encode_wal_batch("node.power_w", comps, t, v)
        same_comp = n > 0 and len(set(comps)) == 1
        same_time = n > 0 and len({x.tobytes() for x in t}) == 1
        assert payload[0] == same_comp + 2 * same_time
        assert len(payload) == (
            7 + len("node.power_w")
            + (2 + len(comps[0].encode()) if same_comp
               else 4 * n + sum(len(c.encode()) for c in comps))
            + 8 * (1 if same_time else n) + 8 * n)
        metric, got_c, got_t, got_v = _decode_wal_batch(payload)
        assert (metric, got_c) == ("node.power_w", comps)
        assert np.array_equal(got_t.view(np.uint64), t.view(np.uint64))
        assert np.array_equal(got_v.view(np.uint64), v.view(np.uint64))

    def test_frames_written_before_the_time_flag_still_decode(self):
        # modes 0 and 1 are the old layout: per-element times
        t, v = np.array([1.0, 2.0]), np.array([3.0, 4.0])
        for mode, comp_block, comps in (
                (0, b"\x01\x00\x00\x00\x01\x00\x00\x00ab", ["a", "b"]),
                (1, b"\x01\x00a", ["a", "a"])):
            old = (bytes([mode]) + b"\x01\x00" + b"\x02\x00\x00\x00" + b"m"
                   + comp_block + t.tobytes() + v.tobytes())
            metric, got_c, got_t, got_v = _decode_wal_batch(old)
            assert (metric, got_c) == ("m", comps)
            assert np.array_equal(got_t, t) and np.array_equal(got_v, v)


# -- log store: index agrees with the naive scan oracle --------------------------

words = st.sampled_from(
    "lustre mount failed error recovery slurmd gpu link "
    "node warning started stopped retry timeout".split()
)
messages = st.lists(words, min_size=1, max_size=6).map(" ".join)
events_strategy = st.lists(
    st.tuples(st.integers(0, 10**6), messages),
    min_size=0,
    max_size=100,
)


class TestLogStoreProperties:
    @given(events=events_strategy, data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_index_search_equals_scan(self, events, data):
        store = LogStore()
        for t, msg in events:
            store.append(Event(float(t), "n0", EventKind.CONSOLE,
                               Severity.INFO, msg))
        term = data.draw(words)
        via_index = store.search([term])
        # oracle: regex word-boundary scan
        via_scan = store.scan(rf"\b{term}\b")
        assert via_index == via_scan

    @given(events=events_strategy)
    @settings(max_examples=50, deadline=None)
    def test_occurrence_series_total_matches_search(self, events):
        store = LogStore()
        for t, msg in events:
            store.append(Event(float(t), "n0", EventKind.CONSOLE,
                               Severity.INFO, msg))
        starts, counts = store.occurrence_series(
            ["error"], t0=0.0, t1=10**6 + 1.0, bucket_s=1000.0
        )
        assert counts.sum() == len(store.search(["error"]))

    @given(msg=messages)
    @settings(max_examples=50, deadline=None)
    def test_tokenize_stable(self, msg):
        toks = tokenize(msg)
        assert toks == tokenize(" ".join(toks))
