"""Property-based tests: serving-plane answers == the raw-store oracle.

The query front end may answer from rollup-pyramid rows, from its
result cache, or from the store's own (summary-pruned) path — the
invariant is that every route produces *exactly* the answer the store's
forced-decompress raw path would.  Values are drawn integer-valued (so
float summation is associativity-independent and ``sum``/``mean`` are
held bit-exact, not approximately) mixed with NaN/±inf specials (whose
propagation is order-independent by IEEE semantics); times sit on a
millisecond grid.  Windows are deliberately non-step-aligned and the
store keeps an unsealed in-memory tail, so edge buckets exercise the
raw/pyramid stitching.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.metric import SeriesBatch
from repro.serve.frontend import QueryFrontend
from repro.storage.rollup import DEFAULT_LEVELS, ieee_sums, reduce_partials
from repro.storage.sharded import ShardedTimeSeriesStore
from repro.storage.tsdb import TimeSeriesStore

AGGS = ("mean", "sum", "min", "max", "last", "count")

#: integer-valued floats sum exactly in any association order; the
#: specials propagate to NaN/±inf independent of order too
exact_values = st.one_of(
    st.integers(min_value=-(1 << 30), max_value=1 << 30).map(float),
    st.sampled_from([float("nan"), float("inf"), float("-inf"),
                     0.0, -0.0]),
)

#: millisecond-grid times in a few-hour range (duplicates allowed —
#: the stable time sort + sequence tiebreak must agree across paths)
times_ms = st.lists(
    st.integers(min_value=0, max_value=7_200_000),
    min_size=1, max_size=80,
).map(lambda ms: np.asarray(sorted(ms), dtype=np.float64) / 1000.0)

#: steps both planner-eligible (multiples of a rollup level with an
#: aligned anchor) and not (7 s, 77 s force the raw fallback)
steps = st.sampled_from([10.0, 30.0, 60.0, 120.0, 600.0, 3600.0,
                         7.0, 77.0])

windows = st.tuples(
    st.floats(min_value=-100.0, max_value=7200.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=7300.0, allow_nan=False),
).map(lambda w: (min(w), max(w) + 1.0))


def _ingest(store, batches):
    for metric, comp, t, v in batches:
        store.append(SeriesBatch.for_component(metric, comp, t, v))


def _values(data, n):
    return np.asarray(
        data.draw(st.lists(exact_values, min_size=n, max_size=n)),
        dtype=np.float64,
    )


def assert_batches_equal(got, want, ctx):
    assert np.array_equal(got.times, want.times), ctx
    assert np.array_equal(got.values, want.values, equal_nan=True), ctx


class TestServingEqualsRaw:
    @given(times=times_ms, step=steps, window=windows,
           agg=st.sampled_from(AGGS), data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_downsample_matches_forced_decompress(self, times, step,
                                                  window, agg, data):
        # small chunks => sealed pyramid pieces plus an unsealed tail
        store = TimeSeriesStore(chunk_size=16,
                                pyramid_levels=DEFAULT_LEVELS)
        half = len(times) // 2
        _ingest(store, [
            ("m.x", "c0", times[:half], _values(data, half)),
            ("m.x", "c0", times[half:], _values(data, len(times) - half)),
        ])
        fe = QueryFrontend(store)
        t0, t1 = window
        got = fe.downsample("m.x", "c0", t0, t1, step, agg)
        want = store.downsample("m.x", "c0", t0, t1, step, agg,
                                prune=False)
        assert_batches_equal(got, want, (step, agg, window))
        # a second ask must come from the result cache, unchanged
        again = fe.downsample("m.x", "c0", t0, t1, step, agg)
        assert again is got
        assert fe.stats().cache.hits >= 1

    @given(times=times_ms, step=steps, window=windows,
           agg=st.sampled_from(AGGS),
           unbounded=st.booleans(), data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_aggregate_across_matches_forced_decompress(
            self, times, step, window, agg, unbounded, data):
        store = TimeSeriesStore(chunk_size=16,
                                pyramid_levels=DEFAULT_LEVELS)
        third = max(1, len(times) // 3)
        _ingest(store, [
            ("m.x", "c0", times[:third], _values(data, third)),
            ("m.x", "c1", times[third:], _values(data,
                                                 len(times) - third)),
            ("m.x", "c2", times, _values(data, len(times))),
        ])
        fe = QueryFrontend(store)
        t0, t1 = (-np.inf, np.inf) if unbounded else window
        got = fe.aggregate_across("m.x", None, t0, t1, step, agg)
        want = store.aggregate_across("m.x", None, t0, t1, step, agg)
        assert_batches_equal(got, want, (step, agg, t0, t1))

    @given(times=times_ms, step=steps, window=windows,
           agg=st.sampled_from(AGGS), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_sharded_store_matches(self, times, step, window, agg, data):
        store = ShardedTimeSeriesStore(shards=3, chunk_size=16,
                                       pyramid_levels=DEFAULT_LEVELS)
        for i in range(4):
            _ingest(store, [("m.x", f"c{i}", times,
                             _values(data, len(times)))])
        fe = QueryFrontend(store)
        t0, t1 = window
        got = fe.aggregate_across("m.x", None, t0, t1, step, agg)
        want = store.aggregate_across("m.x", None, t0, t1, step, agg)
        assert_batches_equal(got, want, (step, agg, window))
        for comp in ("c0", "c2"):
            g = fe.downsample("m.x", comp, t0, t1, step, agg)
            w = store.downsample("m.x", comp, t0, t1, step, agg,
                                 prune=False)
            assert_batches_equal(g, w, (comp, step, agg, window))

    @given(times=times_ms, agg=st.sampled_from(AGGS), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_planner_actually_answers_from_pyramids(self, times, agg,
                                                    data):
        """Eligible grids must take the pyramid route, not silently
        fall back (the perf claim depends on it)."""
        store = TimeSeriesStore(chunk_size=16,
                                pyramid_levels=DEFAULT_LEVELS)
        _ingest(store, [("m.x", "c0", times,
                         _values(data, len(times)))])
        fe = QueryFrontend(store)
        span = float(times[-1] - times[0])
        got = fe.downsample("m.x", "c0", 0.0, times[-1] + 1.0, 60.0, agg)
        want = store.downsample("m.x", "c0", 0.0, times[-1] + 1.0, 60.0,
                                agg, prune=False)
        assert_batches_equal(got, want, agg)
        if span >= 60.0:
            # at least one full bucket => planner eligibility
            assert fe.stats().pyramid_answers == 1


#: what a selection may name: live series, a dropped one, an unknown
#: one, and ints that str-normalize to series names
_UNIVERSE = ("a", "b", "c", "d", "1", "2")
_SELECTABLE = _UNIVERSE + ("zz", 1, 2)


def _selection_store(data):
    """A plain or sharded (K = 1-4) store over ``_UNIVERSE`` with sealed
    chunks and open heads, maybe a dropped series and a failed shard
    (recovered, or still failed)."""
    k = data.draw(st.integers(0, 4), label="shards")
    store = (ShardedTimeSeriesStore(shards=k, chunk_size=4) if k
             else TimeSeriesStore(chunk_size=4))
    n = data.draw(st.integers(1, 14), label="sweeps")
    comps = np.array(_UNIVERSE, dtype=object)
    for i in range(n):
        t = 7.0 * i + data.draw(st.sampled_from([0.0, 0.5]))
        store.append(SeriesBatch.sweep("m", t, comps,
                                       _values(data, len(comps))))
    for c in data.draw(st.lists(st.sampled_from(_UNIVERSE), max_size=2)):
        store.drop_series("m", c)
    if k and data.draw(st.booleans(), label="fail a shard"):
        i = data.draw(st.integers(0, k - 1))
        store.fail_shard(i)
        if data.draw(st.booleans(), label="recover it"):
            store.recover_shard(i)
    return store


def _selection(data):
    return data.draw(st.one_of(
        st.none(), st.lists(st.sampled_from(_SELECTABLE), max_size=10)),
        label="selection")


class TestSelectionResolution:
    """A read resolves its selection once, as rows of head blocks; every
    answer must be the one a per-component lookup gives."""

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_resolved_rows_are_the_per_component_views(self, data):
        store = _selection_store(data)
        sel = _selection(data)
        comps, parts = store._resolve("m", sel)
        want_comps = (store.components("m") if sel is None
                      else list(dict.fromkeys(map(str, sel))))
        assert comps == want_comps
        want = [(rank, view[2:]) for rank, c in enumerate(want_comps)
                if (view := store._series_view("m", c)) is not None]
        got = sorted(((rank, (block, row)) for block, rows, ranks in parts
                      for row, rank in zip(rows.tolist(), ranks.tolist())),
                     key=lambda x: x[0])
        assert [r for r, _ in got] == [r for r, _ in want]
        assert all(a[0] is b[0] and a[1] == b[1]
                   for (_, a), (_, b) in zip(got, want))
        if isinstance(store, ShardedTimeSeriesStore):
            # every series found sits on the shard shard_of routes it to
            owner = {id(s._blocks["m"]): i for i, s in enumerate(store.shards)
                     if "m" in s._blocks}
            for block, rows, _ in parts:
                for row in rows.tolist():
                    assert store.shard_of(
                        "m", block.key(row).component) == owner[id(block)]

    @given(data=st.data(), agg=st.sampled_from(AGGS), step=steps,
           unbounded=st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_bucketed_read_is_the_raw_aggregate(self, data, agg, step,
                                                unbounded):
        store = _selection_store(data)
        sel = _selection(data)
        t0, t1 = ((-np.inf, np.inf) if unbounded
                  else data.draw(windows.map(lambda w: (w[0] / 50, w[1] / 50))))
        got, _ = store._bucketed_read("m", sel, t0, t1, step, agg, "x")
        want = store.aggregate_across("m", sel, t0, t1, step, agg)
        # integer-valued draws: sum and mean are bit-exact here too
        assert_batches_equal(got, want, (sel, t0, t1, step, agg))


#: one partial-column piece whose buckets strictly increase
def _one_piece(data):
    b = np.asarray(sorted(data.draw(st.sets(
        st.integers(-50, 50), min_size=1, max_size=12))), dtype=np.int64)
    n = len(b)
    specials = st.one_of(exact_values, st.floats(allow_nan=True))
    col = (lambda: np.asarray(data.draw(st.lists(
        specials, min_size=n, max_size=n)), dtype=np.float64))
    cnt = np.asarray(data.draw(st.lists(st.integers(1, 9), min_size=n,
                                        max_size=n)), dtype=np.int64)
    seq = np.asarray(data.draw(st.lists(st.integers(0, 99), min_size=n,
                                        max_size=n)), dtype=np.int64)
    return (b, cnt, col(), col(), col(), col(), col(), seq)


class TestOnePieceFastPath:
    @given(data=st.data(), agg=st.sampled_from(AGGS),
           comp=st.one_of(st.none(), st.integers(0, 5)))
    @settings(max_examples=150, deadline=None)
    def test_one_piece_is_reduced_like_the_general_merge(self, data, agg,
                                                        comp):
        piece = _one_piece(data)
        anchor, step = 30.0, 7.5
        got = reduce_partials([piece], anchor, step, agg,
                              None if comp is None else [comp])
        b, cnt, vsum, vmin, vmax, _, v_last, _ = piece
        with ieee_sums():
            direct = {"sum": vsum, "mean": vsum / cnt, "min": vmin,
                      "max": vmax, "last": v_last,
                      "count": cnt.astype(np.float64)}[agg]
        assert np.array_equal(got[0], anchor + b * step)
        assert np.array_equal(got[1], direct, equal_nan=True)
        if len(b) > 1:      # the same rows as two pieces take the merge
            k = data.draw(st.integers(1, len(b) - 1))
            halves = [tuple(c[:k] for c in piece), tuple(c[k:] for c in piece)]
            merged = reduce_partials(halves, anchor, step, agg,
                                     None if comp is None else [comp, comp])
            for g, w in zip(got, merged):
                assert np.array_equal(g, w, equal_nan=True)
                assert g.tobytes() == w.tobytes()
