"""Property-based tests: a seal group's piece reduces exactly like its rows.

Rows sealed together keep their fold as one group piece — bucket, count
and ``t_last`` columns shared, value columns one ``(K, B)`` matrix — and
:func:`repro.storage.rollup.reduce_partials` orders its columns by
``(bucket, t_last)`` and a tie's rows by rank instead of sorting rows.
The invariant: every answer is bit for bit the one the same partials
give split into one-row pieces, through the row sort, whichever sort
the reduction takes (the column sort is forced, then left to choose
by size) — on any IEEE-754
values (NaN, ±inf, ±0.0, non-integers whose sums depend on their
order), lock-step, ragged, sharded and late-sample stores, planner and
fallback grids, bounded and unbounded windows, and across two sites.
The raw-path oracles live in ``test_serving_properties``.
"""

import itertools
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.metric import SeriesBatch
from repro.serve.federated import FederatedFrontend
from repro.serve.frontend import QueryFrontend
from repro.storage import rollup
from repro.storage.rollup import AGGS, bucket_anchor, reduce_partials
from repro.storage.sharded import ShardedTimeSeriesStore
from repro.storage.tsdb import TimeSeriesStore

#: planner grids over the default levels, then two it must refuse
STEPS = (10.0, 60.0, 600.0, 3600.0, 7.0, 77.0)

#: every reduction of group pieces through the column sort, then as
#: the store chooses (these stores are small: the row sort)
ROW_MAX = (0, rollup._ROW_SORT_MAX)

SPECIAL = [np.nan, np.inf, -np.inf, 0.0, -0.0, 0.1, 1e308, -1e308, 5e-324]
values = st.one_of(st.sampled_from(SPECIAL),
                   st.floats(allow_nan=True, allow_infinity=True))

windows = st.one_of(
    st.just((-np.inf, np.inf)),
    st.tuples(st.floats(-50.0, 2000.0), st.floats(1.0, 2500.0)).map(
        lambda w: (min(w), max(w) + 1.0)),
)


def _split(pieces, comps):
    """The same partials as one-row pieces: a group piece's row ``k``
    ranked by its ``k``-th rank, everything else as it came."""
    rows, ranks = [], []
    for piece, comp in zip(pieces, comps):
        if piece[2].ndim == 2:
            memo: dict = {}
            for k in range(len(piece[2])):
                rows.append(rollup.row_piece(piece, k, memo))
                ranks.append(int(np.broadcast_to(comp, (len(piece[2]),))[k]))
        else:
            rows.append(piece)
            ranks.append(comp)
    return rows, ranks


def _same(got_t, got_v, want_t, want_v) -> bool:
    return (np.array_equal(got_t, want_t)
            and np.array_equal(got_v, want_v, equal_nan=True))


def _fill(store, data, layout: str, n_rows: int) -> None:
    """Sweeps on a 60 s cadence (the 10 s and 60 s levels hold one
    sample a bucket, the hour level folds, and short chunks cut hour
    buckets at every seal).  ``ragged``: each row its own jittered
    time; ``late``: every fifth sweep repeats an earlier timestamp, so
    a seal's rows share buckets — and times — with the seal before."""
    names = [f"n{i}" for i in range(n_rows)]
    n = data.draw(st.integers(4, 40), label="sweeps")
    for i in range(n):
        t = 60.0 * i
        if layout == "late" and i % 5 == 4:
            t = 60.0 * (i - data.draw(st.integers(1, 4), label="back"))
        times = np.full(n_rows, t)
        if layout == "ragged":
            times = times + np.asarray(data.draw(st.lists(
                st.integers(0, 59_000), min_size=n_rows, max_size=n_rows),
                label="jitter")) / 1000.0
        v = np.asarray(data.draw(st.lists(values, min_size=n_rows,
                                          max_size=n_rows)), dtype=float)
        store.append(SeriesBatch("m", np.array(names, dtype=object),
                                 times, v))


class TestGroupPieceReducesLikeItsRows:
    @given(layout=st.sampled_from(["lockstep", "ragged", "late"]),
           shards=st.sampled_from([1, 3]),
           chunk=st.integers(2, 8), window=windows, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_a_store_answers_like_its_rows_split(self, layout, shards, chunk,
                                                 window, data):
        store = (ShardedTimeSeriesStore(shards=shards, chunk_size=chunk)
                 if shards > 1 else TimeSeriesStore(chunk_size=chunk))
        n_rows = 5
        _fill(store, data, layout, n_rows)
        comps = data.draw(st.one_of(st.none(), st.lists(
            st.sampled_from([f"n{i}" for i in range(n_rows)]),
            min_size=1, max_size=n_rows)), label="selection")
        t0, t1 = window
        for step in STEPS:
            lo = store.first_time("m", comps) if t0 == -np.inf else t0
            anchor = bucket_anchor(lo, step)
            pieces, pc, _ = store.bucket_partials("m", comps, t0, t1, step,
                                                  anchor)
            rows, ranks = _split(pieces, pc)
            for agg, row_max in itertools.product(AGGS, ROW_MAX):
                with mock.patch.object(rollup, "_ROW_SORT_MAX", row_max):
                    got, _ = store._bucketed_read("m", comps, t0, t1, step,
                                                  agg, "x")
                want = reduce_partials(rows, anchor, step, agg,
                                       piece_comp=ranks)
                assert _same(got.times, got.values, *want), (step, agg)

    @given(chunk=st.integers(2, 8), late=st.booleans(), window=windows,
           data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_two_sites_answer_like_their_rows_split(self, chunk, late,
                                                    window, data):
        frontends = {}
        for site in ("alfa", "bravo"):
            store = TimeSeriesStore(chunk_size=chunk)
            _fill(store, data, "late" if late else "lockstep", 3)
            frontends[site] = QueryFrontend(store)
        fed = FederatedFrontend(frontends)
        t0, t1 = window
        if t0 == -np.inf:
            t0 = min(fe.first_time("m", None) for fe in frontends.values())
        for step in STEPS:
            rows, ranks = [], []
            for i, fe in enumerate(frontends.values()):
                pieces, pc, _ = fe.partials("m", None, t0, t1, step)
                r, k = _split(pieces, [(i << 32) + np.asarray(c) for c in pc])
                rows += r
                ranks += k
            for agg, row_max in itertools.product(AGGS, ROW_MAX):
                with mock.patch.object(rollup, "_ROW_SORT_MAX", row_max):
                    got = fed.aggregate_across("m", None, t0, t1, step, agg)
                want = reduce_partials(rows, bucket_anchor(t0, step), step,
                                       agg, piece_comp=ranks)
                assert _same(got.times, got.values, *want), (step, agg)
