"""Unit tests: rollup-pyramid primitives and their maintenance hooks."""

import warnings

import numpy as np
import pytest

from repro.core.metric import SeriesBatch
from repro.serve.frontend import QueryFrontend
from repro.storage.rollup import (
    AGGS,
    DEFAULT_LEVELS,
    SeriesPyramid,
    bucket_anchor,
    choose_level,
    fold_partials,
    reduce_partials,
)
from repro.storage.tsdb import TimeSeriesStore


class TestBucketAnchor:
    def test_aligned_is_identity(self):
        assert bucket_anchor(120.0, 60.0) == 120.0

    def test_floors_to_grid(self):
        assert bucket_anchor(123.456, 60.0) == 120.0
        assert bucket_anchor(59.999, 60.0) == 0.0

    def test_negative_floors_down(self):
        assert bucket_anchor(-0.5, 60.0) == -60.0
        assert bucket_anchor(-60.0, 60.0) == -60.0


class TestFoldReduce:
    def test_fold_matches_naive_oracle(self):
        rng = np.random.default_rng(3)
        t = np.sort(rng.uniform(0.0, 500.0, 200)).round(3)
        v = rng.normal(size=200)
        b, cnt, vsum, vmin, vmax, t_last, v_last, seq = fold_partials(
            t, v, 0.0, 10.0)
        want_b = np.unique(np.floor(t / 10.0).astype(np.int64))
        assert np.array_equal(b, want_b)
        for i, wb in enumerate(want_b):
            mask = np.floor(t / 10.0).astype(np.int64) == wb
            assert cnt[i] == mask.sum()
            assert vmin[i] == v[mask].min()
            assert vmax[i] == v[mask].max()
            assert np.isclose(vsum[i], v[mask].sum())
            assert t_last[i] == t[mask][-1]
            assert v_last[i] == v[mask][-1]
        assert seq[-1] == len(t) - 1

    def test_reduce_merges_split_pieces_exactly(self):
        t = np.arange(0.0, 100.0, 1.0)
        v = np.arange(100.0)
        whole = fold_partials(t, v, 0.0, 10.0)
        split = [fold_partials(t[:37], v[:37], 0.0, 10.0),
                 fold_partials(t[37:], v[37:], 0.0, 10.0, seq_base=37)]
        for agg in ("mean", "sum", "min", "max", "last", "count"):
            wt, wv = reduce_partials([whole], 0.0, 10.0, agg)
            gt, gv = reduce_partials(split, 0.0, 10.0, agg)
            assert np.array_equal(gt, wt)
            assert np.array_equal(gv, wv)

    def test_last_winner_uses_sequence_on_time_ties(self):
        # two pieces, same bucket, same timestamp: the higher sequence
        # (later-sealed sample) must win — stable time-sort semantics
        a = fold_partials(np.array([5.0]), np.array([1.0]), 0.0, 10.0,
                          seq_base=0)
        b = fold_partials(np.array([5.0]), np.array([2.0]), 0.0, 10.0,
                          seq_base=1)
        _, gv = reduce_partials([a, b], 0.0, 10.0, "last")
        assert gv[0] == 2.0
        _, gv = reduce_partials([b, a], 0.0, 10.0, "last")
        assert gv[0] == 2.0


class TestChooseLevel:
    def test_picks_coarsest_sufficient(self):
        assert choose_level(DEFAULT_LEVELS, 3600.0, 0.0) == 3600.0
        assert choose_level(DEFAULT_LEVELS, 600.0, 0.0) == 60.0
        assert choose_level(DEFAULT_LEVELS, 30.0, 0.0) == 10.0

    def test_rejects_indivisible_step(self):
        assert choose_level(DEFAULT_LEVELS, 7.0, 0.0) is None
        assert choose_level(DEFAULT_LEVELS, 77.0, 0.0) is None

    def test_anchor_must_sit_on_level_grid(self):
        assert choose_level(DEFAULT_LEVELS, 60.0, 30.0) == 10.0
        assert choose_level(DEFAULT_LEVELS, 60.0, 5.0) is None

    def test_magnitude_guard(self):
        assert choose_level(DEFAULT_LEVELS, 60.0, 2.0**60) is None


class TestPyramidMaintenance:
    def test_incremental_equals_batch_fold(self):
        rng = np.random.default_rng(9)
        t = np.sort(rng.uniform(0.0, 2000.0, 300)).round(3)
        # integer-valued so partial sums are associativity-independent
        # and every answer is held bit-exact, not approximately
        v = rng.integers(-1000, 1000, 300).astype(np.float64)
        seals = range(0, 300, 64)
        inc = SeriesPyramid(DEFAULT_LEVELS)
        for lo in seals:
            inc.add_sealed(t[lo:lo + 64], v[lo:lo + 64], lo)
        batch = SeriesPyramid(DEFAULT_LEVELS)
        batch.add_sealed(t, v, 0)
        for level in DEFAULT_LEVELS:
            # the level is the sorted union of each seal's own fold: a
            # bucket a seal boundary cuts keeps a row per seal
            own = [fold_partials(t[lo:lo + 64], v[lo:lo + 64], 0.0, level,
                                 seq_base=lo) for lo in seals]
            want = [np.concatenate(col) for col in zip(*own)]
            order = np.lexsort((want[7], want[5], want[0]))
            got = inc.level_columns(level)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype
                assert np.array_equal(g, w[order])
            whole = batch.level_columns(level)
            assert len(got[0]) == len(whole[0]) + int(np.count_nonzero(
                want[0][1:] == want[0][:-1]))
            # and its rows meet in reduce_partials as the one fold's do
            for step in (10.0, 60.0, 600.0, 3600.0):
                m = int(step // level)
                if m * level != step:
                    continue
                for agg in AGGS:
                    g_t, g_v = reduce_partials(
                        [(got[0] // m,) + got[1:]], 0.0, step, agg)
                    w_t, w_v = reduce_partials(
                        [(whole[0] // m,) + whole[1:]], 0.0, step, agg)
                    assert np.array_equal(g_t, w_t), (level, step, agg)
                    assert np.array_equal(g_v, w_v), (level, step, agg)
        assert len(inc.level_columns(3600.0)[0]) == len(seals)


class TestIeeeSums:
    """``+inf`` and ``-inf`` in one bucket sum to NaN and ``mean``
    follows (``rollup.ieee_sums``) — the same on every route, and
    without a numpy warning on any of them."""

    @pytest.mark.parametrize("agg, finite", [("sum", 10.0), ("mean", 2.5)])
    def test_opposite_infinities_are_nan_on_every_route(self, agg, finite):
        store = TimeSeriesStore(chunk_size=4, pyramid_levels=DEFAULT_LEVELS)
        # two sealed chunks, each wholly inside one 60 s bucket
        t = np.array([0.0, 10.0, 20.0, 30.0, 60.0, 70.0, 80.0, 90.0])
        v = np.array([1.0, np.inf, -np.inf, 2.0, 1.0, 2.0, 3.0, 4.0])
        store.append(SeriesBatch.for_component("m.x", "a", t, v))
        fe = QueryFrontend(store)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            routes = {
                "raw": store.downsample("m.x", "a", 0.0, 120.0, 60.0, agg,
                                        prune=False),
                "summary-pruned": store.downsample("m.x", "a", 0.0, 120.0,
                                                   60.0, agg),
                "pyramid": fe.downsample("m.x", "a", 0.0, 120.0, 60.0, agg),
                "across": store.aggregate_across("m.x", None, 0.0, 120.0,
                                                 60.0, agg),
            }
        assert fe.stats().pyramid_answers == 1
        for name, got in routes.items():
            assert list(got.times) == [0.0, 60.0], name
            assert np.isnan(got.values[0]), name
            assert got.values[1] == finite, name


    def test_finite_readings_that_overflow_a_sum_seal_to_inf(self):
        """Two 1e308 readings sum past the float range: the chunk seals
        and every route reads ``inf``, with no overflow warning."""
        store = TimeSeriesStore(chunk_size=4, pyramid_levels=DEFAULT_LEVELS)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            store.append(SeriesBatch.for_component(
                "m.x", "a", [0.0, 10.0, 20.0, 30.0], [1e308, 1e308, 1.0, 2.0]))
            fe = QueryFrontend(store)
            for step in (60.0, 600.0, 3600.0):
                for agg, want in (("sum", np.inf), ("mean", np.inf),
                                  ("max", 1e308)):
                    routes = [
                        store.downsample("m.x", "a", 0.0, 3600.0, step, agg,
                                         prune=prune)
                        for prune in (False, True)
                    ] + [fe.downsample("m.x", "a", 0.0, 3600.0, step, agg)]
                    for got in routes:
                        assert list(got.times) == [0.0], (step, agg)
                        assert got.values.tolist() == [want], (step, agg)
        assert store.stats().sealed_chunks == 1


def sweep_store(n_sweeps, k=64, chunk_size=32, cadence=60.0, store=None):
    """A store fed ``n_sweeps`` lock-step sweeps of ``k`` nodes."""
    store = store or TimeSeriesStore(chunk_size=chunk_size)
    names = [f"n{i}" for i in range(k)]
    rng = np.random.default_rng(11)
    for i in range(n_sweeps):
        store.append(SeriesBatch.sweep("m", cadence * i, names,
                                       rng.normal(size=k)))
    return store


def pyramid_arrays(store):
    """Every array the rollup levels reach: each series' own pieces, and
    the pieces and row columns of each block's seal groups."""
    for block in store._blocks.values():
        for s in block.series:
            if s is not None and s.pyramid is not None:
                yield from (c for pieces in s.pyramid._pieces.values()
                            for piece in pieces for c in piece)
        for group in block.groups:
            yield from (c for piece in group.pieces.values() for c in piece)
            yield from (group.rows, group.seq_base)


def pyramid_bytes(store):
    """Bytes of the distinct buffers the pyramids reach (a buffer
    several pieces, series or levels share counts once)."""
    bases = {}
    for col in pyramid_arrays(store):
        while isinstance(col.base, np.ndarray):
            col = col.base
        bases[id(col)] = col
    return sum(b.nbytes for b in bases.values())


class TestOneSampleLevels:
    """At a 60 s cadence the 10 s and 60 s levels hold one sample a
    bucket: they are views of the sealed values, not five copies."""

    @pytest.mark.parametrize("chunks", [4, 40])
    def test_a_sealed_point_costs_at_most_16_bytes(self, chunks):
        # 40 chunks is the same history grown 10x: the cost stays flat
        store = sweep_store(32 * chunks)
        sealed = store.stats().samples - store._blocks["m"].n_head
        assert sealed == 64 * 32 * chunks
        assert pyramid_bytes(store) / sealed <= 16.0

    def test_reads_leave_a_sealed_point_at_most_10_bytes_flat(self):
        """A fleet aggregate and a downsample of every series read the
        seal groups in place: no pyramid reaches a merged copy after
        them, so a sealed point costs at most 10 B, flat (within 10%)
        as the history grows 10x."""
        per_point = []
        for chunks in (4, 40):
            store = sweep_store(128 * chunks, chunk_size=128)
            sealed = store.stats().samples - store._blocks["m"].n_head
            assert sealed == 64 * 128 * chunks
            fe = QueryFrontend(store)
            t1 = 128 * chunks * 60.0
            fe.aggregate_across("m", None, 0.0, t1, 600.0, "max")
            for c in store.components("m"):
                fe.downsample("m", c, 0.0, t1, 60.0, "mean")
            assert fe.stats().pyramid_answers == 1 + 64
            per_point.append(pyramid_bytes(store) / sealed)
        assert max(per_point) <= 10.0
        assert abs(per_point[1] / per_point[0] - 1.0) <= 0.10

    def test_the_one_sample_levels_share_the_values(self):
        store = sweep_store(32 * 4 + 5)
        block = store._blocks["m"]
        group = block.groups[-1]
        fine, coarse = (group.pieces[lv] for lv in (10.0, 60.0))
        assert fine[2] is coarse[2] is fine[6]
        assert np.shares_memory(fine[2], coarse[2])
        # a merge of the levels (the manifest's) still shares one values
        # column between them (not the hour level, which folds), and
        # leaves no copy behind: the series is in its four groups and
        # holds no levels of its own
        merged = block.export_series(DEFAULT_LEVELS)[("m", "n3")]["pyramid"][
            "pieces"]
        fine, coarse, hour = (merged[lv] for lv in DEFAULT_LEVELS)
        assert fine[2] is coarse[2] is coarse[3] is coarse[4] is coarse[6]
        assert not np.shares_memory(hour[2], fine[2])
        assert len(fine[2]) == 32 * 4
        row = block.table.row("n3")
        assert len(block.shared()[row]) == 4
        assert block.series[row].pyramid is None
        want = store.downsample("m", "n3", 0.0, 32 * 4 * 60.0, 600.0, "max",
                                prune=False)
        got = store.downsample("m", "n3", 0.0, 32 * 4 * 60.0, 600.0, "max")
        assert np.array_equal(got.values, want.values)
