"""Unit tests: rollup-pyramid primitives and their maintenance hooks."""

import warnings

import numpy as np
import pytest

from repro.core.metric import SeriesBatch
from repro.serve.frontend import QueryFrontend
from repro.storage.rollup import (
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
        # and the vsum column is held bit-exact, not approximately
        v = rng.integers(-1000, 1000, 300).astype(np.float64)
        inc = SeriesPyramid(DEFAULT_LEVELS)
        for lo in range(0, 300, 64):
            inc.add_sealed(t[lo:lo + 64], v[lo:lo + 64], lo)
        batch = SeriesPyramid(DEFAULT_LEVELS)
        batch.add_sealed(t, v, 0)
        for level in DEFAULT_LEVELS:
            got = inc.level_columns(level)
            want = batch.level_columns(level)
            for g, w in zip(got, want):
                assert np.array_equal(g, w)


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
