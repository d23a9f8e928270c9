"""Property-based tests: a one-sample rollup level is the sealed values.

Where every bucket of a level holds one sample, ``fold_partials`` and
``fold_sealed_rows`` return views of the samples instead of a reduceat.
They must be bit for bit the general fold — a reduceat over runs — on
every IEEE-754 value a collector can report, and read-only, because the
views alias the seal group's value matrix.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.storage import rollup

#: the values a sum-free fold must carry through unchanged, bit for bit
SPECIAL = [np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf, 1e308, -1e308,
           5e-324, -5e-324, 2.2250738585072e-308, 1.5, -3.25]
values_strategy = st.one_of(
    st.sampled_from(SPECIAL),
    st.floats(allow_nan=True, allow_infinity=True, width=64),
)


def general_fold(t, v, step, seq_base):
    """The reduceat fold over runs, whatever the runs hold."""
    b = np.floor(t / step).astype(np.int64)
    last, cols = rollup._fold_runs(b[1:] != b[:-1], b, t, v)
    return cols + (seq_base + last,)


def assert_bits(got, want):
    assert len(got) == len(want) == 8
    for g, w in zip(got, want):
        g, w = np.asarray(g), np.asarray(w)
        assert g.dtype == w.dtype and g.shape == w.shape
        assert np.array_equal(g.view(np.int64), w.view(np.int64))


def assert_read_only(piece):
    for col in piece:
        with pytest.raises(ValueError, match="read-only"):
            col[...] = 0


@st.composite
def one_sample_grid(draw, k_max=4):
    """Times on a 60 s cadence (ms-rounded, jittered inside the bucket),
    K value rows and per-row seal counts."""
    n = draw(st.integers(1, 24))
    k = draw(st.integers(1, k_max))
    start = draw(st.integers(0, 10**6))
    minutes = start + np.cumsum(draw(st.lists(
        st.integers(1, 3), min_size=n, max_size=n)))
    jitter = np.asarray(draw(st.lists(
        st.integers(0, 9_999), min_size=n, max_size=n)))
    t = (minutes * 60_000 + jitter) / 1000.0
    v = np.asarray(draw(st.lists(values_strategy, min_size=k * n,
                                 max_size=k * n)),
                   dtype=np.float64).reshape(k, n)
    seq_base = np.asarray(draw(st.one_of(
        st.just([draw(st.integers(0, 10**6))] * k),
        st.lists(st.integers(0, 10**6), min_size=k, max_size=k),
    )), dtype=np.int64)
    return t, v, seq_base


class TestOneSampleFolds:
    @given(grid=one_sample_grid(k_max=1),
           step=st.sampled_from([10.0, 60.0]))
    @settings(max_examples=200, deadline=None)
    def test_fold_partials_is_the_general_fold(self, grid, step):
        t, v, seq_base = grid
        v, base = v[0], int(seq_base[0])
        assume(np.all(np.diff(np.floor(t / step)) > 0))
        got = rollup.fold_partials(t, v, 0.0, step, seq_base=base)
        assert_bits(got, general_fold(t, v, step, base))
        assert_read_only(got)
        # the four value columns are one view of the samples
        assert got[2] is got[3] is got[4] is got[6]
        assert np.shares_memory(got[2], v) and np.shares_memory(got[5], t)

    @given(grid=one_sample_grid())
    @settings(max_examples=200, deadline=None)
    def test_fold_sealed_rows_is_the_general_fold_row_by_row(self, grid):
        t, v, seq_base = grid
        levels = (10.0, 60.0, 3600.0)
        rows = list(rollup.fold_sealed_rows(levels, t, v, seq_base))
        want = [[general_fold(t, row, lv, int(base)) for lv in levels]
                for row, base in zip(v, seq_base)]
        assert len(rows) == len(v)
        for i, pieces in enumerate(rows):
            for piece, w in zip(pieces, want[i]):
                assert_bits(piece, w)
                assert_read_only(piece)
            fine, coarse = pieces[0], pieces[1]     # 10 s and 60 s
            for piece in (fine, coarse):
                assert piece[2] is piece[3] is piece[4] is piece[6]
                assert np.shares_memory(piece[2], v)
            # every one-sample level holds the same objects but the bucket
            assert all(fine[j] is coarse[j] for j in range(1, 8))
        if len(rows) > 1 and not np.count_nonzero(seq_base - seq_base[0]):
            assert rows[0][0][7] is rows[1][0][7]   # one seq row for all K

    @given(grid=one_sample_grid(k_max=1))
    @settings(max_examples=100, deadline=None)
    def test_a_fold_that_runs_is_still_read_only(self, grid):
        # the same samples on an hour grid: the general reduceat route
        t, v, seq_base = grid
        got = rollup.fold_partials(t, v[0], 0.0, 3600.0,
                                   seq_base=int(seq_base[0]))
        want = general_fold(t, v[0], 3600.0, int(seq_base[0]))
        assert_bits(got, want)
        assert_read_only(got)
