"""Rollup pyramids and the one bucketed source: partial columns per series.

Dashboard-shaped ``downsample``/``aggregate_across`` reads are answered
from pre-aggregated rollup levels instead of re-scanning raw series —
the DCDB "continuous downsampling at ingest time" pattern that keeps
facility-scale query latency flat.  Each sealed chunk is folded once per
level at seal time into per-bucket *partial columns*:

    (bucket, count, sum, min, max, t_last, v_last, seq_last)

From those columns every agg the store supports is derivable exactly:
``count``/``min``/``max`` trivially, ``sum``/``mean`` up to float
summation order (the same caveat :class:`~repro.storage.tsdb.ChunkSummary`
already carries), and ``last`` via the (t_last, seq) winner rule that
reproduces the stable time-sort of the raw path bit-for-bit.

This module is the *one place* that defines bucket-grid normalization
(:func:`bucket_anchor`), partial-column folding/merging
(:func:`fold_partials` / :func:`reduce_partials`) and which source
answers which part of a window: sealed data series by series
(:func:`series_partials`: rollup rows, chunk summaries, decoded samples
— its rules are stated there, its guards in :func:`window_plan`, once),
open heads a whole head block at a time (:func:`head_partials`).  The
store's bucketed read and the serving plane above it are loops over
those two; the raw concat path in ``storage/tsdb.py`` shares only the
grid, which is what makes the exactness oracle in the property suite
meaningful.
"""

from __future__ import annotations

import math
from itertools import repeat
from typing import Iterator, Sequence

import numpy as np

__all__ = [
    "DEFAULT_LEVELS",
    "MAX_PLANNER_TIME",
    "SeriesPyramid",
    "bucket_anchor",
    "choose_level",
    "fold_partials",
    "fold_sealed_rows",
    "head_first_time",
    "head_partials",
    "ieee_sums",
    "reduce_partials",
    "series_partials",
    "window_plan",
]

#: raw -> 10 s -> 1 min -> 1 h, the rollup ladder from the ROADMAP;
#: coarser levels answer the same query from fewer rows
DEFAULT_LEVELS: tuple[float, ...] = (10.0, 60.0, 3600.0)

#: rollup-row eligibility guard on |anchor|, |t1| and step: below this magnitude
#: the float expressions ``floor((t - anchor) / step)`` and
#: ``floor(t / level)`` both compute the exact real-arithmetic floor for
#: millisecond-grid sample times, so raw and pyramid bucket
#: classification provably agree (grid boundaries are exact integers,
#: samples sit >= ~1e-3 s from them, rounding error is <= ~1e-7 s)
MAX_PLANNER_TIME: float = 2.0 ** 35


def bucket_anchor(t0: float, step: float) -> float:
    """The step-grid anchor at or below ``t0``: ``floor(t0/step)*step``.

    Every bucketing path (raw ``_bucket_agg``, summary-pruned
    downsample, pyramid planner) anchors its grid here, so a query
    window that is not step-aligned still lands on the *same* bucket
    boundaries everywhere.  The first bucket may therefore start before
    ``t0`` (the window filter itself stays ``[t0, t1)``) — the familiar
    ``GROUP BY time`` convention.
    """
    return float(np.floor(t0 / step) * step)


def ieee_sums() -> np.errstate:
    """Context every sum in the storage plane runs under.

    Sums are IEEE-754: a bucket (or chunk) holding both ``+inf`` and
    ``-inf`` sums to NaN, and ``mean`` follows — on the raw, the
    summary-pruned and the pyramid route alike.  numpy reports that
    defined result as an "invalid value" ``RuntimeWarning``; this
    silences exactly that flag at the sum sites, so any other
    floating-point warning out of ``repro.storage`` is a real defect
    (the test suite turns them into errors).
    """
    return np.errstate(invalid="ignore")


#: column dtypes of one partial-column piece, in column order
_PARTIAL_DTYPES = (np.int64, np.int64) + (np.float64,) * 5 + (np.int64,)


def _empty_partials() -> tuple[np.ndarray, ...]:
    return tuple(np.empty(0, dtype=d) for d in _PARTIAL_DTYPES)


def _fold_runs(cut: np.ndarray, b: np.ndarray, t: np.ndarray, v: np.ndarray,
               ) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """The one reduceat: samples folded run by run, a run ending where
    ``cut`` (one flag per adjacent pair) is set.  Returns each run's
    last index and its ``(b, cnt, vsum, vmin, vmax, t_last, v_last)``.
    ``v`` may be K series over the one ``t``, a C-contiguous ``(K, n)``
    matrix: its columns then come back ``(K, runs)``, a row a series."""
    ends = cut.nonzero()[0]
    starts = np.concatenate(([0], ends + 1))
    last = np.concatenate((ends, [len(t) - 1]))
    with ieee_sums():
        vsum = np.add.reduceat(v, starts, axis=-1)
    return last, (
        b[starts],
        (last + 1 - starts).astype(np.int64),
        vsum,
        np.minimum.reduceat(v, starts, axis=-1),
        np.maximum.reduceat(v, starts, axis=-1),
        t[last],
        v.take(last, axis=-1),
    )


def fold_partials(
    t: np.ndarray,
    v: np.ndarray,
    anchor: float,
    step: float,
    seq: np.ndarray | None = None,
    seq_base: int = 0,
) -> tuple[np.ndarray, ...]:
    """One reduceat pass folding time-sorted samples into partial columns.

    Returns ``(b, cnt, vsum, vmin, vmax, t_last, v_last, seq_last)``,
    one row per occupied bucket of the ``(anchor, step)`` grid.  ``seq``
    optionally gives each sample's position in the series' stable time
    order; omitted, the samples are consecutive from ``seq_base`` (the
    sealed-chunk case; :func:`fold_sealed_rows` folds K chunks in one).
    """
    if not len(t):
        return _empty_partials()
    buckets = np.floor((t - anchor) / step).astype(np.int64)
    last, cols = _fold_runs(buckets[1:] != buckets[:-1], buckets, t, v)
    return cols + (
        seq[last].astype(np.int64) if seq is not None else seq_base + last,
    )


def reduce_partials(
    pieces: Sequence[tuple[np.ndarray, ...]],
    anchor: float,
    step: float,
    agg: str,
    piece_comp: Sequence[int | np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Merge partial-column pieces into final ``(bucket_t, agg_v)``.

    The merge order is ``(bucket, t_last[, comp], seq)`` so the last row
    of each bucket group is the stable-time-sort winner for ``last`` —
    exactly the row the raw decompress-and-sort path would pick.
    ``piece_comp`` ranks each piece's source series for cross-component
    aggregation, reproducing the raw path's stable concat order: one
    rank for a whole piece, or a column ranking it row by row (a head
    block's piece holds many series).
    """
    keep = [p for p in pieces if len(p[0])]
    if not keep:
        return np.empty(0), np.empty(0)
    comp = None
    if piece_comp is not None:
        comp = np.concatenate([
            np.full(len(p[0]), c, dtype=np.int64)
            for p, c in zip(pieces, piece_comp)
            if len(p[0])
        ])
    b, cnt, vsum, vmin, vmax, t_last, v_last, seq = (
        np.concatenate([p[i] for p in keep]) for i in range(8)
    )
    order = (
        np.lexsort((seq, t_last, b)) if comp is None
        else np.lexsort((seq, comp, t_last, b))
    )
    b, cnt, vsum = b[order], cnt[order], vsum[order]
    vmin, vmax, v_last = vmin[order], vmax[order], v_last[order]
    cuts = np.flatnonzero(b[1:] != b[:-1]) + 1
    starts = np.concatenate(([0], cuts))
    out_t = anchor + b[starts] * step
    if agg == "sum":
        with ieee_sums():
            out_v = np.add.reduceat(vsum, starts)
    elif agg == "mean":
        with ieee_sums():
            out_v = (np.add.reduceat(vsum, starts)
                     / np.add.reduceat(cnt, starts))
    elif agg == "min":
        out_v = np.minimum.reduceat(vmin, starts)
    elif agg == "max":
        out_v = np.maximum.reduceat(vmax, starts)
    elif agg == "last":
        out_v = v_last[np.append(cuts, len(b)) - 1]
    else:                              # count
        out_v = np.add.reduceat(cnt, starts).astype(np.float64)
    return out_t, out_v


class SeriesPyramid:
    """Per-series rollup levels, folded incrementally at chunk-seal time.

    Each seal appends one partial-column *piece* per level (a single
    reduceat pass over the chunk, anchored at 0 so every query grid that
    divides the level reuses the same rows).  Reads see a per-level
    merged, bucket-sorted view that is materialized lazily and cached
    until the next seal — so steady-state reads are a binary search plus
    a slice, and ingest pays one O(chunk) fold per level.
    """

    __slots__ = ("levels", "samples_folded", "_pieces", "_merged")

    def __init__(self, levels: Sequence[float] = DEFAULT_LEVELS) -> None:
        lv = tuple(sorted(float(x) for x in levels))
        if not lv or any(x <= 0 for x in lv):
            raise ValueError("pyramid levels must be positive")
        self.levels = lv
        self.samples_folded = 0
        self._pieces: dict[float, list[tuple[np.ndarray, ...]]] = {
            x: [] for x in lv
        }
        self._merged: dict[float, tuple[np.ndarray, ...]] = {}

    def add_sealed(self, t: np.ndarray, v: np.ndarray,
                   seq_base: int) -> None:
        """Fold one sealed chunk (time-sorted, ms-rounded) into every level.

        ``seq_base`` is the number of samples sealed before this chunk in
        the series' chunk-list order, so seq numbers reproduce the stable
        time-sort of the raw read path.
        """
        if len(t):
            self.add_folded([fold_partials(t, v, 0.0, lv, seq_base=seq_base)
                             for lv in self.levels], len(t))

    def add_folded(self, pieces: Sequence[tuple], n: int) -> None:
        """Append one chunk's ``n`` samples already folded, a piece per
        level (:meth:`add_sealed`'s, or a row of :func:`fold_sealed_rows`)."""
        for lv, piece in zip(self.levels, pieces):
            self._pieces[lv].append(piece)
            self._merged.pop(lv, None)
        self.samples_folded += n

    def level_columns(self, level: float) -> tuple[np.ndarray, ...]:
        """Merged partial columns of one level, sorted by bucket id."""
        cols = self._merged.get(level)
        if cols is None:
            cols = _merge_pieces(tuple(self._pieces[level]))
            self._merged[level] = cols
        return cols

    def export_state(self) -> dict:
        """Snapshot-serializable state (the disk-tier manifest payload).

        Pieces are merged per level first, so the manifest carries one
        consolidated bucket-sorted piece per level instead of one per
        seal — and restore never refolds from a chunk decompress.
        """
        return {
            "levels": self.levels,
            "samples_folded": self.samples_folded,
            "pieces": {lv: self.level_columns(lv) for lv in self.levels},
        }

    @classmethod
    def from_state(cls, state: dict) -> "SeriesPyramid":
        """Inverse of :meth:`export_state`."""
        p = cls(state["levels"])
        p.samples_folded = int(state["samples_folded"])
        for lv, cols in state["pieces"].items():
            if len(cols[0]):
                p._pieces[float(lv)].append(tuple(cols))
        return p


def _merge_pieces(
    pieces: Sequence[tuple[np.ndarray, ...]],
) -> tuple[np.ndarray, ...]:
    """Collapse per-seal pieces into one row per bucket (sorted by bucket)."""
    pieces = [p for p in pieces if len(p[0])]
    if not pieces:
        return _empty_partials()
    if len(pieces) == 1:
        return pieces[0]       # a chunk's fold is already bucket-sorted
    cols = tuple(np.concatenate([p[i] for p in pieces]) for i in range(8))
    # seals in time order — each piece starts past the one before: done
    if all(p[0][0] > q[0][-1] for q, p in zip(pieces, pieces[1:])):
        return cols
    b, cnt, vsum, vmin, vmax, t_last, v_last, seq = cols
    order = np.lexsort((seq, t_last, b))
    b, cnt, vsum = b[order], cnt[order], vsum[order]
    vmin, vmax = vmin[order], vmax[order]
    t_last, v_last, seq = t_last[order], v_last[order], seq[order]
    cuts = np.flatnonzero(b[1:] != b[:-1]) + 1
    starts = np.concatenate(([0], cuts))
    last = np.append(starts[1:], len(b)) - 1
    with ieee_sums():
        vsum = np.add.reduceat(vsum, starts)
    return (
        b[starts],
        np.add.reduceat(cnt, starts),
        vsum,
        np.minimum.reduceat(vmin, starts),
        np.maximum.reduceat(vmax, starts),
        t_last[last],
        v_last[last],
        seq[last],
    )


def fold_sealed_rows(levels: Sequence[float], t: np.ndarray, v: np.ndarray,
                     seq_base: np.ndarray) -> Iterator[tuple]:
    """What :meth:`SeriesPyramid.add_sealed` folds, for K chunks sealed
    over one time column: ``v`` is ``(K, n)``, C-contiguous (a row then
    sums in its own order); row ``i`` sealed ``seq_base[i]`` samples
    before.  Yields each row's piece per level, bit-identical to folding
    it alone; the bucket, count and ``t_last`` columns, equal across rows
    by construction, are one read-only array shared by all K."""
    per_level = []
    for lv in levels:
        b, cnt, vsum, vmin, vmax, t_last, v_last, seq = fold_partials(
            t, v, 0.0, lv, seq_base=seq_base[:, None])
        for shared in (b, cnt, t_last):
            shared.flags.writeable = False
        per_level.append(zip(repeat(b), repeat(cnt), vsum, vmin, vmax,
                             repeat(t_last), v_last, seq))
    return zip(*per_level)


def choose_level(
    levels: Sequence[float], step: float, anchor: float
) -> float | None:
    """Coarsest level that answers an ``(anchor, step)`` grid exactly.

    Eligible when ``step`` is an exact integer multiple of the level and
    ``anchor`` sits exactly on the level's own grid — checked in exact
    float arithmetic, never approximately — and both magnitudes are
    inside :data:`MAX_PLANNER_TIME` (the bucket-classification proof
    bound).  Returns ``None`` when no level fits (caller falls back to
    the raw path).
    """
    if not (abs(anchor) <= MAX_PLANNER_TIME
            and 0.0 < step <= MAX_PLANNER_TIME):
        return None
    for lv in sorted(levels, reverse=True):
        m = round(step / lv)
        if m >= 1 and m * lv == step and round(anchor / lv) * lv == anchor:
            return lv
    return None


def window_plan(levels: Sequence[float] | None, t0: float, t1: float,
                step: float, anchor: float) -> tuple | None:
    """Where rollup rows answer ``[t0, t1)`` on the ``(anchor, step)``
    grid — a fact about a store's levels and the window, never about a
    series, so computed once per read.  ``(level, a, m, j_lo, jf,
    full_lo, full_hi)``: output buckets ``[j_lo, jf)`` (``jf`` None:
    unbounded) span ``[full_lo, full_hi)``, each is ``m`` level buckets
    and the anchor is level bucket ``a``.  None when there are no
    levels, :func:`choose_level` refuses the grid, ``|t1|`` is outside
    :data:`MAX_PLANNER_TIME` or the window holds no whole bucket."""
    if not levels or not (t1 == np.inf or abs(t1) <= MAX_PLANNER_TIME):
        return None
    level = choose_level(levels, step, anchor)
    j_lo = 0 if t0 <= anchor else 1
    jf = None if t1 == np.inf else math.floor((t1 - anchor) / step)
    if level is None or (jf is not None and jf <= j_lo):
        return None
    return (level, int(round(anchor / level)), int(round(step / level)),
            j_lo, jf, anchor + j_lo * step,
            np.inf if jf is None else anchor + jf * step)


def series_partials(series, cache, t0: float, t1: float, step: float,
                    anchor: float, plan: tuple | None,
                    ) -> list[tuple[np.ndarray, ...]]:
    """Partial-column pieces answering the *sealed* part of one series
    over a non-empty ``[t0, t1)`` on the ``(anchor, step)`` grid (none
    for a series with nothing sealed; open heads are
    :func:`head_partials`').  Each region of the window is answered from
    its coarsest exact source:

    1. **rollup rows** for the whole buckets ``plan``
       (:func:`window_plan`) found inside the window — a binary search +
       slice over one pyramid level.  Without a plan this region is
       empty and the rules below cover the whole window, so the answer
       degrades in cost, never in value;
    2. a sealed chunk's **seal-time summary** when the chunk sits wholly
       inside what is left of the window (the at-most-two edge buckets,
       or all of it) and inside one bucket — never decompressed;
    3. **decoded samples** (``series.decode``, through the shared chunk
       cache) for any other chunk overlapping what is left.

    ``seq`` numbers continue chunk-list order on every source (pyramid
    rows carry theirs from seal time, head samples follow the sealed
    ones), so the pieces reduce to *exactly* the stable time-sort of the
    raw read.  ``anchor`` is ``bucket_anchor`` of ``t0``, or of the
    selection's first sample when ``t0`` is unbounded.
    """
    pieces: list[tuple[np.ndarray, ...]] = []
    if not series.chunks or series.sealed_t_max < t0:    # a head-only window
        return pieces
    full_lo = full_hi = t1              # the region rollup rows answer
    if plan is not None:
        level, a, m, j_lo, jf, full_lo, full_hi = plan
        cols = series.pyramid.level_columns(level)
        lb = cols[0]
        i0 = int(np.searchsorted(lb, a + j_lo * m, side="left"))
        i1 = (
            len(lb) if jf is None
            else int(np.searchsorted(lb, a + jf * m, side="left"))
        )
        if i1 > i0:
            out_b = (lb[i0:i1] - a) // m    # exact: int64 grid arithmetic
            pieces.append((out_b,) + tuple(c[i0:i1] for c in cols[1:]))
    # what is left: [t0, full_lo) and [full_hi, t1) — the whole window
    # when no rollup rows were read, nothing on a step-aligned side (so
    # a window they answer outright walks no chunks)
    left, right = t0 < full_lo, full_hi < t1
    summaries: list[tuple] = []
    seq_base = 0
    for chunk in series.chunks if left or right else ():
        summ = chunk.summary
        lo, hi, n = summ.t_min, summ.t_max, summ.count
        if ((left and hi >= t0 and lo < full_lo)
                or (right and hi >= full_hi and lo < t1)):
            b = math.floor((lo - anchor) / step)
            if (((lo >= t0 and hi < full_lo) or (lo >= full_hi and hi < t1))
                    and b == math.floor((hi - anchor) / step)):
                summaries.append((b, n, summ.v_sum, summ.v_min, summ.v_max,
                                  hi, summ.v_last, seq_base + n - 1))
            else:
                ct, cv = series.decode(chunk, cache)
                mask = (((ct >= t0) & (ct < full_lo))
                        | ((ct >= full_hi) & (ct < t1)))
                if mask.any():
                    pieces.append(fold_partials(
                        ct[mask], cv[mask], anchor, step,
                        seq=seq_base + np.flatnonzero(mask)))
        seq_base += n
    if summaries:
        pieces.append(tuple(
            np.asarray(col, dtype=d)
            for col, d in zip(zip(*summaries), _PARTIAL_DTYPES)
        ))
    return pieces


def _window(t: np.ndarray, t0: float, t1: float) -> tuple[np.ndarray, ...]:
    """Positions and times of the entries of ``t`` inside ``[t0, t1)``,
    in stable time order (sorted only when they are out of order)."""
    col = ((t >= t0) & (t < t1)).nonzero()[0]
    t = t[col]
    # count_nonzero, not ``.any()``, and no length guard: this and the
    # row-then-columns index below are 1.5 us of the ~10 us a one-series
    # tail read costs now that it comes through here
    if np.count_nonzero(t[1:] < t[:-1]):
        order = np.argsort(t, kind="stable")
        col, t = col[order], t[order]
    return col, t


def _head_gather(block, rows: Sequence[int], t0: float, t1: float) -> tuple:
    """``(pos, col, t, v)`` of the open samples of ``rows`` of one head
    block inside ``[t0, t1)``: ``pos`` indexes ``rows`` (None for a
    single row, which is read through slices), ``col`` is the sample's
    arrival position in its head, and the order is ``pos`` then stable
    time.  Lock-step or ragged is the block's state, not an option."""
    shared = block.row_times is None
    if len(rows) == 1:
        row = rows[0]
        times = block.times if shared else block.row_times[row]
        col, t = _window(times[:block.counts[row]], t0, t1)
        return None, col, t, block.values[row][col]   # a view, then a take
    rows = np.asarray(rows)
    cnt = block.counts[rows]
    if shared:
        # one time column, windowed and ordered once; a row that lags it
        # holds a prefix of those columns
        col, t = _window(block.times[:block.n_times], t0, t1)
        pos, j = np.nonzero(col < cnt[:, None])
        col, t = col[j], t[j]
    else:
        j = np.arange(cnt.max())
        rt = block.row_times[rows[:, None], j]
        pos, col = np.nonzero((j < cnt[:, None]) & (rt >= t0) & (rt < t1))
        t = rt[pos, col]
        if len(t) > 1 and ((t[1:] < t[:-1]) & (pos[1:] == pos[:-1])).any():
            order = np.lexsort((t, pos))
            pos, col, t = pos[order], col[order], t[order]
    return pos, col, t, block.values[rows[pos], col]


def head_first_time(block, rows: Sequence[int]) -> float:
    """Earliest open sample time among ``rows`` of one head block."""
    t = _head_gather(block, rows, -math.inf, math.inf)[2]
    return float(t.min()) if len(t) else math.inf


def head_partials(block, rows: Sequence[int], seq_base: Sequence[int],
                  t0: float, t1: float, step: float, anchor: float,
                  ) -> tuple[tuple[np.ndarray, ...], np.ndarray | int]:
    """The open heads of ``rows`` of one head block over ``[t0, t1)`` as
    one partial-column piece, plus which of ``rows`` each row of the
    piece came from (the caller's rank column).

    One gather and one reduceat whose runs are the (row, bucket) pairs,
    so every partial is folded over exactly the samples, in exactly the
    order, a :func:`fold_partials` of that row's head alone would see.
    ``seq_base[i]`` is how many samples ``rows[i]``'s series has sealed:
    head samples continue its seq numbers in arrival order.
    """
    pos, col, t, v = _head_gather(block, rows, t0, t1)
    if not len(t):
        return _empty_partials(), 0
    b = np.floor((t - anchor) / step).astype(np.int64)
    cut = b[1:] != b[:-1]
    if pos is not None:
        cut |= pos[1:] != pos[:-1]
    last, cols = _fold_runs(cut, b, t, v)
    owner = 0 if pos is None else pos[last]
    return cols + (np.asarray(seq_base)[owner] + col[last],), owner
