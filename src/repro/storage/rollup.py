"""Rollup pyramids and the one bucketed source: partial columns per seal.

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

A pyramid level holds **one row per seal and bucket** — in memory, in
the manifest and after a restore — and the rows of one bucket meet in
one place only: :func:`reduce_partials`, in ``(bucket, t_last, rank,
seq)`` order.  Nothing else adds partial rows together, so a live store
and its restore answer bit for bit alike; a ``sum``/``mean`` bucket that
a seal boundary cuts adds its rows in that order, which is the
summation order the caveat above leaves open.

This module is the *one place* that defines bucket-grid normalization
(:func:`bucket_anchor`), partial-column folding/merging
(:func:`fold_partials` / :func:`reduce_partials`) and which source
answers which part of a window: sealed data a seal group at a time
(:func:`group_partials`: rollup rows, chunk summaries, decoded samples
of K series at once — the rules are stated at :func:`series_partials`,
which applies them to what a series holds alone, the guards in
:func:`window_plan`, once), open heads a whole head block at a time
(:func:`head_partials`).  A seal group's fold is one *group piece* per
level — its K series' value columns one ``(K, B)`` matrix over shared
bucket columns — and :func:`reduce_partials` orders those columns, not
their rows.  ``SealGroup.rows`` is the one record of which series a
group holds; a :class:`SeriesPyramid` exists only for a series that
sealed alone, and :func:`export_levels` joins the two for a manifest.
The store's bucketed read and the serving plane above it are loops
over these; the raw concat path in ``storage/tsdb.py`` shares only the
grid, which is what makes the exactness oracle in the property suite
meaningful.
"""

from __future__ import annotations

import math
from types import MappingProxyType
from typing import Iterator, Sequence

import numpy as np

__all__ = [
    "AGGS",
    "DEFAULT_LEVELS",
    "MAX_PLANNER_TIME",
    "SealGroup",
    "SeriesPyramid",
    "bucket_anchor",
    "check_bucketing",
    "check_levels",
    "check_step",
    "choose_level",
    "export_levels",
    "fold_group",
    "fold_partials",
    "fold_sealed_rows",
    "group_partials",
    "head_first_time",
    "head_partials",
    "ieee_sums",
    "reduce_partials",
    "row_piece",
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

#: the aggregations every bucketed read answers — the names
#: :func:`reduce_partials` (and the raw path's ``_bucket_agg``) branch on
AGGS: tuple[str, ...] = ("count", "last", "max", "mean", "min", "sum")


def check_step(step: float) -> None:
    """The step check every bucketed entry point runs first, the agg-free
    ones included (a NaN or infinite step makes no grid: bucket ids
    would be garbage)."""
    if not 0.0 < step < math.inf:
        raise ValueError("step must be positive and finite")


def check_bucketing(agg: str, step: float) -> None:
    """The argument check every bucketing entry point with an agg runs
    first."""
    if agg not in AGGS:
        raise ValueError(f"unknown agg {agg!r}; choose from {list(AGGS)}")
    check_step(step)


def check_levels(levels: Sequence[float]) -> tuple[float, ...]:
    """The levels as ascending floats — a store checks and sorts them
    once, and every fold and pyramid of the store shares the tuple;
    ``ValueError`` unless there are some and each is positive and
    finite (NaN folds garbage bucket ids, and no grid can choose an
    infinite level)."""
    lv = tuple(float(x) for x in levels)
    if not lv or not all(0.0 < x < math.inf for x in lv):
        raise ValueError(f"pyramid levels must be positive and finite: {lv}")
    return tuple(sorted(lv))


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
    ``-inf`` sums to NaN, finite readings whose sum passes the float
    range sum to ``±inf``, and ``mean`` follows — on the raw, the
    summary-pruned and the pyramid route alike.  numpy reports those
    defined results as "invalid value" and "overflow" ``RuntimeWarning``\\ s;
    this silences exactly those two flags at the sum sites, so any
    other floating-point warning out of ``repro.storage`` is a real
    defect (the test suite turns them into errors).
    """
    return np.errstate(over="ignore", invalid="ignore")


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
    seq_base: int | np.ndarray = 0,
) -> tuple[np.ndarray, ...]:
    """One reduceat pass folding time-sorted samples into partial columns.

    Returns ``(b, cnt, vsum, vmin, vmax, t_last, v_last, seq_last)``,
    one read-only row per occupied bucket of the ``(anchor, step)`` grid.
    A sample's seq number is ``seq_base`` plus its position: ``seq``
    optionally gives the positions (a window of a chunk), else the
    samples are consecutive (the sealed-chunk case).  ``v`` may be K
    rows over the one ``t`` with ``seq_base`` a ``(K, 1)`` column: the
    value and seq columns then come back ``(K, B)`` (a group piece).
    When each bucket holds one sample the partials are views of the
    samples: a one-element reduceat returns its element bit for bit.
    """
    if not len(t):
        return _empty_partials()
    buckets = np.floor((t - anchor) / step).astype(np.int64)
    cut = buckets[1:] != buckets[:-1]
    if cut.all():                   # one sample a bucket: the samples
        last, v = np.arange(len(t)), v.view()
        cols = (buckets, np.ones(len(t), np.int64), v, v, v, t.view(), v)
    else:
        last, cols = _fold_runs(cut, buckets, t, v)
    cols += (seq_base + (last if seq is None else seq[last]),)
    for col in cols:
        col.flags.writeable = False
    return cols


#: rows up to which :func:`reduce_partials` sorts rows, not columns: a
#: column sort's fixed cost (a signature per set of tied pieces) beats
#: the row ``lexsort`` only from a few thousand rows on
_ROW_SORT_MAX = 4096

#: the partial column each agg reduces (``count`` reads counts only)
_AGG_COLUMN = MappingProxyType(
    {"sum": 2, "mean": 2, "min": 3, "max": 4, "last": 6})


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
    aggregation, reproducing the raw path's stable concat order.  A
    piece is one of two shapes:

    * **one-row columns** (every column ``(n,)``), ranked by one int, or
      by a column ranking it row by row (a ragged head block's piece);
    * a **group piece**: bucket, count and ``t_last`` ``(B,)``, value and
      seq columns ``(K, B)`` — K series over the same buckets (a seal
      group, a lock-step head block) — ranked by a ``(K,)`` array.

    Each column of a group piece (each row of a one-row piece) is sorted
    by ``(bucket, t_last)`` once; where columns tie, their rows follow
    by rank, one permutation for every tie over the same pieces.  A tie
    whose ranks repeat (a series' late samples across a seal) or that
    holds a row-ranked column is ordered by ``(rank, seq)`` element by
    element.  The sums then run over one gather of the values in that
    order, so the answer is bit for bit the concatenate-and-lexsort of
    every row — which is what runs when every piece has one row, or
    when there are at most :data:`_ROW_SORT_MAX` rows.  One piece whose
    buckets strictly increase (a drill-down's) is already in merge
    order: it is reduced as it stands, with no sort.
    """
    keep = [i for i, p in enumerate(pieces) if p[2].size]
    if not keep:
        return np.empty(0), np.empty(0)
    col = _AGG_COLUMN.get(agg)
    b = pieces[keep[0]][0]
    if (len(keep) == 1 and pieces[keep[0]][2].size == len(b)
            and not np.count_nonzero(b[1:] <= b[:-1])):
        p = pieces[keep[0]]
        return _reduce_runs(anchor + b * step, np.arange(len(b)),
                            None if col is None else p[col].reshape(-1),
                            p[1], agg)
    ps = [pieces[i] for i in keep]
    comps = [0] * len(pieces) if piece_comp is None else piece_comp
    width = [len(p[0]) for p in ps]
    height = [len(p[2]) if p[2].ndim == 2 else 1 for p in ps]
    if sum(k * w for k, w in zip(height, width)) <= _ROW_SORT_MAX or max(
            height) == 1:           # the row sort: group pieces as rows
        rows = [p if k == 1 and p[2].ndim == 1 else tuple(
            np.tile(c, k) if c.ndim == 1 else c.reshape(-1) for c in p)
            for p, k in zip(ps, height)]
        b, cnt, t_last, seq = (np.concatenate([r[c] for r in rows])
                               for c in (0, 1, 5, 7))
        vals = None if col is None else np.concatenate([r[col] for r in rows])
        comp = np.concatenate([_row_ranks(comps[i], p, w)
                               for i, p, w in zip(keep, ps, width)])
        order = np.lexsort((seq, comp, t_last, b))
        b = b[order]
        starts = np.flatnonzero(np.append(True, b[1:] != b[:-1]))
        return _reduce_runs(anchor + b[starts] * step, starts,
                            None if vals is None else vals[order],
                            np.add.reduceat(cnt[order], starts), agg)
    width, height = np.array(width), np.array(height)
    # a rank a row, or (one-row columns ranked row by row) a rank a column
    ranks = [np.broadcast_to(comps[i], (w,) if p[2].ndim == 1
                             and np.ndim(comps[i]) else (k,))
             for i, p, k, w in zip(keep, ps, height, width)]
    # every column, sorted by (bucket, t_last): a stable sort keeps the
    # columns of one tie in piece order
    cb = np.concatenate([p[0] for p in ps])
    ct = np.concatenate([p[5] for p in ps])
    order = np.lexsort((ct, cb))
    sb, st = cb[order], ct[order]
    sp = np.repeat(np.arange(len(ps)), width)[order]
    sj = (np.arange(len(cb))
          - np.repeat(np.cumsum(width) - width, width))[order]
    new = np.ones(len(sb), dtype=bool)
    new[1:] = (sb[1:] != sb[:-1]) | (st[1:] != st[:-1])
    first = new.nonzero()[0]                    # each tie's first column
    size = np.diff(np.append(first, len(sb)))   # columns in each tie
    n_el = np.add.reduceat(height[sp], first)   # rows in each tie
    tie_at = np.cumsum(n_el) - n_el             # its first output slot
    tb = sb[first]
    bucket = np.flatnonzero(np.append(True, tb[1:] != tb[:-1]))
    cnt = np.concatenate([p[1] for p in ps])[order] * height[sp]
    vals = None
    if col is not None:
        vals = np.empty(int(n_el.sum()))
        mats = [p[col] if p[col].ndim == 2 else p[col][None] for p in ps]
        for m in np.unique(size).tolist():
            ties = (size == m).nonzero()[0]
            at = first[ties][:, None] + np.arange(m)
            sigs, which = np.unique(sp[at], axis=0, return_inverse=True)
            which = which.reshape(-1)
            for k, sig in enumerate(sigs.tolist()):
                pick = which == k
                _place(vals, mats, ps, ranks, height, sig,
                       tie_at[ties[pick]], sj[at[pick]])
    return _reduce_runs(anchor + tb[bucket] * step, tie_at[bucket], vals,
                        np.add.reduceat(cnt, first[bucket]), agg)


def _row_ranks(comp, piece: tuple, width: int) -> np.ndarray:
    """The rank of each row of ``piece`` as :func:`reduce_partials`'
    row sort lays them out: a group piece's rank a row repeated along
    its row, a one-row piece's one rank or rank column."""
    rows = len(piece[2]) if piece[2].ndim == 2 else 1
    if np.size(comp) == 1:          # one rank for the whole piece
        return np.full(rows * width, comp)
    return np.repeat(comp, width) if rows > 1 else np.asarray(comp)


def _place(vals: np.ndarray, mats: list, ps: list, ranks: list,
           height: np.ndarray, sig: list[int], tie_at: np.ndarray,
           cols: np.ndarray) -> None:
    """Scatter the ties over the pieces ``sig`` (``cols[t, s]``: tie
    ``t``'s column of piece ``sig[s]``; ``tie_at[t]``: its first output
    slot) into ``vals`` in ``(rank, seq)`` order."""
    span = np.cumsum(height[sig])
    total = int(span[-1])
    span = span - height[sig]
    rank = [ranks[p] for p in sig]
    if (len(set(sig)) == len(sig) and all(r.size == height[p]
                                          for p, r in zip(sig, rank))):
        r = np.concatenate(rank)
        perm = np.argsort(r, kind="stable")
        if not np.count_nonzero(r[perm][1:] == r[perm][:-1]):
            inv = np.empty(total, dtype=np.intp)
            inv[perm] = np.arange(total)
            dest = tie_at[:, None] + inv
            for s, p in enumerate(sig):
                vals[dest[:, span[s]:span[s] + height[p]]] = (
                    mats[p][:, cols[:, s]].T)
            return
    # the row sort, within each tie: (tie, rank, seq) element by element
    n = len(tie_at)
    rk = np.concatenate([
        np.broadcast_to(r[cols[:, s]][:, None] if r.size != height[p]
                        else r[None, :], (n, height[p]))
        for s, (p, r) in enumerate(zip(sig, rank))], axis=1)
    seq = np.concatenate([
        (ps[p][7] if ps[p][7].ndim == 2 else ps[p][7][None])[:, cols[:, s]].T
        for s, p in enumerate(sig)], axis=1)
    o = np.lexsort((seq.ravel(), rk.ravel(), np.repeat(np.arange(n), total)))
    dest = np.empty(n * total, dtype=np.intp)
    dest[o] = np.repeat(tie_at, total) + np.tile(np.arange(total), n)
    dest = dest.reshape(n, total)
    for s, p in enumerate(sig):
        vals[dest[:, span[s]:span[s] + height[p]]] = mats[p][:, cols[:, s]].T


def _reduce_runs(out_t: np.ndarray, starts: np.ndarray,
                 vals: np.ndarray | None, counts: np.ndarray | None,
                 agg: str) -> tuple[np.ndarray, np.ndarray]:
    """The agg over runs of ``vals`` (merge-ordered values of the agg's
    column) that begin at ``starts``, one per output bucket; ``counts``
    holds each bucket's sample count (``mean`` and ``count``)."""
    if agg == "sum":
        with ieee_sums():
            out_v = np.add.reduceat(vals, starts)
    elif agg == "mean":
        with ieee_sums():
            out_v = np.add.reduceat(vals, starts) / counts
    elif agg == "min":
        out_v = np.minimum.reduceat(vals, starts)
    elif agg == "max":
        out_v = np.maximum.reduceat(vals, starts)
    elif agg == "last":
        out_v = vals[np.append(starts[1:], len(vals)) - 1]
    else:                              # count
        out_v = counts.astype(np.float64)
    return out_t, out_v


class SealGroup:
    """One seal of ``K`` rows of a head block that share their times:
    the sealed chunk of each row and the group's fold, one piece per
    level (:func:`fold_group`) — bucket, count and ``t_last`` ``(B,)``,
    value and seq columns ``(K, B)``.  ``rows`` are the block rows the
    K series live in (``-1`` once a series is dropped), ``seq_base``
    what each had sealed before, ``times`` the one time column the K
    chunks share (time-sorted, ms-rounded — what each decompresses back
    to — and read-only: every chunk's ``times`` is this object), ``n`` /
    ``t_min`` / ``t_max`` its span.  A fleet read answers its sealed
    part one group at a time (:func:`group_partials`)."""

    __slots__ = ("rows", "chunks", "seq_base", "times", "n", "t_min",
                 "t_max", "pieces")

    def __init__(self, rows: np.ndarray, seq_base: np.ndarray, t: np.ndarray,
                 pieces: dict) -> None:
        self.rows = np.array(rows, dtype=np.intp)
        self.chunks: list = []      # one SealedChunk a row, None once dropped
        self.seq_base = seq_base
        t.flags.writeable = False
        self.times = t
        self.n, self.t_min, self.t_max = len(t), float(t[0]), float(t[-1])
        self.pieces = pieces

    def drop(self, k: int) -> None:
        """Row ``k``'s series is gone: no read selects it again."""
        self.rows[k] = -1
        self.chunks[k] = None


def row_piece(piece: tuple, k: int, memo: dict) -> tuple:
    """Row ``k`` of a group piece as one-row columns (views).  ``memo``
    hands out one view per ``(column, row)`` — every row for a column
    that repeats one row (a shared seq) — so a column several levels
    share stays one object in their rows too."""
    out = []
    for col in piece:
        if col.ndim == 2:
            key = (id(col), 0 if col.strides[0] == 0 else k)
            view = memo.get(key)
            if view is None:
                view = memo[key] = col[key[1]]
            col = view
        out.append(col)
    return tuple(out)


class SeriesPyramid:
    """What one series sealed alone, folded at seal time: the rollup
    levels of a seal of one row, of the chunks a manifest restores and
    of the chunks a recovery scan finds.  A series whose seals were all
    shared with other rows of its head block has none: its rows live in
    the block's seal groups, and :class:`SealGroup` ``rows`` are the one
    record of which.

    A level holds one row per seal and bucket, and keeps holding them
    that way in the manifest and after a restore: the rows a seal
    boundary (or a late sample) puts in one bucket stay apart.  Each
    seal adds a one-row piece per level (a single reduceat pass over the
    chunk, anchored at 0 so every query grid that divides the level
    reuses the same rows); a read of a level replaces its pieces by
    their sorted union (:meth:`level_columns`).  ``levels`` are the
    store's, checked and sorted once when the store is built.
    """

    __slots__ = ("levels", "_pieces")

    def __init__(self, levels: Sequence[float] = DEFAULT_LEVELS) -> None:
        self.levels = levels
        self._pieces: dict[float, list[tuple[np.ndarray, ...]]] = {
            x: [] for x in levels
        }

    def add_sealed(self, t: np.ndarray, v: np.ndarray,
                   seq_base: int) -> None:
        """Fold one sealed chunk (time-sorted, ms-rounded) into every level.

        ``seq_base`` is the number of samples sealed before this chunk in
        the series' chunk-list order, so seq numbers reproduce the stable
        time-sort of the raw read path.
        """
        if len(t):
            self.add_folded(next(fold_sealed_rows(
                self.levels, t, v[None], np.array([seq_base]))))

    def add_folded(self, pieces: Sequence[tuple]) -> None:
        """Append one chunk already folded, a one-row piece per level
        (:meth:`add_sealed`'s, or a row of :func:`fold_sealed_rows`)."""
        for lv, piece in zip(self.levels, pieces):
            self._pieces[lv].append(piece)

    def level_columns(self, level: float) -> tuple[np.ndarray, ...]:
        """The rows of one level as one piece, sorted by ``(b, t_last,
        seq)`` and nothing combined (what :func:`series_partials` reads;
        seal-group rows are :func:`group_partials`'), so no answer
        depends on when a read came.  The union replaces the pieces; the
        levels whose last piece aliases its values (one-sample folds of
        the same seals) are joined with it, so they keep sharing them."""
        pieces = self._pieces[level]
        if len(pieces) > 1:
            memo: dict = {}
            self._pieces = {lv: [_union(p, memo)]
                            if p and p[-1][2] is pieces[-1][2] else p
                            for lv, p in self._pieces.items()}
        return (self._pieces[level] or [_empty_partials()])[0]

    @classmethod
    def from_state(cls, state: dict, levels: Sequence[float]
                   ) -> "SeriesPyramid":
        """The levels a manifest entry holds (:func:`export_levels`),
        over the store's ``levels``."""
        p = cls(levels)
        for lv, cols in state["pieces"].items():
            if len(cols[0]):
                p._pieces[float(lv)].append(tuple(cols))
        return p


def export_levels(levels: Sequence[float], pyramid: SeriesPyramid | None,
                  shared: Sequence[tuple[SealGroup, int]]) -> dict:
    """One series' levels as a manifest entry holds them: per level one
    piece, the rows of its own pyramid and its row ``k`` of every seal
    group ``(group, k)`` in ``shared``, one row per seal and bucket,
    sorted by ``(b, t_last, seq)`` (:func:`_union`; nothing combined — a
    bucket's rows meet only in :func:`reduce_partials`).  The levels are
    built under one memo, so the one-sample levels that alias the sealed
    values in memory write them once, and a restore never refolds from a
    chunk decompress."""
    views: dict = {}
    concat: dict = {}
    own = [] if pyramid is None else [pyramid]
    return {
        "levels": tuple(levels),
        "pieces": {lv: _union([p.level_columns(lv) for p in own]
                              + [row_piece(g.pieces[lv], k, views)
                                 for g, k in shared], concat)
                   for lv in levels},
    }


def _union(pieces: Sequence[tuple[np.ndarray, ...]], memo: dict | None = None,
           ) -> tuple[np.ndarray, ...]:
    """Per-seal pieces as one, every row kept, sorted by ``(b, t_last,
    seq)``: each distinct column object concatenated once (``memo``: the
    ids concatenated -> the result, over pieces alive through its use)
    and, unless the seals came in time order, permuted once."""
    pieces = [p for p in pieces if len(p[0])]
    if not pieces:
        return _empty_partials()
    if len(pieces) == 1:
        return pieces[0]       # a chunk's fold is already bucket-sorted
    memo, cols = {} if memo is None else memo, []
    for parts in zip(*pieces):          # a column across the pieces
        key = tuple(map(id, parts))
        col = memo.get(key)
        if col is None:
            col = memo[key] = np.concatenate(parts)
        cols.append(col)
    # seals in time order — each piece starts past the one before: done
    if all(p[0][0] > q[0][-1] for q, p in zip(pieces, pieces[1:])):
        return tuple(cols)
    order = np.lexsort((cols[7], cols[5], cols[0]))
    done: dict = {}
    for c in cols:
        if id(c) not in done:
            done[id(c)] = c[order]
    return tuple(done[id(c)] for c in cols)


def fold_group(levels: Sequence[float], t: np.ndarray, v: np.ndarray,
               seq_base: np.ndarray) -> list[tuple]:
    """K chunks sealed over one time column folded once per level: ``v``
    is ``(K, n)``, C-contiguous (a row then sums in its own order); row
    ``i`` sealed ``seq_base[i]`` samples before.  Returns one group
    piece a level — bucket, count and ``t_last`` ``(B,)``, value and seq
    columns ``(K, B)``, every column read-only — whose row ``i`` is bit
    for bit the fold of row ``i`` alone.  A level of one sample a bucket
    is the samples: its four value columns are ``v`` itself, shared with
    every such level along with the count, ``t_last`` and seq objects
    (~8 B/point for all of them).  Seq is one row repeated (no memory)
    when every ``seq_base`` agrees."""
    one = not np.count_nonzero(seq_base != seq_base[0])
    out, samples = [], None
    for lv in levels:
        b, cnt, vsum, vmin, vmax, t_last, v_last, seq = fold_partials(
            t, v, 0.0, lv, seq_base=seq_base[:1 if one else None, None])
        if one:
            seq = np.broadcast_to(seq, (len(v), len(b)))
        if vsum is v_last:      # one sample a bucket: the first such level's
            samples = samples or (cnt, vsum, t_last, seq)
            cnt, vsum, t_last, seq = samples
            vmin = vmax = v_last = vsum
        out.append((b, cnt, vsum, vmin, vmax, t_last, v_last, seq))
    return out


def fold_sealed_rows(levels: Sequence[float], t: np.ndarray, v: np.ndarray,
                     seq_base: np.ndarray) -> Iterator[tuple]:
    """:func:`fold_group`, row by row: yields each row's one-row piece
    per level (views), what the rows share one object in all of them."""
    pieces, memo = fold_group(levels, t, v, seq_base), {}
    return (tuple(row_piece(p, k, memo) for p in pieces)
            for k in range(len(v)))


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


def window_plan(levels: Sequence[float], t0: float, t1: float,
                step: float, anchor: float) -> tuple | None:
    """Where rollup rows answer ``[t0, t1)`` on the ``(anchor, step)``
    grid — a fact about a store's levels and the window, never about a
    series, so computed once per read.  ``(level, a, m, j_lo, jf,
    full_lo, full_hi)``: output buckets ``[j_lo, jf)`` (``jf`` None:
    unbounded) span ``[full_lo, full_hi)``, each is ``m`` level buckets
    and the anchor is level bucket ``a``.  None when
    :func:`choose_level` refuses the grid, ``|t1|`` is outside
    :data:`MAX_PLANNER_TIME` or the window holds no whole bucket."""
    if not (t1 == np.inf or abs(t1) <= MAX_PLANNER_TIME):
        return None
    level = choose_level(levels, step, anchor)
    j_lo = 0 if t0 <= anchor else 1
    jf = None if t1 == np.inf else math.floor((t1 - anchor) / step)
    if level is None or (jf is not None and jf <= j_lo):
        return None
    return (level, int(round(anchor / level)), int(round(step / level)),
            j_lo, jf, anchor + j_lo * step,
            np.inf if jf is None else anchor + jf * step)


def series_partials(series, decode, t0: float, t1: float, step: float,
                    anchor: float, plan: tuple | None,
                    ) -> list[tuple[np.ndarray, ...]]:
    """What one series holds alone of its sealed part over a non-empty
    ``[t0, t1)`` on the ``(anchor, step)`` grid: its own pyramid pieces
    and the chunks no seal group holds (a seal of one row, a restored or
    recovered chunk).  The caller asks only for a series whose own
    chunks reach ``t0`` (the block's ``own_t_max`` column), so the
    series has a pyramid.
    Seal-group rows are :func:`group_partials`', open heads
    :func:`head_partials`'.  Each region of the window is answered from
    its coarsest exact source:

    1. **rollup rows** for the whole buckets ``plan``
       (:func:`window_plan`) found inside the window — a binary search +
       slice over one pyramid level, relabelled to query buckets and
       returned first, a row per seal and level bucket as the level
       holds them (:func:`reduce_partials` is where they meet).
       Without a plan this region is empty and the rules below cover
       the whole window, so the answer degrades in cost, never in value;
    2. a sealed chunk's **seal-time summary** when the chunk sits wholly
       inside what is left of the window (the at-most-two edge buckets,
       or all of it) and inside one bucket — never decompressed;
    3. **decoded samples** (``decode(chunk)``, through the shared chunk
       cache) for any other chunk overlapping what is left.

    ``seq`` numbers continue chunk-list order on every source (pyramid
    rows carry theirs from seal time, head samples follow the sealed
    ones), so the pieces reduce to *exactly* the stable time-sort of the
    raw read.  ``anchor`` is ``bucket_anchor`` of ``t0``, or of the
    selection's first sample when ``t0`` is unbounded.
    """
    pieces: list[tuple[np.ndarray, ...]] = []
    full_lo = full_hi = t1          # the region rollup rows answer
    if plan is not None:
        full_lo, full_hi = plan[5], plan[6]
        rows = _level_rows(series.pyramid.level_columns(plan[0]), plan, None)
        if rows is not None:
            pieces.append(rows)
    # what is left: [t0, full_lo) and [full_hi, t1) — the whole window
    # when no rollup rows were read, nothing on a step-aligned side (so
    # a window they answer outright walks no chunks)
    left, right = t0 < full_lo, full_hi < t1
    summaries: list[tuple] = []
    seq_base = 0
    for chunk in series.chunks if left or right else ():
        summ = chunk.summary
        lo, hi, n = summ.t_min, summ.t_max, summ.count
        if chunk.times is None and _edge(lo, hi, t0, t1, full_lo, full_hi):
            b = _one_bucket(lo, hi, t0, t1, full_lo, full_hi, step, anchor)
            if b is not None:
                summaries.append((b, n, summ.v_sum, summ.v_min, summ.v_max,
                                  hi, summ.v_last, seq_base + n - 1))
            else:
                ct, cv = decode(chunk)
                piece = _edge_fold(ct, cv, seq_base, t0, t1, full_lo,
                                   full_hi, step, anchor)
                if piece is not None:
                    pieces.append(piece)
        seq_base += n
    if summaries:
        pieces.append(tuple(
            np.asarray(col, dtype=d)
            for col, d in zip(zip(*summaries), _PARTIAL_DTYPES)
        ))
    return pieces


def _level_rows(cols: tuple, plan: tuple, sel: np.ndarray | None
                ) -> tuple | None:
    """The rows of one level piece inside ``plan``'s whole buckets as an
    ordinary piece of the query grid: level bucket ``b`` becomes query
    bucket ``(b - a) // m``, exact in int64.  Of a group piece, the rows
    ``sel`` (None: all of them, as views); a column the piece repeats
    stays one object, one row repeated stays a repetition."""
    _, a, m, j_lo, jf, _, _ = plan
    lb = cols[0]
    i0 = int(np.searchsorted(lb, a + j_lo * m, side="left"))
    i1 = (len(lb) if jf is None
          else int(np.searchsorted(lb, a + jf * m, side="left")))
    if i1 <= i0:
        return None
    at, memo = slice(i0, i1), {}
    out = [(lb[at] - a) // m]
    for col in cols[1:]:
        got = memo.get(id(col))
        if got is None:
            if col.ndim == 1:
                got = col[at]
            elif col.strides[0] == 0:           # one row repeated
                row = col[0, at]
                got = np.broadcast_to(
                    row, (len(col) if sel is None else len(sel), len(row)))
            else:
                got = col[:, at] if sel is None else col[sel, at]
            memo[id(col)] = got
        out.append(got)
    return tuple(out)


def _edge(lo: float, hi: float, t0: float, t1: float, full_lo: float,
          full_hi: float) -> bool:
    """Whether a chunk spanning ``[lo, hi]`` meets what rollup rows leave
    of ``[t0, t1)``: ``[t0, full_lo)`` and ``[full_hi, t1)``."""
    return ((t0 < full_lo and hi >= t0 and lo < full_lo)
            or (full_hi < t1 and hi >= full_hi and lo < t1))


def _one_bucket(lo: float, hi: float, t0: float, t1: float, full_lo: float,
                full_hi: float, step: float, anchor: float) -> int | None:
    """The bucket a chunk's summary answers outright — the chunk wholly
    inside one edge region and inside one bucket — or None."""
    b = math.floor((lo - anchor) / step)
    if (((lo >= t0 and hi < full_lo) or (lo >= full_hi and hi < t1))
            and b == math.floor((hi - anchor) / step)):
        return b
    return None


def _edge_fold(ct: np.ndarray, cv: np.ndarray, seq_base, t0: float,
               t1: float, full_lo: float, full_hi: float, step: float,
               anchor: float) -> tuple | None:
    """The decoded samples of one chunk (``cv`` one row, or ``(K, n)``
    rows over the one ``ct`` with ``seq_base`` a ``(K, 1)`` column) that
    fall in the edge regions, folded onto the query grid."""
    mask = ((ct >= t0) & (ct < full_lo)) | ((ct >= full_hi) & (ct < t1))
    if not mask.any():
        return None
    return fold_partials(ct[mask], cv[..., mask], anchor, step,
                         seq=np.flatnonzero(mask), seq_base=seq_base)


def group_partials(group: SealGroup, ranks: np.ndarray, decode, t0: float,
                   t1: float, step: float, anchor: float, plan: tuple | None,
                   ) -> tuple[list[tuple], np.ndarray]:
    """One seal group's part of a selection over a non-empty ``[t0,
    t1)``: its pieces — rollup rows first, relabelled to query buckets
    as in :func:`series_partials` — and their ``(K,)`` rank column.
    ``ranks[k]`` is row ``k``'s selection rank (-1: not selected).  The
    sources of :func:`series_partials`, for every selected row at once:
    one binary search on the group's shared bucket column and one gather
    of the selected rows (none when all are), a summary column, or one
    fold over the rows' decoded chunks on the group's time column —
    ``decode(ks)`` returns the ``(times, values)`` of rows ``ks``'
    chunks."""
    sel = (ranks >= 0).nonzero()[0]
    if len(sel) == len(ranks):
        sel = None
    comp = ranks if sel is None else ranks[sel]
    pieces: list[tuple] = []
    if not len(comp):
        return pieces, comp
    full_lo = full_hi = t1
    if plan is not None:
        full_lo, full_hi = plan[5], plan[6]
        level = group.pieces[plan[0]]
        if len(comp) == 1:      # one series: its row, as views
            rows = _level_rows(row_piece(level, int((ranks >= 0).argmax()),
                                         {}), plan, None)
        else:
            rows = _level_rows(level, plan, sel)
        if rows is not None:
            pieces.append(rows)
    lo, hi, n = group.t_min, group.t_max, group.n
    if not _edge(lo, hi, t0, t1, full_lo, full_hi):
        return pieces, comp
    ks = np.arange(len(ranks)) if sel is None else sel
    seq_base = group.seq_base[ks][:, None]
    b = _one_bucket(lo, hi, t0, t1, full_lo, full_hi, step, anchor)
    if b is not None:
        v_sum, v_min, v_max, v_last = np.array([
            (c.v_sum, c.v_min, c.v_max, c.v_last)
            for c in (group.chunks[k].summary for k in ks.tolist())]).T[
                :, :, None]
        pieces.append((np.array([b]), np.array([n]), v_sum, v_min, v_max,
                       np.array([hi]), v_last, seq_base + (n - 1)))
    else:
        piece = _edge_fold(group.times, np.stack([v for _, v in decode(ks)]),
                           seq_base, t0, t1, full_lo, full_hi, step, anchor)
        if piece is not None:
            pieces.append(piece)
    return pieces, comp


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


def head_latest(block, rows: np.ndarray, t0: float, t1: float) -> tuple:
    """``(has, t, v)``: which of ``rows`` of one head block hold an open
    sample inside ``[t0, t1)``, and for each that does the sample
    :func:`_head_gather` would give it last — the newest, and among
    equal times the last to arrive.  One vectorised step for all rows:
    in lock-step one :func:`_window` of the shared column and one
    gather, in a ragged block a masked max over ``row_times``."""
    cnt = block.counts[rows]
    if block.row_times is None:
        col, t = _window(block.times[:block.n_times], t0, t1)
        # a row's last entry of that stable time order is the last one
        # with ``col < cnt``: a search on the suffix minima of ``col``
        reach = np.minimum.accumulate(col[::-1])[::-1]
        j = reach.searchsorted(cnt) - 1
        has = j >= 0
        j = j[has]
        return has, t[j], block.values[rows[has], col[j]]
    j = np.arange(cnt.max(initial=0))
    rt = block.row_times[rows[:, None], j]
    ok = (j < cnt[:, None]) & (rt >= t0) & (rt < t1)
    has = ok.any(axis=1)
    if not np.count_nonzero(has):
        return has, np.empty(0), np.empty(0)
    rt, ok = rt[has], ok[has]
    newest = np.where(ok, rt, -math.inf).max(axis=1)
    # the last column holding the newest time: ties go to arrival order
    col = len(j) - 1 - (ok & (rt == newest[:, None]))[:, ::-1].argmax(axis=1)
    return has, rt[np.arange(len(rt)), col], block.values[rows[has], col]


def head_partials(block, rows: Sequence[int], seq_base: Sequence[int],
                  t0: float, t1: float, step: float, anchor: float,
                  ) -> tuple[tuple[np.ndarray, ...], np.ndarray | int]:
    """The open heads of ``rows`` of one head block over ``[t0, t1)`` as
    one partial-column piece, plus which of ``rows`` each row of the
    piece came from (the caller's rank column).

    One gather and one reduceat whose runs are the (row, bucket) pairs,
    so every partial is folded over exactly the samples, in exactly the
    order, a :func:`fold_partials` of that row's head alone would see.
    Rows of a lock-step block that hold the same samples come back as
    one group piece, ``(K, B)`` over the one time column; otherwise the
    runs are one-row columns.  ``seq_base[i]`` is how many samples
    ``rows[i]``'s series has sealed: head samples continue its seq
    numbers in arrival order.
    """
    seq_base = np.asarray(seq_base)
    if block.row_times is None and len(rows) > 1:
        cnt = block.counts[rows]
        if not np.count_nonzero(cnt != cnt[0]):     # one (K, n) matrix
            col, t = _window(block.times[:cnt[0]], t0, t1)
            if not len(t):
                return _empty_partials(), 0
            b = np.floor((t - anchor) / step).astype(np.int64)
            v = np.ascontiguousarray(block.values[np.asarray(rows)[:, None],
                                                  col])
            last, cols = _fold_runs(b[1:] != b[:-1], b, t, v)
            return (cols + (seq_base[:, None] + col[last],),
                    np.arange(len(rows)))
    pos, col, t, v = _head_gather(block, rows, t0, t1)
    if not len(t):
        return _empty_partials(), 0
    b = np.floor((t - anchor) / step).astype(np.int64)
    cut = b[1:] != b[:-1]
    if pos is not None:
        cut |= pos[1:] != pos[:-1]
    last, cols = _fold_runs(cut, b, t, v)
    owner = 0 if pos is None else pos[last]
    return cols + (seq_base[owner] + col[last],), owner
