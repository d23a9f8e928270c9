"""Rollup pyramids: pre-materialized downsample levels per series.

The serving plane (``repro.serve``) answers dashboard-shaped
``downsample``/``aggregate_across`` queries from pre-aggregated rollup
levels instead of re-scanning raw series — the DCDB "continuous
downsampling at ingest time" pattern that keeps facility-scale query
latency flat.  Each sealed chunk is folded once per level at seal time
into per-bucket *partial columns*:

    (bucket, count, sum, min, max, t_last, v_last, seq_last)

From those columns every agg the store supports is derivable exactly:
``count``/``min``/``max`` trivially, ``sum``/``mean`` up to float
summation order (the same caveat :class:`~repro.storage.tsdb.ChunkSummary`
already carries), and ``last`` via the (t_last, seq) winner rule that
reproduces the stable time-sort of the raw path bit-for-bit.

This module is the *one place* that defines bucket-grid normalization
(:func:`bucket_anchor`) and partial-column folding/merging
(:func:`fold_partials` / :func:`reduce_partials`); the raw query path in
``storage/tsdb.py`` and the pyramid planner both build on it, which is
what makes the exactness oracle in the property suite meaningful.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

__all__ = [
    "DEFAULT_LEVELS",
    "MAX_PLANNER_TIME",
    "SeriesPyramid",
    "bucket_anchor",
    "choose_level",
    "fold_partials",
    "ieee_sums",
    "reduce_partials",
    "series_first_time",
    "series_window_partials",
]

#: raw -> 10 s -> 1 min -> 1 h, the rollup ladder from the ROADMAP;
#: coarser levels answer the same query from fewer rows
DEFAULT_LEVELS: tuple[float, ...] = (10.0, 60.0, 3600.0)

#: planner eligibility guard on |anchor| and step: below this magnitude
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


def _empty_partials() -> tuple[np.ndarray, ...]:
    z = np.empty(0, dtype=np.int64)
    f = np.empty(0, dtype=np.float64)
    return (z, z, f, f, f, f, f, z)


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
    order; when omitted the samples are taken as consecutive from
    ``seq_base`` (the sealed-chunk case).
    """
    if not len(t):
        return _empty_partials()
    buckets = np.floor((t - anchor) / step).astype(np.int64)
    cuts = np.flatnonzero(buckets[1:] != buckets[:-1]) + 1
    starts = np.concatenate(([0], cuts))
    last = np.append(starts[1:], len(t)) - 1
    seq_last = (
        seq[last].astype(np.int64) if seq is not None else seq_base + last
    )
    with ieee_sums():
        vsum = np.add.reduceat(v, starts)
    return (
        buckets[starts],
        (last + 1 - starts).astype(np.int64),
        vsum,
        np.minimum.reduceat(v, starts),
        np.maximum.reduceat(v, starts),
        t[last],
        v[last],
        seq_last,
    )


def reduce_partials(
    pieces: Sequence[tuple[np.ndarray, ...]],
    anchor: float,
    step: float,
    agg: str,
    piece_comp: Sequence[int] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Merge partial-column pieces into final ``(bucket_t, agg_v)``.

    The merge order is ``(bucket, t_last[, comp], seq)`` so the last row
    of each bucket group is the stable-time-sort winner for ``last`` —
    exactly the row the raw decompress-and-sort path would pick.
    ``piece_comp`` ranks each piece's source series for cross-component
    aggregation, reproducing the raw path's stable concat order.
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
    ends = np.append(starts[1:], len(b))
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
        out_v = v_last[ends - 1]
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
        if not len(t):
            return
        for lv in self.levels:
            self._pieces[lv].append(
                fold_partials(t, v, 0.0, lv, seq_base=seq_base)
            )
            self._merged.pop(lv, None)
        self.samples_folded += len(t)

    def level_columns(self, level: float) -> tuple[np.ndarray, ...]:
        """Merged partial columns of one level, sorted by bucket id."""
        cols = self._merged.get(level)
        if cols is None:
            cols = _merge_pieces(tuple(self._pieces[level]))
            self._merged[level] = cols
        return cols

    def rows(self, level: float) -> int:
        return len(self.level_columns(level)[0])

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
    b, cnt, vsum, vmin, vmax, t_last, v_last, seq = (
        np.concatenate([p[i] for p in pieces]) for i in range(8)
    )
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


def series_first_time(series) -> float:
    """Earliest sample time in a series (sealed spans + open head).

    Used to resolve ``t0=-inf`` aggregation windows to a concrete grid
    anchor; ``inf`` when the series is empty.
    """
    lo = min((c.summary.t_min for c in series.chunks), default=math.inf)
    return min(lo, min(series.head_t)) if series.head_t else lo


def series_window_partials(
    series,
    cache,
    level: float,
    t0: float,
    t1: float,
    step: float,
    anchor: float,
) -> list[tuple[np.ndarray, ...]] | None:
    """Partial-column pieces answering one series over ``[t0, t1)``.

    Output buckets wholly inside the window are answered from the
    pyramid ``level`` (a binary search + slice over merged rollup rows);
    the at-most-two window-partial edge buckets come from raw sub-range
    reads; open-head samples overlapping the full region merge in with
    seq numbers above every sealed sample.  Returns ``None`` when the
    window contains no full bucket — the caller falls back to the raw
    path rather than reassembling the whole answer from edges.

    Requires ``anchor == bucket_anchor(max(t0, first_sample), step)`` and
    a ``level`` accepted by :func:`choose_level`; under those guards the
    pieces reduce to *exactly* the raw-path answer (see the property
    suite's oracle).
    """
    m = int(round(step / level))
    a = int(round(anchor / level))      # anchor in level-bucket units
    j_lo = 0 if t0 <= anchor else 1     # anchor <= t0 by construction
    jf = int(np.floor((t1 - anchor) / step)) if np.isfinite(t1) else None
    full_lo = anchor + j_lo * step
    full_hi = np.inf if jf is None else anchor + jf * step
    if not full_hi > full_lo:           # no full bucket in the window
        return None
    pieces: list[tuple[np.ndarray, ...]] = []
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
    # edge buckets own their output buckets exclusively, so a raw
    # sub-range read (sealed + head, stable time-sorted) is the oracle
    if t0 < full_lo:
        et, ev = series.read(t0, full_lo, cache)
        if len(et):
            pieces.append(fold_partials(et, ev, anchor, step))
    if jf is not None and t1 > full_hi:
        et, ev = series.read(full_hi, t1, cache)
        if len(et):
            pieces.append(fold_partials(et, ev, anchor, step))
    if series.head_t:
        ht = np.asarray(series.head_t)
        hv = np.asarray(series.head_v)
        mask = (ht >= full_lo) & (ht < full_hi)
        if mask.any():
            seq = series.n_sealed_samples + np.flatnonzero(mask)
            ht, hv = ht[mask], hv[mask]
            order = np.argsort(ht, kind="stable")
            pieces.append(
                fold_partials(ht[order], hv[order], anchor, step,
                              seq=seq[order])
            )
    return pieces
