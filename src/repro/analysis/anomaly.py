"""Anomaly detectors over sweeps and series.

Section III-B: "Sites have long been interested in early detection ...
based on trend and outlier analysis."  Detectors here come in two
shapes:

* **sweep detectors** — given one synchronized sweep (one metric across
  many components at one instant), flag the outlying components
  (:func:`sweep_outliers`, :class:`ThresholdDetector`);
* **series detectors** — given one component's history, flag the times
  where behaviour changed (:class:`EwmaDetector`,
  :class:`CusumDetector`, :func:`iqr_outliers`).

All detectors return :class:`Detection` records so the response layer
can treat them uniformly.

Every detector is columnar: masks and cumulative statistics are
computed over whole value arrays and :class:`Detection` objects are
materialized only for ``np.flatnonzero`` hit indices.  The per-sample
originals are retained as ``*_slow`` paths — the reference
implementations the hypothesis property tests hold the kernels
equivalent to.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.metric import SeriesBatch
from .stats import ewma, mad, robust_zscores

__all__ = [
    "Detection",
    "sweep_outliers",
    "ThresholdDetector",
    "iqr_outliers",
    "EwmaDetector",
    "CusumDetector",
]


@dataclass(frozen=True, slots=True)
class Detection:
    """One detector firing."""

    time: float
    metric: str
    component: str
    score: float          # detector-specific magnitude (z, excess, ...)
    kind: str             # "outlier" | "threshold" | "shift" | "changepoint"
    detail: str = ""


def sweep_outliers(
    batch: SeriesBatch, z_threshold: float = 4.0
) -> list[Detection]:
    """Components whose value in a synchronized sweep is a robust outlier.

    The workhorse for "one of 10,000 like components is misbehaving":
    hung nodes in power sweeps, one slow OST in a latency sweep, one hot
    link in a stall sweep.  The finite+threshold mask is computed over
    the whole sweep first; ``Detection`` objects exist only for the
    (rare) hits, already ordered by descending |z|.  Only a non-finite
    *sample* is exempt: an extreme finite reading whose score overflows
    to ``±inf`` (:func:`robust_zscores`) is the outlier of the sweep.
    """
    if len(batch) < 4:
        return []
    v = batch.values
    z = robust_zscores(v)
    az = np.abs(z)
    idx = np.flatnonzero(np.isfinite(v) & (az >= z_threshold))
    if not len(idx):
        return []
    idx = idx[np.argsort(-az[idx], kind="stable")]
    metric = batch.metric
    # one gather per column, then plain Python floats and strs per hit
    return [
        Detection(
            time=ti,
            metric=metric,
            component=str(ci),
            score=zi,
            kind="outlier",
            detail=f"value={vi:.4g} z={zi:.1f}",
        )
        for ti, ci, vi, zi in zip(batch.times[idx].tolist(),
                                  batch.components[idx].tolist(),
                                  v[idx].tolist(), z[idx].tolist())
    ]


def _sweep_outliers_slow(
    batch: SeriesBatch, z_threshold: float = 4.0
) -> list[Detection]:
    """Per-sample reference for :func:`sweep_outliers`."""
    if len(batch) < 4:
        return []
    z = robust_zscores(batch.values)
    out = []
    for c, t, v, zi in zip(batch.components, batch.times, batch.values, z):  # per-sample: allowed
        if np.isfinite(v) and abs(zi) >= z_threshold:
            out.append(
                Detection(
                    time=float(t),
                    metric=batch.metric,
                    component=str(c),
                    score=float(zi),
                    kind="outlier",
                    detail=f"value={v:.4g} z={zi:.1f}",
                )
            )
    out.sort(key=lambda d: -abs(d.score))
    return out


class ThresholdDetector:
    """Fixed-threshold detector with hysteresis (alert once per episode)."""

    def __init__(
        self,
        metric: str,
        threshold: float,
        above: bool = True,
        clear_fraction: float = 0.9,
    ) -> None:
        self.metric = metric
        self.threshold = float(threshold)
        self.above = above
        self.clear_level = threshold * clear_fraction if above else (
            threshold / clear_fraction if clear_fraction else threshold
        )
        self._firing: set[str] = set()

    def check(self, batch: SeriesBatch) -> list[Detection]:
        if batch.metric != self.metric:
            return []
        comps = batch.components
        clist = comps.tolist()
        n = len(clist)
        v = batch.values
        if self.above:
            breached = v > self.threshold
            cleared = v < self.clear_level
        else:
            breached = v < self.threshold
            cleared = v > self.clear_level
        if len(set(clist)) == n:
            passes = [np.arange(n)]
        else:
            # repeated components interleave breach/clear per sample:
            # rank each sample by its occurrence index within its
            # component and run one pass per rank.  Samples of equal
            # rank name distinct components, and a component's ranks
            # run in arrival order — all the hysteresis state needs.
            _, inv, counts = np.unique(comps.astype(str), return_inverse=True,
                                       return_counts=True)
            order = np.argsort(inv, kind="stable")
            rank = np.empty(n, dtype=np.int64)
            rank[order] = np.arange(n) - np.repeat(
                np.cumsum(counts) - counts, counts)
            passes = [np.flatnonzero(rank == r)
                      for r in range(int(counts.max()))]
        firing = self._firing
        hits = []
        for idx in passes:
            if firing:
                f0 = np.fromiter((c in firing for c in comps[idx].tolist()),
                                 dtype=bool, count=len(idx))
            else:
                f0 = np.zeros(len(idx), dtype=bool)
            new = idx[breached[idx] & ~f0]
            hits.append(new)
            firing.update(map(str, comps[new].tolist()))
            # scalar elif semantics: a comp already firing is discarded
            # whenever it clears, breached or not (the elif is only
            # skipped when the comp was *added* by this very sample)
            firing.difference_update(
                map(str, comps[idx[f0 & cleared[idx]]].tolist()))
        t = batch.times
        return [
            Detection(
                time=float(t[i]),
                metric=self.metric,
                component=str(comps[i]),
                score=float(v[i] - self.threshold)
                if self.above
                else float(self.threshold - v[i]),
                kind="threshold",
                detail=f"value={v[i]:.4g} threshold={self.threshold:g}",
            )
            for i in np.sort(np.concatenate(hits)).tolist()
        ]

    def _check_slow(self, batch: SeriesBatch) -> list[Detection]:
        """Per-sample reference for :meth:`check`."""
        out = []
        for c, t, v in zip(batch.components, batch.times, batch.values):  # per-sample: allowed
            comp = str(c)
            breached = v > self.threshold if self.above else v < self.threshold
            cleared = v < self.clear_level if self.above else v > self.clear_level
            if breached and comp not in self._firing:
                self._firing.add(comp)
                out.append(
                    Detection(
                        time=float(t),
                        metric=self.metric,
                        component=comp,
                        score=float(v - self.threshold)
                        if self.above
                        else float(self.threshold - v),
                        kind="threshold",
                        detail=f"value={v:.4g} threshold={self.threshold:g}",
                    )
                )
            elif cleared and comp in self._firing:
                self._firing.discard(comp)
        return out


def iqr_outliers(values: np.ndarray, k: float = 1.5) -> np.ndarray:
    """Boolean mask of Tukey-fence outliers in a 1-D array."""
    v = np.asarray(values, dtype=float)
    finite = v[np.isfinite(v)]
    if len(finite) < 4:
        return np.zeros(len(v), dtype=bool)
    q1, q3 = np.percentile(finite, [25, 75])
    iqr = q3 - q1
    lo, hi = q1 - k * iqr, q3 + k * iqr
    return (v < lo) | (v > hi)


class EwmaDetector:
    """Detects level shifts in one series via an EWMA control band."""

    def __init__(
        self,
        alpha: float = 0.2,
        band_sigmas: float = 4.0,
        warmup: int = 10,
    ) -> None:
        self.alpha = alpha
        self.band_sigmas = band_sigmas
        self.warmup = warmup

    def _sigma(self, v: np.ndarray) -> float:
        return mad(np.diff(v[: self.warmup])) or float(
            np.std(v[: self.warmup]) or 1e-12
        )

    # a non-finite sample turns the smooth, sigma and residual it
    # touches into NaN, which never breaches: defined, so not warned
    @np.errstate(invalid="ignore")
    def detect(self, batch: SeriesBatch) -> list[Detection]:
        n = len(batch)
        if n <= self.warmup:
            return []
        v = batch.values
        smooth = ewma(v, self.alpha)
        sigma = self._sigma(v)
        # residual of each post-warmup sample vs the smooth one step back
        # (warmup=0 wraps to smooth[-1], matching the scalar reference's
        # Python negative-index semantics)
        if self.warmup == 0:
            prev = np.r_[smooth[-1], smooth[:-1]]
        else:
            prev = smooth[self.warmup - 1: n - 1]
        resid = v[self.warmup:] - prev
        breach = np.abs(resid) > self.band_sigmas * sigma
        rising = breach.copy()
        rising[1:] &= ~breach[:-1]      # fire on not-breach -> breach edges
        out = []
        for j in np.flatnonzero(rising).tolist():
            i = self.warmup + j
            out.append(
                Detection(
                    time=float(batch.times[i]),
                    metric=batch.metric,
                    component=str(batch.components[i]),
                    score=float(resid[j] / sigma),
                    kind="shift",
                    detail=f"resid={resid[j]:.4g} sigma={sigma:.4g}",
                )
            )
        return out

    @np.errstate(invalid="ignore")
    def _detect_slow(self, batch: SeriesBatch) -> list[Detection]:
        """Per-sample reference for :meth:`detect`."""
        n = len(batch)
        if n <= self.warmup:
            return []
        v = batch.values
        smooth = ewma(v, self.alpha)
        sigma = self._sigma(v)
        out = []
        firing = False
        for i in range(self.warmup, n):
            resid = v[i] - smooth[i - 1]
            breach = abs(resid) > self.band_sigmas * sigma
            if breach and not firing:
                out.append(
                    Detection(
                        time=float(batch.times[i]),
                        metric=batch.metric,
                        component=str(batch.components[i]),
                        score=float(resid / sigma),
                        kind="shift",
                        detail=f"resid={resid:.4g} sigma={sigma:.4g}",
                    )
                )
            firing = breach
        return out


class CusumDetector:
    """Two-sided CUSUM changepoint detector on one series.

    Flags sustained mean shifts (benchmark-FOM degradation onsets in
    Figure 2) rather than single spikes; ``k`` is the slack and ``h``
    the decision threshold, both in units of the series' robust sigma.

    The clamped recurrence ``s = max(0, s + z - k)`` is a reflected
    random walk, so over any segment it equals
    ``max(s0 + c_j, c_j - min_{l<=j} c_l)`` where ``c`` is the running
    sum of ``z - k`` — one ``cumsum`` plus one ``minimum.accumulate``
    per side instead of a Python loop.  Segments restart after each
    detection (``mu`` is re-estimated) and at every NaN sample (the
    scalar ``max(0.0, nan)`` collapses to 0.0, i.e. a reset).
    """

    # block size bounds the rescan cost after each detection/NaN restart
    _BLOCK = 4096

    def __init__(self, k: float = 0.5, h: float = 5.0, warmup: int = 10) -> None:
        self.k = k
        self.h = h
        self.warmup = warmup

    def _estimate(self, v: np.ndarray) -> tuple[float, float]:
        mu = float(np.median(v[: self.warmup]))
        sigma = mad(v[: self.warmup])
        if not np.isfinite(sigma) or sigma == 0:
            sigma = float(np.std(v[: self.warmup])) or 1e-12
        return mu, sigma

    def detect(self, batch: SeriesBatch) -> list[Detection]:
        n = len(batch)
        if n <= self.warmup:
            return []
        v = batch.values
        mu, sigma = self._estimate(v)
        nan_v = np.isnan(v)
        out: list[Detection] = []
        s_hi = s_lo = 0.0
        i = self.warmup
        while i < n:
            if not (np.isfinite(mu) and np.isfinite(sigma)):
                break               # z stays NaN forever: nothing can fire
            if nan_v[i]:
                s_hi = s_lo = 0.0
                i += 1
                continue
            block = v[i: i + self._BLOCK]
            with np.errstate(invalid="ignore"):
                z = np.clip((block - mu) / sigma, -4.0, 4.0)
            nan_rel = np.flatnonzero(np.isnan(z))
            limit = int(nan_rel[0]) if len(nan_rel) else len(z)
            seg = z[:limit]
            c = np.cumsum(seg - self.k)
            hi = np.maximum(s_hi + c, c - np.minimum.accumulate(c))
            c = np.cumsum(-seg - self.k)
            lo = np.maximum(s_lo + c, c - np.minimum.accumulate(c))
            trip = np.flatnonzero((hi > self.h) | (lo > self.h))
            if len(trip):
                j = int(trip[0])
                gi = i + j
                direction = "up" if hi[j] > self.h else "down"
                out.append(
                    Detection(
                        time=float(batch.times[gi]),
                        metric=batch.metric,
                        component=str(batch.components[gi]),
                        score=float(max(hi[j], lo[j])),
                        kind="changepoint",
                        detail=f"direction={direction}",
                    )
                )
                s_hi = s_lo = 0.0   # restart after signalling
                mu = float(np.median(v[max(0, gi - self.warmup): gi + 1]))
                i = gi + 1
                continue
            s_hi = float(hi[-1])
            s_lo = float(lo[-1])
            if limit < len(z):      # NaN inside the block: reset there
                s_hi = s_lo = 0.0
                i += limit + 1
            else:
                i += len(z)
        return out

    def _detect_slow(self, batch: SeriesBatch) -> list[Detection]:
        """Per-sample reference for :meth:`detect`."""
        n = len(batch)
        if n <= self.warmup:
            return []
        v = batch.values
        mu, sigma = self._estimate(v)
        s_hi = 0.0
        s_lo = 0.0
        out = []
        for i in range(self.warmup, n):
            # winsorize so one wild sample cannot trip the statistic on
            # its own; only *sustained* shifts accumulate past h
            z = float(np.clip((v[i] - mu) / sigma, -4.0, 4.0))
            s_hi = max(0.0, s_hi + z - self.k)
            s_lo = max(0.0, s_lo - z - self.k)
            if s_hi > self.h or s_lo > self.h:
                direction = "up" if s_hi > self.h else "down"
                out.append(
                    Detection(
                        time=float(batch.times[i]),
                        metric=batch.metric,
                        component=str(batch.components[i]),
                        score=float(max(s_hi, s_lo)),
                        kind="changepoint",
                        detail=f"direction={direction}",
                    )
                )
                s_hi = s_lo = 0.0   # restart after signalling
                mu = float(np.median(v[max(0, i - self.warmup): i + 1]))
        return out
