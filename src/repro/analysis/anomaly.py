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

Every detector but :func:`iqr_outliers` (a mask) returns one
:class:`DetectionBatch`: its hits as columns over the input batch,
which the response plane dedups and alerts on without building an
object per hit (:meth:`DetectionBatch.detections` materializes
:class:`Detection` records).  Masks and cumulative statistics are
computed over whole value arrays.  The per-sample originals are
retained as ``*_slow`` paths returning :class:`Detection` lists — the
reference implementations the hypothesis property tests hold the
kernels equivalent to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..core.metric import SeriesBatch
from ..core.soa import occurrence_passes
from .stats import ewma, mad, robust_zscores

__all__ = [
    "Detection",
    "DetectionBatch",
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


@dataclass(frozen=True, slots=True, eq=False)
class DetectionBatch:
    """One detector's hits on one input batch, as columns.

    ``components`` is the input's own component column (shared, not
    copied) and ``at`` the hit positions in it, in detection order:
    descending |z| for outliers, arrival order for every other form.
    ``times``, ``scores`` and ``values`` are the hits' columns in that
    order.  ``form`` names the hits' detail format, and ``values`` and
    ``limit`` hold what it prints:

    * ``"outlier"``: the reading (and the score, a robust z);
    * ``"rate"``: the rate, and the rate limit it exceeded;
    * ``"threshold"``: the reading, and the threshold it crossed;
    * ``"shift"``: the residual, and the control band's sigma;
    * ``"changepoint"``: the CUSUM direction, ``+1`` up and ``-1`` down.

    A rate hit is of kind ``"threshold"``; every other form is its own
    kind.
    """

    metric: str
    form: str
    components: np.ndarray
    at: np.ndarray
    times: np.ndarray
    scores: np.ndarray
    values: np.ndarray
    limit: float = float("nan")

    @classmethod
    def over(cls, batch: SeriesBatch, form: str, at: np.ndarray,
             scores: np.ndarray, values: np.ndarray,
             limit: float = float("nan")) -> "DetectionBatch":
        """The hits at positions ``at`` of ``batch``."""
        return cls(batch.metric, form, batch.components, at,
                   batch.times[at], scores, values, limit)

    @property
    def kind(self) -> str:
        """``"outlier"`` | ``"threshold"`` | ``"shift"`` | ``"changepoint"``."""
        return "threshold" if self.form == "rate" else self.form

    def __len__(self) -> int:
        return len(self.at)

    def detail(self, j: int) -> str:
        """The ``Detection.detail`` of hit ``j``."""
        v, limit, form = float(self.values[j]), self.limit, self.form
        if form == "outlier":
            return f"value={v:.4g} z={float(self.scores[j]):.1f}"
        if form == "rate":
            return f"rate {v:.4g}/s exceeds {limit:g}/s"
        if form == "threshold":
            return f"value={v:.4g} threshold={limit:g}"
        if form == "shift":
            return f"resid={v:.4g} sigma={limit:.4g}"
        return f"direction={'up' if v > 0 else 'down'}"

    def detections(self) -> list[Detection]:
        """The hits as :class:`Detection` records, in batch order."""
        return [
            Detection(time=t, metric=self.metric, component=str(c), score=s,
                      kind=self.kind, detail=self.detail(j))
            for j, (t, c, s) in enumerate(zip(
                self.times.tolist(), self.components[self.at].tolist(),
                self.scores.tolist()))
        ]


def _quiet(batch: SeriesBatch, form: str) -> DetectionBatch:
    """No hits on ``batch``."""
    return DetectionBatch.over(batch, form, np.empty(0, dtype=np.intp),
                               np.empty(0), np.empty(0))


def sweep_outliers(
    batch: SeriesBatch, z_threshold: float = 4.0
) -> DetectionBatch:
    """Components whose value in a synchronized sweep is a robust outlier.

    The workhorse for "one of 10,000 like components is misbehaving":
    hung nodes in power sweeps, one slow OST in a latency sweep, one hot
    link in a stall sweep.  The finite+threshold mask is computed over
    the whole sweep and the hits gathered into a :class:`DetectionBatch`,
    ordered by descending |z|.  Only a non-finite *sample* is exempt: an
    extreme finite reading whose score overflows to ``±inf``
    (:func:`robust_zscores`) is the outlier of the sweep.
    """
    v = batch.values
    idx = np.empty(0, dtype=np.intp)
    z = np.empty(0)
    if len(batch) >= 4:
        z = robust_zscores(v)
        az = np.abs(z)
        idx = np.flatnonzero(np.isfinite(v) & (az >= z_threshold))
        idx = idx[np.argsort(-az[idx], kind="stable")]
    return DetectionBatch.over(batch, "outlier", idx, z[idx], v[idx])


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
        if not math.isfinite(threshold):
            raise ValueError(f"threshold must be finite, got {threshold!r}")
        self.metric = metric
        self.threshold = float(threshold)
        self.above = above
        self.clear_level = threshold * clear_fraction if above else (
            threshold / clear_fraction if clear_fraction else threshold
        )
        self._firing: set[str] = set()

    def check(self, batch: SeriesBatch) -> DetectionBatch:
        """Every component of ``batch`` that starts an episode."""
        if batch.metric != self.metric:
            return _quiet(batch, "threshold")
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
            # one pass per occurrence rank.  Samples of equal rank name
            # distinct components, and a component's ranks run in
            # arrival order — all the hysteresis state needs.
            _, inv = np.unique(comps.astype(str), return_inverse=True)
            passes = occurrence_passes(inv)
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
        at = np.sort(np.concatenate(hits))
        v = v[at]
        excess = v - self.threshold if self.above else self.threshold - v
        return DetectionBatch.over(batch, "threshold", at, excess, v,
                                   self.threshold)

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


def _check_positive(name: str, x: float) -> None:
    if not 0 < x < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {x!r}")


def _check_warmup(warmup: int, least: int) -> None:
    """A warmup shorter than ``least`` leaves the sigma (and median) the
    detector scores against undefined, so it could never fire."""
    if warmup < least:
        raise ValueError(f"warmup must be >= {least}, got {warmup!r}")


class EwmaDetector:
    """Detects level shifts in one series via an EWMA control band."""

    def __init__(
        self,
        alpha: float = 0.2,
        band_sigmas: float = 4.0,
        warmup: int = 10,
    ) -> None:
        if not 0 < alpha <= 1:
            raise ValueError(f"alpha must be in (0, 1], got {alpha!r}")
        _check_positive("band_sigmas", band_sigmas)
        _check_warmup(warmup, 2)        # sigma is a MAD of differences
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
    def detect(self, batch: SeriesBatch) -> DetectionBatch:
        n = len(batch)
        if n <= self.warmup:
            return _quiet(batch, "shift")
        v = batch.values
        smooth = ewma(v, self.alpha)
        sigma = float(self._sigma(v))
        # residual of each post-warmup sample vs the smooth one step back
        resid = v[self.warmup:] - smooth[self.warmup - 1: n - 1]
        breach = np.abs(resid) > self.band_sigmas * sigma
        rising = breach.copy()
        rising[1:] &= ~breach[:-1]      # fire on not-breach -> breach edges
        j = np.flatnonzero(rising)
        return DetectionBatch.over(batch, "shift", self.warmup + j,
                                   resid[j] / sigma, resid[j], sigma)

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
        if not 0 <= k < math.inf:
            raise ValueError(f"k must be finite and >= 0, got {k!r}")
        _check_positive("h", h)
        _check_warmup(warmup, 1)        # mu is a median of the warmup
        self.k = k
        self.h = h
        self.warmup = warmup

    def _estimate(self, v: np.ndarray) -> tuple[float, float]:
        mu = float(np.median(v[: self.warmup]))
        sigma = mad(v[: self.warmup])
        if not np.isfinite(sigma) or sigma == 0:
            sigma = float(np.std(v[: self.warmup])) or 1e-12
        return mu, sigma

    def detect(self, batch: SeriesBatch) -> DetectionBatch:
        n = len(batch)
        if n <= self.warmup:
            return _quiet(batch, "changepoint")
        v = batch.values
        mu, sigma = self._estimate(v)
        nan_v = np.isnan(v)
        at: list[int] = []
        scores: list[float] = []
        ups: list[float] = []       # +1 up, -1 down
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
                at.append(gi)
                scores.append(float(max(hi[j], lo[j])))
                ups.append(1.0 if hi[j] > self.h else -1.0)
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
        return DetectionBatch.over(batch, "changepoint",
                                   np.array(at, dtype=np.intp),
                                   np.array(scores), np.array(ups))

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
