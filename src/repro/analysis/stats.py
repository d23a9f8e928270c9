"""Shared robust statistics used across the analysis modules.

Telemetry from a big machine is heavy-tailed and contaminated by the
very anomalies we hunt, so location/scale estimates default to robust
forms (median / MAD) rather than mean / stddev.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "mad",
    "robust_zscores",
    "ewma",
    "rolling_mean",
    "coefficient_of_variation",
]

# scale factor making MAD a consistent sigma estimator for normal data
_MAD_TO_SIGMA = 1.4826


def _ieee_scores() -> np.errstate:
    """Context the median/MAD scores are computed under.

    Arithmetic is IEEE-754 and overflow is part of the answer: a finite
    sample whose deviation over the scale exceeds float64 range scores
    ``±inf`` — further out than any threshold, so callers must judge
    "is this a real reading" by the finiteness of the *sample*, never
    of its score.  When the spread itself overflows, the scale is
    ``inf``: every representable deviation scores 0 and an overflowed
    one scores NaN (``inf/inf``), as does everything when the median
    overflows — and no threshold comparison passes NaN.
    numpy reports those defined results as "overflow" / "invalid value"
    ``RuntimeWarning``s; this silences exactly those two flags in
    :func:`mad` and :func:`robust_zscores`, so any other floating-point
    warning out of this module is a real defect (the test suite turns
    them into errors).
    """
    return np.errstate(over="ignore", invalid="ignore")


def mad(x: np.ndarray) -> float:
    """Median absolute deviation, scaled to estimate sigma."""
    x = np.asarray(x, dtype=float)
    x = x[np.isfinite(x)]
    if len(x) == 0:
        return float("nan")
    with _ieee_scores():
        med = np.median(x)
        return float(_MAD_TO_SIGMA * np.median(np.abs(x - med)))


def robust_zscores(x: np.ndarray) -> np.ndarray:
    """Z-scores against median/MAD; zero-spread data scores 0 everywhere.

    Contaminated samples barely move the median, so one screaming
    component cannot hide itself by inflating the scale estimate — the
    failure mode plain z-scores have on small sweeps.  Non-finite
    samples are excluded from median and MAD; extreme finite ones score
    by the IEEE rules of :func:`_ieee_scores`.  Scores are scale-free,
    so a sample whose largest magnitude is below 0.5 is first lifted by
    an exact power of two: median and MAD of a subnormal spread would
    otherwise round, and ``[0, 5e-324]`` would score unlike ``[0, 1]``.
    """
    x = np.asarray(x, dtype=float)
    finite = x[np.isfinite(x)]
    if len(finite) == 0:
        return np.zeros_like(x)
    top = float(np.max(np.abs(finite)))
    if 0.0 < top < 0.5:
        lift = -int(np.frexp(top)[1])     # top * 2**lift is in [0.5, 1)
        x, finite = np.ldexp(x, lift), np.ldexp(finite, lift)
    with _ieee_scores():
        med = float(np.median(finite))
        # mad(x), reusing the median just taken
        scale = _MAD_TO_SIGMA * float(np.median(np.abs(finite - med)))
        if not np.isfinite(scale) or scale == 0.0:
            # degenerate bulk (e.g. every idle node at exactly idle
            # power): fall back to the mean absolute deviation, which a
            # single outlier CAN move — scaled to be sigma-consistent
            # for normals
            scale = 1.2533 * float(np.mean(np.abs(finite - med)))
        if scale == 0.0:
            return np.zeros_like(x)   # literally constant: nothing to flag
        return (x - med) / scale


def ewma(x: np.ndarray, alpha: float) -> np.ndarray:
    """Exponentially weighted moving average (vectorized recurrence).

    The recurrence ``o_j = alpha*x_j + w*o_{j-1}`` (``w = 1 - alpha``)
    has the closed form ``o_j = w^j * (w*acc + alpha * sum_l x_l w^-l)``
    within a block, so it reduces to a scaled ``cumsum``.  ``w^-l``
    grows without bound, so blocks are sized to keep it well inside
    float64 range and the accumulator is carried across blocks: at
    most ``w^-(block-1)`` ~1e200, and less where the largest finite
    reading times ``w^-(block-1)``, summed over the series, would pass
    ~1e300 (a reading near the float maximum folds one sample a block,
    the plain recurrence).
    """
    if not (0 < alpha <= 1):
        raise ValueError("alpha must be in (0, 1]")
    x = np.asarray(x, dtype=float)
    n = len(x)
    if n == 0:
        return np.empty_like(x)
    if alpha == 1.0:
        # still `x[i] + 0*acc` in the recurrence: 0*(nan or inf) = nan,
        # so a non-finite sample poisons every later output (and the
        # seed term poisons out[0] itself)
        out = x.copy()
        bad = np.logical_or.accumulate(~np.isfinite(x))
        prev_bad = np.concatenate(([~np.isfinite(x[0])], bad[:-1]))
        out[prev_bad] = np.nan
        return out
    w = 1.0 - alpha
    # keep w^-(block-1) below ~1e200, and every cumsum term and partial
    # sum below ~1e300 however large the readings are
    big = np.abs(x[np.isfinite(x)]).max(initial=1.0)
    room = 300.0 - np.log10(big) - np.log10(n)
    block = max(1, min(n, int(200.0 / -np.log10(w)),
                       int(room / -np.log10(w)) + 1))
    out = np.empty_like(x)
    powers = w ** np.arange(block)
    acc = x[0]
    for start in range(0, n, block):
        xb = x[start: start + block]
        m = len(xb)
        p = powers[:m]
        s = np.cumsum(xb / p)
        ob = p * (w * acc + alpha * s)
        out[start: start + m] = ob
        acc = ob[-1]
    return out


def _ewma_slow(x: np.ndarray, alpha: float) -> np.ndarray:
    """Per-sample reference for :func:`ewma`."""
    if not (0 < alpha <= 1):
        raise ValueError("alpha must be in (0, 1]")
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    acc = x[0] if len(x) else 0.0
    for i, v in enumerate(x):
        acc = alpha * v + (1 - alpha) * acc
        out[i] = acc
    return out


def rolling_mean(x: np.ndarray, window: int) -> np.ndarray:
    """Trailing rolling mean; the first ``window-1`` points use what's
    available (expanding head) rather than NaN."""
    if window < 1:
        raise ValueError("window must be >= 1")
    x = np.asarray(x, dtype=float)
    csum = np.concatenate([[0.0], np.cumsum(x)])
    idx = np.arange(len(x))
    lo = np.maximum(0, idx + 1 - window)
    return (csum[idx + 1] - csum[lo]) / (idx + 1 - lo)


def _rolling_mean_slow(x: np.ndarray, window: int) -> np.ndarray:
    """Per-sample reference for :func:`rolling_mean`."""
    if window < 1:
        raise ValueError("window must be >= 1")
    x = np.asarray(x, dtype=float)
    csum = np.concatenate([[0.0], np.cumsum(x)])
    out = np.empty_like(x)
    for i in range(len(x)):
        lo = max(0, i + 1 - window)
        out[i] = (csum[i + 1] - csum[lo]) / (i + 1 - lo)
    return out


def coefficient_of_variation(x: np.ndarray) -> float:
    """std/mean of finite values; NaN when undefined, 0 for constants."""
    x = np.asarray(x, dtype=float)
    x = x[np.isfinite(x)]
    if len(x) < 2:
        return float("nan")
    m = x.mean()
    if m == 0:
        return float("nan")
    return float(x.std(ddof=1) / abs(m))
