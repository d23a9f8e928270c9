"""Fixed-footprint latency histograms for the self-monitoring plane.

Per-collector sweep latencies feed p50/p95/max summaries on a cadence
(DCDB-style: the monitoring system's own overhead is first-class
telemetry), and the freshness plane's end-to-end and per-hop data-path
latencies feed p50/p99/max ones.  A bounded deque of recent
observations keeps memory constant over arbitrarily long runs while
still answering percentile queries over the recent window — the window
*is* the cadence the self-monitor samples on, so nothing older matters.
"""

from __future__ import annotations

from collections import deque

__all__ = ["LatencyHistogram"]


def _quantile(xs: list[float], p: float) -> float:
    """Linear-interpolated percentile of a pre-sorted list.

    Matches ``numpy.percentile``'s default method, but without the
    ~100x array-conversion overhead on the small windows kept here —
    this runs on every self-monitor cadence for every collector.
    """
    n = len(xs)
    if n == 1:
        return xs[0]
    idx = (p / 100.0) * (n - 1)
    lo = int(idx)
    hi = lo + 1 if lo + 1 < n else n - 1
    frac = idx - lo
    return xs[lo] * (1.0 - frac) + xs[hi] * frac


class LatencyHistogram:
    """Sliding window of latency observations with percentile queries."""

    __slots__ = ("_window", "count", "total_s", "max_s")

    def __init__(self, window: int = 512) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        self._window: deque[float] = deque(maxlen=int(window))
        self.count = 0          # lifetime observations
        self.total_s = 0.0      # lifetime sum
        self.max_s = 0.0        # lifetime maximum

    def record(self, seconds: float) -> None:
        s = float(seconds)
        self._window.append(s)
        self.count += 1
        self.total_s += s
        if s > self.max_s:
            self.max_s = s

    def __len__(self) -> int:
        return len(self._window)

    def percentile(self, p: float) -> float:
        """p-th percentile (0..100) over the recent window; NaN if empty."""
        if not self._window:
            return float("nan")
        return _quantile(sorted(self._window), p)

    def summary(self, tail: float = 95.0) -> dict[str, float]:
        """p50, the ``tail`` percentile (key ``p95_s`` by default) and
        max over the window, plus lifetime count and mean."""
        if self._window:
            xs = sorted(self._window)
            p50 = _quantile(xs, 50.0)
            p_tail = _quantile(xs, tail)
            w_max = xs[-1]
        else:
            p50 = p_tail = w_max = float("nan")
        return {
            "p50_s": p50,
            f"p{tail:g}_s": p_tail,
            "max_s": w_max,
            "count": float(self.count),
            "mean_s": self.total_s / self.count if self.count else float("nan"),
        }
