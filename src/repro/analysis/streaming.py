"""Streaming analysis: detectors that run at ingest, not over the store.

Table I (*Analysis and Visualization*): "Analysis capabilities should be
supported at variety of locations within the monitoring infrastructure
(e.g., at data sources, as streaming analysis, at the store, at points
of exposure to consumers)."  The store-side analyses live in the sibling
modules; this module provides the *streaming* location — operators that
subscribe to bus topics and evaluate every batch as it flows past,
with O(1) state per series:

* :class:`StreamingStats` — running mean/min/max/count per series
  (Welford), queryable at any moment without touching a store;
* :class:`StreamingOutlierDetector` — robust sweep-outlier detection on
  every synchronized sweep at ingest; detections are available the
  instant the sweep lands rather than at the next analysis-hook cadence;
* :class:`StreamingRateWatch` — counter-rate watchdog: flags a series
  whose derivative exceeds a limit (e.g. error counters accelerating).

All three attach to a :class:`~repro.transport.bus.MessageBus` with one
call; the two detectors queue their hits as
:class:`~repro.analysis.anomaly.DetectionBatch` columns, one per sweep,
which the pipeline drains into the response plane each tick.

The hot detectors are *columnar*: per-series state lives in a
:class:`~repro.core.soa.ComponentTable` (component -> row index plus
parallel float64 arrays) and each ``observe`` consumes the whole
:class:`~repro.core.metric.SeriesBatch` in a handful of array ops, so a
Trinity-scale 27,648-component sweep costs a few numpy kernels rather
than O(components) interpreter iterations.  The original per-sample
implementations are retained as :class:`ScalarStreamingStats` and
:class:`ScalarStreamingRateWatch` — the reference implementations the
property tests hold the columnar kernels equivalent to.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..core.metric import MetricKey, SeriesBatch
from ..core.soa import ComponentTable, row_indices
from ..obs.hist import LatencyHistogram
from .anomaly import Detection, DetectionBatch, sweep_outliers

if TYPE_CHECKING:  # pragma: no cover
    from ..transport.bus import MessageBus, Subscription

__all__ = [
    "RunningMoments",
    "StreamingStats",
    "StreamingOutlierDetector",
    "StreamingRateWatch",
    "ScalarStreamingStats",
    "ScalarStreamingRateWatch",
]


@dataclass
class RunningMoments:
    """Welford running moments for one series (O(1) memory)."""

    n: int = 0
    mean: float = 0.0
    m2: float = 0.0
    minimum: float = math.inf
    maximum: float = -math.inf

    def update(self, x: float) -> None:
        if not math.isfinite(x):
            return
        self.n += 1
        delta = x - self.mean
        self.mean += delta / self.n
        self.m2 += delta * (x - self.mean)
        self.minimum = min(self.minimum, x)
        self.maximum = max(self.maximum, x)

    @property
    def variance(self) -> float:
        return self.m2 / (self.n - 1) if self.n > 1 else 0.0

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)


class _BusAttached:
    """Shared plumbing: subscribe to a topic pattern with a callback.

    Every attached detector self-monitors: batches/samples consumed,
    detections produced, and a sweep-latency histogram around each
    ``observe`` — the raw material for the ``selfmon.analysis.*``
    gauges.
    """

    def __init__(self) -> None:
        self._sub: "Subscription | None" = None
        self.name = type(self).__name__
        self.latency = LatencyHistogram()
        self.batches_observed = 0
        self.samples_observed = 0
        self.detections_total = 0

    def attach(self, bus: "MessageBus", pattern: str = "metrics.*") -> None:
        self._sub = bus.subscribe(pattern, callback=self._on_envelope,
                                  name=self.name)

    def _on_envelope(self, env) -> None:
        payload = env.payload
        if isinstance(payload, SeriesBatch):
            t0 = time.perf_counter()
            self.observe(payload)
            self.latency.record(time.perf_counter() - t0)
            self.batches_observed += 1
            self.samples_observed += len(payload)

    def observe(self, batch: SeriesBatch) -> None:  # pragma: no cover
        raise NotImplementedError


class StreamingStats(_BusAttached):
    """Running per-series statistics maintained at ingest (columnar).

    State is one :class:`ComponentTable` per metric with parallel
    ``n / mean / m2 / minimum / maximum`` columns; a sweep with unique
    components is folded in with fancy-indexed Welford updates that are
    bit-identical to the scalar recurrence, and sweeps with repeated
    components fall back to a sort + ``reduceat`` grouped merge (Chan's
    parallel-Welford combination).
    """

    def __init__(self) -> None:
        super().__init__()
        self._tables: dict[str, ComponentTable] = {}
        self.batches_seen = 0

    def _table(self, metric: str) -> ComponentTable:
        t = self._tables.get(metric)
        if t is None:
            t = self._tables[metric] = ComponentTable(
                n=0.0, mean=0.0, m2=0.0,
                minimum=math.inf, maximum=-math.inf,
            )
        return t

    def observe(self, batch: SeriesBatch) -> None:
        self.batches_seen += 1
        if not len(batch):
            return
        tbl = self._table(batch.metric)
        # register every component first: a series whose only samples are
        # non-finite still exists (n=0), exactly as the scalar path does
        rows, unique = tbl.rows(batch.components)
        v = batch.values
        finite = np.isfinite(v)
        if not finite.all():
            rows = row_indices(rows)[finite]
            v = v[finite]
        if not len(v):
            return
        if unique:
            self._fold_unique(tbl, rows, v)
        else:
            self._fold_grouped(tbl, rows, v)

    @staticmethod
    def _fold_unique(tbl: ComponentTable, rows: slice | np.ndarray,
                     v: np.ndarray) -> None:
        mean = tbl.mean[rows]   # a view when rows is a slice: read-only here
        n1 = tbl.n[rows] + 1.0
        delta = v - mean
        mean1 = mean + delta / n1
        tbl.n[rows] = n1
        tbl.mean[rows] = mean1
        tbl.m2[rows] += delta * (v - mean1)
        tbl.minimum[rows] = np.minimum(tbl.minimum[rows], v)
        tbl.maximum[rows] = np.maximum(tbl.maximum[rows], v)

    @staticmethod
    def _fold_grouped(tbl: ComponentTable, rows: np.ndarray,
                      v: np.ndarray) -> None:
        order = np.argsort(rows, kind="stable")
        r = rows[order]
        x = v[order]
        starts = np.flatnonzero(np.r_[True, r[1:] != r[:-1]])
        counts = np.diff(np.r_[starts, len(r)])
        g = r[starts]
        cnt = counts.astype(np.float64)
        gmean = np.add.reduceat(x, starts) / cnt
        dev = x - np.repeat(gmean, counts)
        gm2 = np.add.reduceat(dev * dev, starts)
        nA = tbl.n[g]
        nAB = nA + cnt
        delta = gmean - tbl.mean[g]
        tbl.mean[g] += delta * cnt / nAB
        tbl.m2[g] += gm2 + delta * delta * nA * cnt / nAB
        tbl.n[g] = nAB
        tbl.minimum[g] = np.minimum(tbl.minimum[g],
                                    np.minimum.reduceat(x, starts))
        tbl.maximum[g] = np.maximum(tbl.maximum[g],
                                    np.maximum.reduceat(x, starts))

    def get(self, metric: str, component: str) -> RunningMoments | None:
        """Moments snapshot for one series (None if never observed)."""
        tbl = self._tables.get(metric)
        if tbl is None:
            return None
        r = tbl.row(component)
        if r is None:
            return None
        return RunningMoments(
            n=int(tbl.n[r]),
            mean=float(tbl.mean[r]),
            m2=float(tbl.m2[r]),
            minimum=float(tbl.minimum[r]),
            maximum=float(tbl.maximum[r]),
        )

    def series_count(self) -> int:
        return sum(t.size for t in self._tables.values())


class ScalarStreamingStats(_BusAttached):
    """Per-sample reference for :class:`StreamingStats` (one Python
    object per series).  Kept as the equivalence oracle and benchmark
    baseline; do not use on the hot path."""

    def __init__(self) -> None:
        super().__init__()
        self._moments: dict[MetricKey, RunningMoments] = {}
        self.batches_seen = 0

    def observe(self, batch: SeriesBatch) -> None:
        self.batches_seen += 1
        for c, v in zip(batch.components, batch.values):  # per-sample: allowed (scalar reference)
            key = MetricKey(batch.metric, str(c))
            m = self._moments.get(key)
            if m is None:
                m = self._moments[key] = RunningMoments()
            m.update(float(v))

    def get(self, metric: str, component: str) -> RunningMoments | None:
        return self._moments.get(MetricKey(metric, component))

    def series_count(self) -> int:
        return len(self._moments)


class StreamingOutlierDetector(_BusAttached):
    """Per-sweep robust outlier detection, evaluated at ingest."""

    def __init__(
        self,
        metrics: tuple[str, ...],
        z_threshold: float = 5.0,
        min_sweep: int = 8,
    ) -> None:
        super().__init__()
        self.metrics = set(metrics)
        self.z_threshold = float(z_threshold)
        self.min_sweep = int(min_sweep)
        self._batches: list[DetectionBatch] = []
        self.sweeps_checked = 0

    def observe(self, batch: SeriesBatch) -> None:
        if batch.metric not in self.metrics or len(batch) < self.min_sweep:
            return
        self.sweeps_checked += 1
        found = sweep_outliers(batch, z_threshold=self.z_threshold)
        if len(found):
            self._batches.append(found)
            self.detections_total += len(found)

    def drain(self) -> list[DetectionBatch]:
        out = self._batches
        self._batches = []
        return out


class StreamingRateWatch(_BusAttached):
    """Flags series whose rate of change exceeds a limit (columnar).

    Designed for cumulative counters (``gpu.ecc_dbe``, error tallies):
    remembers only the previous sample per series — the
    ``last_t / last_v / seen`` columns of a :class:`ComponentTable` —
    and fires when ``(v - prev_v) / (t - prev_t)`` crosses ``max_rate``.
    A sweep with unique components is one fancy-indexed gather/scatter;
    repeated components take a stable sort so within-sweep pairs chain
    exactly as scalar arrival order would.
    """

    def __init__(self, metric: str, max_rate_per_s: float) -> None:
        super().__init__()
        self.metric = metric
        self.max_rate_per_s = float(max_rate_per_s)
        self._table = ComponentTable(last_t=0.0, last_v=0.0, seen=0.0)
        self._batches: list[DetectionBatch] = []

    def observe(self, batch: SeriesBatch) -> None:
        if batch.metric != self.metric or not len(batch):
            return
        tbl = self._table
        rows, unique = tbl.rows(batch.components)
        t = batch.times
        v = batch.values
        if unique:
            # the previous samples may be views (rows a slice): every
            # read of them comes before the store of the new ones
            dt = t - tbl.last_t[rows]
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                rate = (v - tbl.last_v[rows]) / dt
            seen = tbl.seen[rows] > 0.0
            tbl.last_t[rows] = t
            tbl.last_v[rows] = v
            tbl.seen[rows] = 1.0
            idx = np.flatnonzero(seen & (dt > 0.0)
                                 & (rate > self.max_rate_per_s))
            rates = rate[idx]
        else:
            order = np.argsort(rows, kind="stable")
            r = rows[order]
            ts = t[order]
            vs = v[order]
            m = len(r)
            starts = np.flatnonzero(np.r_[True, r[1:] != r[:-1]])
            heads = r[starts]
            pt = np.empty(m)
            pv = np.empty(m)
            seen = np.ones(m, dtype=bool)
            pt[1:] = ts[:-1]
            pv[1:] = vs[:-1]
            pt[starts] = tbl.last_t[heads]
            pv[starts] = tbl.last_v[heads]
            seen[starts] = tbl.seen[heads] > 0.0
            ends = np.r_[starts[1:] - 1, m - 1]
            tbl.last_t[heads] = ts[ends]
            tbl.last_v[heads] = vs[ends]
            tbl.seen[heads] = 1.0
            dt = ts - pt
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                rate = (vs - pv) / dt
            hit = np.flatnonzero(seen & (dt > 0.0)
                                 & (rate > self.max_rate_per_s))
            idx = order[hit]
            back = np.argsort(idx, kind="stable")  # restore arrival order
            idx = idx[back]
            rates = rate[hit][back]
        if len(idx):
            mr = self.max_rate_per_s
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                scores = rates / mr
            self._batches.append(DetectionBatch.over(
                batch, "rate", idx, scores, rates, mr))
            self.detections_total += len(idx)

    def drain(self) -> list[DetectionBatch]:
        out = self._batches
        self._batches = []
        return out


class ScalarStreamingRateWatch(_BusAttached):
    """Per-sample reference for :class:`StreamingRateWatch`."""

    def __init__(self, metric: str, max_rate_per_s: float) -> None:
        super().__init__()
        self.metric = metric
        self.max_rate_per_s = float(max_rate_per_s)
        self._last: dict[str, tuple[float, float]] = {}
        self._detections: list[Detection] = []

    def observe(self, batch: SeriesBatch) -> None:
        if batch.metric != self.metric:
            return
        for c, t, v in zip(batch.components, batch.times, batch.values):  # per-sample: allowed (scalar reference)
            comp = str(c)
            prev = self._last.get(comp)
            self._last[comp] = (float(t), float(v))
            if prev is None:
                continue
            pt, pv = prev
            dt = float(t) - pt
            if dt <= 0:
                continue
            rate = (float(v) - pv) / dt
            if rate > self.max_rate_per_s:
                self.detections_total += 1
                self._detections.append(
                    Detection(
                        time=float(t),
                        metric=self.metric,
                        component=comp,
                        score=rate / self.max_rate_per_s,
                        kind="threshold",
                        detail=(
                            f"rate {rate:.4g}/s exceeds "
                            f"{self.max_rate_per_s:g}/s"
                        ),
                    )
                )

    def drain(self) -> list[Detection]:
        out = self._detections
        self._detections = []
        return out
