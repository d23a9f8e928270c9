"""Core metric datatypes shared by every layer of the monitoring stack.

The paper (Table I, *Data Sources*) requires that "the meaning of all raw
data should be provided" and that data flow at "maximum fidelity with the
lowest possible overhead".  The types here are the common currency between
data sources, transports, stores, analyses, and visualizations:

``Sample``
    a single (metric, component, time, value) observation — convenient for
    event-driven paths such as log-derived counters.

``SeriesBatch``
    a vectorized column of observations for one metric across many
    components at one synchronized collection time (the NCSA model of
    whole-system synchronized sampling), or for one component across many
    times.  Batches are numpy-backed so that transport and ingest costs
    stay proportional to ``O(len)`` array operations rather than per-sample
    Python objects.

``MetricKey``
    the identity of a series: metric name plus component id.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .tracectx import TraceContext

__all__ = [
    "MetricKey",
    "Sample",
    "SeriesBatch",
    "merge_batches",
    "samples_to_batches",
]


@dataclass(frozen=True, slots=True)
class MetricKey:
    """Identity of a time series: a metric name and the component it measures.

    ``metric`` is a dotted lowercase path (``node.power_w``,
    ``link.stall_ratio``) registered in :mod:`repro.core.registry`.
    ``component`` is the physical or logical component name in the
    machine's cname scheme (``c0-0c1s4n2`` for a node, ``c0-0`` for a
    cabinet, ``ost3`` for a storage target) or a logical id such as a job
    id (``job.1234``).
    """

    metric: str
    component: str

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"{self.metric}@{self.component}"


@dataclass(frozen=True, slots=True)
class Sample:
    """One observation of one metric on one component.

    ``time`` is seconds since the epoch of the simulation (floats so that
    sub-second collection intervals are expressible).  ``value`` is always
    a float; non-numeric observations are events, not samples (see
    :mod:`repro.core.events`).
    """

    metric: str
    component: str
    time: float
    value: float

    @property
    def key(self) -> MetricKey:
        return MetricKey(self.metric, self.component)

    def is_finite(self) -> bool:
        """True when the value is a usable number (not NaN/inf)."""
        return math.isfinite(self.value)


class SeriesBatch:
    """A vectorized batch of observations for a single metric.

    A batch carries parallel arrays ``components`` (object array of str),
    ``times`` (float64) and ``values`` (float64).  Two common layouts:

    * *synchronized sweep*: many components, one timestamp each (all equal)
      — the NCSA whole-system collection model;
    * *series chunk*: one component, many timestamps — what a store returns
      from a range query.

    The class enforces equal lengths and exposes cheap numpy views; it
    never copies unless asked (`.copy()`), following the "views not
    copies" guidance for numerical code.

    ``trace`` is an optional :class:`~repro.core.tracectx.TraceContext`
    stamped by the transports on the collection -> queryable path; it is
    delivery metadata, not data, so it never participates in filtering,
    masking, or value operations.
    """

    __slots__ = ("metric", "components", "times", "values", "trace")

    def __init__(
        self,
        metric: str,
        components: Sequence[str] | np.ndarray,
        times: Sequence[float] | np.ndarray,
        values: Sequence[float] | np.ndarray,
        trace: TraceContext | None = None,
    ) -> None:
        comp = np.asarray(components, dtype=object)
        t = np.asarray(times, dtype=np.float64)
        v = np.asarray(values, dtype=np.float64)
        if not (len(comp) == len(t) == len(v)):
            raise ValueError(
                f"batch arrays must be equal length, got "
                f"{len(comp)}/{len(t)}/{len(v)}"
            )
        self.metric = metric
        self.components = comp
        self.times = t
        self.values = v
        self.trace = trace

    def __len__(self) -> int:
        return len(self.times)

    def __iter__(self) -> Iterator[Sample]:
        for c, t, v in zip(self.components, self.times, self.values):
            yield Sample(self.metric, str(c), float(t), float(v))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SeriesBatch({self.metric!r}, n={len(self)})"

    # -- constructors ------------------------------------------------------

    @classmethod
    def sweep(
        cls,
        metric: str,
        time: float,
        components: Sequence[str],
        values: Sequence[float] | np.ndarray,
    ) -> "SeriesBatch":
        """Build a synchronized sweep: one timestamp across many components."""
        n = len(components)
        return cls(metric, components, np.full(n, float(time)), values)

    @classmethod
    def for_component(
        cls,
        metric: str,
        component: str,
        times: Sequence[float] | np.ndarray,
        values: Sequence[float] | np.ndarray,
    ) -> "SeriesBatch":
        """Build a single-component series chunk."""
        # one object scalar seen n times: a read-only zero-stride view,
        # not n pointers (built directly: ``np.broadcast_to`` is the
        # same array at four times the cost, and a tail read is this
        # call plus a few tens of microseconds)
        one = np.empty(1, dtype=object)
        one[0] = component
        times = np.asarray(times, dtype=np.float64)
        column = np.ndarray(times.shape, object, one, 0, (0,))
        column.setflags(write=False)
        return cls(metric, column, times, values)

    @classmethod
    def trusted(
        cls,
        metric: str,
        components: np.ndarray,
        times: np.ndarray,
        values: np.ndarray,
    ) -> "SeriesBatch":
        """A batch over columns its caller has just built to this class's
        contract — equal-length 1-D arrays, ``components`` of object
        dtype, ``times`` and ``values`` float64 — taken as they are: no
        conversion, no length check (a fleet read builds hundreds of
        answers per call)."""
        batch = cls.__new__(cls)
        batch.metric = metric
        batch.components = components
        batch.times = times
        batch.values = values
        batch.trace = None
        return batch

    @classmethod
    def empty(cls, metric: str) -> "SeriesBatch":
        return cls(metric, [], [], [])

    # -- operations --------------------------------------------------------

    def copy(self) -> "SeriesBatch":
        return SeriesBatch(
            self.metric,
            self.components.copy(),
            self.times.copy(),
            self.values.copy(),
            trace=self.trace,
        )

    def filter_components(self, keep: Iterable[str]) -> "SeriesBatch":
        """Batch restricted to the given component names (order preserved)."""
        keep_set = set(keep)
        mask = np.fromiter(
            (c in keep_set for c in self.components),
            dtype=bool,
            count=len(self),
        )
        return self._masked(mask)

    def in_window(self, t0: float, t1: float) -> "SeriesBatch":
        """Batch restricted to samples with ``t0 <= time < t1``."""
        mask = (self.times >= t0) & (self.times < t1)
        return self._masked(mask)

    def finite(self) -> "SeriesBatch":
        """Batch with NaN/inf values dropped."""
        return self._masked(np.isfinite(self.values))

    def _masked(self, mask: np.ndarray) -> "SeriesBatch":
        return SeriesBatch(
            self.metric,
            self.components[mask],
            self.times[mask],
            self.values[mask],
        )

    def component_values(self) -> Mapping[str, float]:
        """For a sweep batch, map component -> value (last wins on dupes)."""
        return {
            str(c): float(v) for c, v in zip(self.components, self.values)
        }

    def total(self) -> float:
        """Sum of values; NaNs are ignored (treated as missing)."""
        return float(np.nansum(self.values)) if len(self) else 0.0

    def mean(self) -> float:
        """Mean of finite values; NaN when no finite values exist."""
        finite = self.values[np.isfinite(self.values)]
        return float(finite.mean()) if len(finite) else float("nan")


def merge_batches(batches: Sequence[SeriesBatch]) -> SeriesBatch:
    """Concatenate batches of the same metric into one, sorted by time.

    Raises ``ValueError`` when batches mix metrics, since that would
    silently produce a meaningless series.
    """
    batches = [b for b in batches if len(b)]
    if not batches:
        raise ValueError("merge_batches needs at least one non-empty batch")
    metric = batches[0].metric
    for b in batches[1:]:
        if b.metric != metric:
            raise ValueError(
                f"cannot merge metrics {metric!r} and {b.metric!r}"
            )
    comp = np.concatenate([b.components for b in batches])
    times = np.concatenate([b.times for b in batches])
    values = np.concatenate([b.values for b in batches])
    order = np.argsort(times, kind="stable")
    return SeriesBatch(
        metric, comp[order], times[order], values[order],
        trace=TraceContext.merged(b.trace for b in batches),
    )


def samples_to_batches(samples: Iterable[Sample]) -> list[SeriesBatch]:
    """Group loose samples by metric into batches (transport convenience)."""
    by_metric: dict[str, list[Sample]] = {}
    for s in samples:
        by_metric.setdefault(s.metric, []).append(s)
    out = []
    for metric, group in by_metric.items():
        out.append(
            SeriesBatch(
                metric,
                [s.component for s in group],
                [s.time for s in group],
                [s.value for s in group],
            )
        )
    return out
