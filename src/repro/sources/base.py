"""Collector framework: periodic, synchronized sampling of the machine.

NCSA (Section II-2) "actively collects data from all major components and
subsystems ... at one minute intervals. Collection times are synchronized
across the entire system."  SNL collects network counters "periodically
(1 - 60 second intervals) and synchronously across a whole system."

A :class:`Collector` reads one telemetry surface of a
:class:`~repro.cluster.machine.Machine` and returns
:class:`~repro.core.metric.SeriesBatch`es (numeric) and/or
:class:`~repro.core.events.Event`s (discrete).  The
:class:`CollectionScheduler` fires every collector whose interval has
elapsed — all due collectors observe the *same* machine state at the
same timestamp (the synchronized-sweep property the analyses rely on) —
and publishes results onto any :class:`~repro.transport.base.Transport`
(flat bus, partitioned bus, or aggregator tree — the scheduler only
needs ``publish``).

Collectors are supervised: a raising or over-budget collector is
isolated (its error counted, the sweep continues with the remaining
collectors) and quarantined by the scheduler's
:class:`~repro.core.lifecycle.Supervisor` under deterministic backoff
with half-open probes — a broken data source can never take down
collection of everything else.
"""

from __future__ import annotations

import abc
import logging
import time as _time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING
from ..core.events import Event
from ..core.lifecycle import Supervisor
from ..core.metric import SeriesBatch
from ..core.registry import MetricRegistry
from ..core.tracectx import TraceContext
from ..obs.hist import LatencyHistogram
from ..obs.trace import Tracer

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.machine import Machine
    from ..transport.base import Transport

_log = logging.getLogger(__name__)

__all__ = ["CollectorOutput", "Collector", "CollectionScheduler"]


@dataclass(slots=True)
class CollectorOutput:
    """What one collector produced in one sweep."""

    batches: list[SeriesBatch] = field(default_factory=list)
    events: list[Event] = field(default_factory=list)

    def extend(self, other: "CollectorOutput") -> None:
        self.batches.extend(other.batches)
        self.events.extend(other.events)

    @property
    def n_samples(self) -> int:
        return sum(len(b) for b in self.batches)


class Collector(abc.ABC):
    """One data source sampled on a fixed interval."""

    #: dotted metric names this collector publishes (registry contract)
    metrics: tuple[str, ...] = ()

    def __init__(self, name: str, interval_s: float) -> None:
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        self.name = name
        self.interval_s = float(interval_s)
        self.sweeps = 0
        self.samples_produced = 0
        self.collect_wall_s = 0.0   # measured overhead (Table I concern)
        self.errors = 0
        self.last_error: BaseException | None = None

    @abc.abstractmethod
    def collect(self, machine: "Machine", now: float) -> CollectorOutput:
        """Read the machine and produce one sweep of telemetry."""

    def verify_registered(self, registry: MetricRegistry) -> None:
        """Fail fast if this collector publishes undocumented metrics."""
        for m in self.metrics:
            registry.get(m)   # raises KeyError with guidance


class CollectionScheduler:
    """Fires collectors on their intervals and publishes the results.

    Numeric batches go to topic ``metrics.<metric-name>``; events go to
    ``events.<kind>``.  Timestamps come from the scheduler (the single
    global timebase) unless a collector stamps otherwise — exactly the
    "single global timestamp" discipline Section III-B argues for.

    Every sweep is timed, traced and supervised, and every published
    batch opens a :class:`~repro.core.tracectx.TraceContext`.  A
    scheduler built without a ``tracer`` or ``supervisor`` makes its own.
    """

    def __init__(
        self,
        bus: "Transport",
        registry: MetricRegistry | None = None,
        tracer: Tracer | None = None,
        supervisor: Supervisor | None = None,
        budget_s: float | None = None,
    ) -> None:
        self.bus = bus
        self.registry = registry
        # identity check: an empty tracer is falsy (it has a length)
        self.tracer = tracer if tracer is not None else Tracer()
        #: the Supervisor quarantining misbehaving collectors
        self.supervisor = supervisor or Supervisor()
        #: wall-clock budget per sweep per collector; exceeding it is a
        #: supervised failure (the "hung collector" signature)
        self.budget_s = budget_s
        #: collector sweeps skipped while quarantined (diagnostic)
        self.quarantine_skips = 0
        #: per-collector sweep-latency histograms (self-monitoring surface)
        self.latency: dict[str, LatencyHistogram] = {}
        self._collectors: list[Collector] = []
        self._next_due: list[float] = []

    def add(self, collector: Collector, phase: float = 0.0) -> Collector:
        """Register a collector; first fire at ``phase`` seconds."""
        if self.registry is not None:
            collector.verify_registered(self.registry)
        self._collectors.append(collector)
        self._next_due.append(phase)
        self.latency[collector.name] = LatencyHistogram()
        return collector

    @property
    def collectors(self) -> list[Collector]:
        return list(self._collectors)

    def poll(self, machine: "Machine", now: float,
             tick: int = 0) -> CollectorOutput:
        """Run every due collector against the current machine state.

        ``tick`` is the pipeline's tick counter, recorded as the origin
        tick of each batch's trace context.

        A raising collector is isolated — its error is counted and
        recorded with the supervisor, but the sweep continues with the
        remaining collectors.  A quarantined collector is skipped
        entirely (its schedule still advances, so recovery does not
        trigger a catch-up burst).
        """
        total = CollectorOutput()
        tracer = self.tracer
        sup = self.supervisor
        budget = self.budget_s
        for i, c in enumerate(self._collectors):
            if now + 1e-9 < self._next_due[i]:
                continue
            # schedule strictly forward, skipping missed slots
            while self._next_due[i] <= now + 1e-9:
                self._next_due[i] += c.interval_s
            key = "collector:" + c.name
            if not sup.should_run(key, now):
                self.quarantine_skips += 1
                continue
            t0 = _time.perf_counter()
            try:
                with tracer.span("collect", collector=c.name):
                    out = c.collect(machine, now)
            except Exception as exc:
                c.errors += 1
                c.last_error = exc
                _log.warning("collector %r raised during sweep: %r",
                             c.name, exc)
                sup.record(key, False, now,
                           reason=f"raised {type(exc).__name__}")
                continue
            wall = _time.perf_counter() - t0
            c.collect_wall_s += wall
            self.latency[c.name].record(wall)
            if budget is not None and wall > budget:
                # over budget: the hung-collector signature — results
                # still count, but supervision sees a failure
                c.errors += 1
                sup.record(key, False, now,
                           reason=f"over budget ({wall:.3f}s)")
            else:
                sup.record(key, True, now)
            c.sweeps += 1
            c.samples_produced += out.n_samples
            for b in out.batches:
                b.trace = TraceContext.start(now, tick=tick)
                self.bus.publish(f"metrics.{b.metric}", b, source=c.name)
            for e in out.events:
                self.bus.publish(f"events.{e.kind.value}", e, source=c.name)
            total.extend(out)
        return total
