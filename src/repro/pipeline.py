"""End-to-end monitoring pipeline: the system Table I specifies.

One :class:`MonitoringPipeline` wires together every layer against a
:class:`~repro.cluster.machine.Machine`:

  sources  — collectors on synchronized intervals (counters, SEDC,
             probes, benchmarks, health, queue, power, environment)
  events   — the ERD-analog router draining machine events, decoded by
             a Deluge-style tap
  transport— any :class:`~repro.transport.base.Transport` fanning data
             to *multiple consumers* (Table I: "direct the data and
             analysis results to multiple consumers"): the flat bus,
             the partitioned bus, or the LDMS-style aggregator tree
  storage  — TSDB (single or sharded) for numeric series, log store
             for events, job index for per-job extraction, relational
             store for jobs/tests
  response — SEC rule engine + action engine with alert dedup
  analysis — hooks that run user-supplied analyses on a cadence

The tick loop itself is a sequence of :class:`~repro.stages.Stage`
objects iterated under trace spans — each plane of the data path is a
swappable unit, and every deployment knob (tick, transport tier, shards,
disk tier, quotas, ...) is read from one
:class:`~repro.sites.config.SiteConfig`;
:func:`repro.sites.build.build_site` assembles the stack the way a site
would deploy it (Table I: "Extensibility and modularity are
fundamental").
"""

from __future__ import annotations

from typing import Callable, Sequence

from .analysis.anomaly import DetectionBatch
from .cluster.machine import Machine
from .core.events import Event
from .core.ledger import BalanceReport
from .core.lifecycle import Supervisor
from .core.metric import SeriesBatch
from .core.registry import default_registry
from .core.tracectx import HOP_INGEST
from .obs.freshness import FreshnessTracker, default_slos
from .obs.introspect import PipelineIntrospector
from .obs.selfmetrics import SelfMonitor
from .obs.trace import Tracer
from .response.actions import ActionEngine, AlertManager, QueuedBatch
from .response.policy import default_sec_engine
from .response.sec import ActionRequest
from .serve.frontend import QueryFrontend
from .sites.build import build_store
from .sites.config import SiteConfig
from .sources.base import CollectionScheduler, Collector
from .sources.benchmarks import BenchmarkSuite
from .sources.counters import (
    InjectionCollector,
    NetLinkCollector,
    NodeCounterCollector,
)
from .sources.environment import EnvironmentCollector
from .sources.erd import DelugeTap, EventRouter
from .sources.fsprobes import FsProbeCollector, OstCounterCollector
from .sources.health import NodeHealthSuite
from .sources.powermon import PowerCollector
from .sources.queuestats import QueueStatsCollector
from .sources.sedc import SedcCollector
from .stages import (
    AnalysisHooksStage,
    Stage,
    StreamingStage,
    TickLoop,
    default_stages,
)
from .storage.jobstore import JobIndex
from .storage.logstore import LogStore
from .storage.sqlstore import SqlStore
from .transport.base import Transport, make_transport
from .viz.dashboard import Dashboard

__all__ = ["MonitoringPipeline", "default_collectors"]

AnalysisHook = Callable[["MonitoringPipeline", float], Sequence[DetectionBatch]]


class MonitoringPipeline:
    """The assembled end-to-end monitoring system over one machine.

    ``config`` (default ``SiteConfig()``) holds every knob: tick,
    collector budget, quotas, site name, and the transport and store
    tiers.  The pipeline builds every part from it — only the
    ``collectors`` are handed in — so the stack cannot disagree with
    ``config.capabilities()``.

    The monitor always watches itself (Table I: it must not fail
    silently, and its overhead is documented): every pipeline carries a
    supervisor, a delivery ledger, a freshness tracker, a tracer and a
    self-monitor.
    """

    def __init__(
        self,
        machine: Machine,
        config: SiteConfig | None = None,
        *,
        collectors: Sequence[Collector] = (),
    ) -> None:
        self.machine = machine
        if config is None:
            config = SiteConfig()
        self.site_config = config
        # federation identity: non-empty when this stack is one site of
        # several in a process; namespaces the selfmon publisher and the
        # merged supervisor/ledger views (per-site surfaces stay local,
        # so a site federated with others reports identically to solo)
        self.site = config.name
        self.registry = default_registry()
        self.tick_s = float(config.tick_s)
        self.executor = TickLoop()

        # transport and numeric store are the tiers the config declares
        # (by default the flat bus + single store)
        self.bus: Transport = make_transport(config.transport)
        store = build_store(config)
        self.logs = LogStore()
        self.jobs = JobIndex()
        self.sql = SqlStore()

        # supervised lifecycle + exact delivery accounting: every plane
        # reports into one Supervisor, every tracked point into one
        # DeliveryLedger (the transport's own, stamped at its publish
        # edge; the store's redo path is handed the same one)
        self.supervisor = Supervisor()
        self.ledger = self.bus.ledger

        # self-observability plane: span tracing + meta-metrics
        self.tracer = Tracer()
        self.scheduler = CollectionScheduler(
            self.bus, self.registry, tracer=self.tracer,
            supervisor=self.supervisor, budget_s=config.collector_budget_s,
        )
        for c in collectors:
            self.scheduler.add(c)

        # the simulated clock, as the freshness stamps and the serving
        # governor read it: a traced batch is stamped at every hop, so
        # it reads the sim clock's slot directly instead of going
        # through two property descriptors (Machine.now -> SimClock.now)
        self._clock = lambda c=machine.clock: c._now   # noqa: E731

        # freshness plane: collectors open a trace context per batch,
        # transports stamp their hop edges against the simulated clock,
        # _on_metric stamps the ingest hop and folds the finished journey
        self.ticks = 0
        self.freshness = FreshnessTracker(
            slos=default_slos(self.tick_s), tier=self.bus.tier
        )
        self.bus.clock = self._clock

        # serving plane: the multi-tenant read path every dashboard-shaped
        # consumer goes through (pipeline.dashboard() reads via this);
        # the governor runs on the simulated clock so quota behavior is
        # deterministic in scenarios and tests
        self.frontend = QueryFrontend(store, quotas=config.quotas,
                                      clock=self._clock)
        self._wire_store(store)

        self.router = EventRouter()
        self.tap = self.router.attach(DelugeTap())

        self.sec = default_sec_engine()
        self.alerts = AlertManager()
        self.actions = ActionEngine(machine, self.alerts)

        # the tick loop: the stages in Table I order
        self.stages: list[Stage] = default_stages()
        self._pending_requests: list[ActionRequest | QueuedBatch] = []
        # supervision component names, built lazily (hot loop: no
        # per-tick string formatting)
        self._stage_keys: dict[str, str] = {}

        # metric fan-out: one subscription stores everything numeric;
        # selfmon.* meta-metrics ride the same path into the same TSDB
        self._consumers = [
            self.bus.subscribe(
                "metrics.*", callback=self._on_metric, name="tsdb-ingest"
            ),
            self.bus.subscribe(
                "selfmon.*", callback=self._on_metric, name="selfmon-ingest"
            ),
            self.bus.subscribe(
                "events.*", callback=self._on_event, name="log-ingest"
            ),
        ]

        self.selfmon = SelfMonitor(
            self, source=f"{self.site}/selfmon" if self.site else "selfmon",
        )

    def _wire_store(self, store) -> None:
        """Install ``store`` as the numeric tier: at construction, and
        again when a crash recovery reopens it."""
        self.tsdb = store
        if hasattr(store, "redo_pending_points"):
            store.ledger = self.ledger
        self.frontend.store = store
        # a reopened store restarts query epochs at 0 — stale cache
        # entries would otherwise validate against the wrong generation
        self.frontend.result_cache.clear()

    # -- bus sinks ---------------------------------------------------------------

    def _on_metric(self, env) -> None:
        payload = env.payload
        if not isinstance(payload, SeriesBatch):
            return
        ledger = self.ledger
        tracked = ledger.tracks(env.topic)
        try:
            stored = self.tsdb.append(payload)
        except Exception as exc:
            # a raising store degrades the tick, never kills ingest of
            # later batches; the points become accounted loss
            if tracked:
                ledger.lost_batch("store-error", payload)
            self.supervisor.record(
                "store", False, self.machine.now,
                reason=f"append raised {type(exc).__name__}",
            )
            return
        if tracked:
            ledger.stored_batch(payload, stored)
            # points the store neither stored nor parked in a redo
            # buffer (single-store partial ingest) would surface here
            # as unaccounted; the sharded store defers the difference,
            # so nothing extra to stamp
        ctx = payload.trace
        if ctx is not None:
            # queryable from now on: the journey's last hop
            ctx.stamp(HOP_INGEST, self._clock())
            stack = self.tracer._stack
            self.freshness.record(payload,
                                  span=stack[-1].name if stack else "")

    def _on_event(self, env) -> None:
        payload = env.payload
        if isinstance(payload, Event):
            self.logs.append(payload)

    # -- stage access ---------------------------------------------------------------

    def stage(self, name: str) -> Stage:
        """Look up an installed stage by its span name."""
        for s in self.stages:
            if s.name == name:
                return s
        raise KeyError(
            f"no stage named {name!r}; installed: "
            f"{[s.name for s in self.stages]}"
        )

    def take_pending(self) -> list[ActionRequest | QueuedBatch]:
        """Drain the requests accumulated by earlier stages this tick."""
        out = self._pending_requests
        self._pending_requests = []
        return out

    # -- analysis hooks ---------------------------------------------------------------

    def add_analysis(self, interval_s: float, hook: AnalysisHook) -> None:
        """Run ``hook(pipeline, now)`` every ``interval_s``; the
        :class:`~repro.analysis.anomaly.DetectionBatch`\\ es it returns
        raise warning alerts under ``stat.<metric>.<kind>``."""
        stage = self.stage("analysis-hooks")
        assert isinstance(stage, AnalysisHooksStage)
        stage.add(interval_s, hook)

    def add_streaming(self, detector, pattern: str = "metrics.*"):
        """Attach a streaming analysis operator (Table I's "streaming"
        analysis location): it observes every matching batch at ingest,
        and any detections it queues drain into the response path each
        tick.  Detector names are uniquified before attaching, so the
        per-detector ``selfmon.analysis.*`` gauges stay unambiguous when
        two detectors of the same class are installed."""
        stage = self.stage("streaming")
        assert isinstance(stage, StreamingStage)
        base = getattr(detector, "name", type(detector).__name__)
        taken = {getattr(d, "name", "") for d in stage.detectors}
        name, k = base, 2
        while name in taken:
            name = f"{base}-{k}"
            k += 1
        try:
            detector.name = name
        except AttributeError:     # read-only / slotted custom detector
            pass
        detector.attach(self.bus, pattern)
        stage.detectors.append(detector)
        return detector

    # -- main loop -------------------------------------------------------------------------

    def step(self, dt: float | None = None) -> None:
        """Advance the machine one tick and run the monitoring plane
        (:meth:`~repro.stages.TickLoop.run_tick`, in the calling
        thread)."""
        self.executor.run_tick(self, self.tick_s if dt is None else dt)

    def run(
        self,
        duration_s: float | None = None,
        hours: float | None = None,
        dt: float | None = None,
    ) -> None:
        if (duration_s is None) == (hours is None):
            raise ValueError("pass exactly one of duration_s or hours")
        total = duration_s if duration_s is not None else hours * 3600.0
        end = self.machine.now + total
        while self.machine.now < end - 1e-9:
            self.step(dt)

    def shutdown(self) -> None:
        """Stop this site for good: its ingest consumers leave the bus,
        the store syncs and releases its files and the trace ring is
        emptied.  Those consumers' bound methods are the only references
        the site's parts hold back to the pipeline (the self-monitor's
        is weak), so an owner that then drops the site frees it, series
        included, at once instead of at the next full collection."""
        for sub in self._consumers:
            self.bus.unsubscribe(sub)
        self._consumers = []
        self.tsdb.close()
        self.tracer.clear()

    # -- supervision / accounting surfaces ------------------------------------------------------

    def delivery_report(self) -> BalanceReport:
        """Reconcile the ledger against live pending/in-flight gauges.

        ``pending`` is whatever is parked in the store's redo buffers,
        ``in_flight`` whatever sits in transport queues/windows — after
        ``bus.flush()`` with all shards recovered, both are zero and the
        identity collapses to ``published == stored + accounted_lost``.
        """
        pending = 0
        redo = getattr(self.tsdb, "redo_pending_points", None)
        if redo is not None:
            pending = redo()
        return self.ledger.balance(
            pending=pending, in_flight=self.bus.in_flight_points()
        )

    def health_report(self) -> dict[str, dict]:
        """Per-component supervision summary."""
        return self.supervisor.report()

    # -- convenience surfaces -------------------------------------------------------------------

    def dashboard(self) -> Dashboard:
        # viz reads go through the serving plane: cached, planned,
        # quota-accounted — and provably identical to direct store reads
        return Dashboard(self.frontend)

    def active_alerts(self):
        return self.alerts.active()

    def introspect(self) -> PipelineIntrospector:
        """Health-report view over the monitoring plane itself."""
        return PipelineIntrospector(self)


#: cadence of the node health suite (CSCS runs it between jobs, not on
#: the metric sweep)
_HEALTH_INTERVAL_S = 600.0


def default_collectors(
    machine: Machine,
    metric_interval_s: float = 60.0,
    probe_interval_s: float = 60.0,
    bench_interval_s: float = 600.0,
    seed: int = 0,
) -> list[Collector]:
    """The full collector complement the sites describe."""
    return [
        NodeCounterCollector(metric_interval_s),
        InjectionCollector(metric_interval_s),
        NetLinkCollector(metric_interval_s),
        SedcCollector(metric_interval_s),
        PowerCollector(machine, metric_interval_s),
        FsProbeCollector(probe_interval_s),
        OstCounterCollector(probe_interval_s),
        QueueStatsCollector(metric_interval_s),
        EnvironmentCollector(max(probe_interval_s, 300.0)),
        BenchmarkSuite(interval_s=bench_interval_s, seed=seed),
        NodeHealthSuite(interval_s=_HEALTH_INTERVAL_S),
    ]

