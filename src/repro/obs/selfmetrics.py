"""Meta-metrics: the stack's own vitals as ordinary telemetry.

DCDB (Netti et al.) treats the monitoring system's own overhead and
throughput as first-class monitoring data.  :class:`SelfMonitor` does
the same here: on a configurable cadence it walks :data:`VITALS` — one
table of the pipeline's vitals, grouped by the stats surface they are
read from — and publishes each as an ordinary
:class:`~repro.core.metric.SeriesBatch` on its ``selfmon.*`` topic.

Because they ride the same bus, they land in the same TSDB, dashboards,
streaming detectors, and analysis hooks as machine telemetry: the
monitoring plane is monitored by itself, with no parallel plumbing.
A row *is* its registry spec (Table I: "the meaning of all raw data
should be provided"), so the sweep, the data dictionary and
:data:`SELFMON_METRICS` cannot drift: a new self-metric is one row.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Callable

from ..core.metric import SeriesBatch
from ..core.registry import MetricClass, MetricSpec
from ..core.tracectx import TraceContext

if TYPE_CHECKING:  # pragma: no cover
    from ..pipeline import MonitoringPipeline

__all__ = ["SELFMON_METRICS", "VITALS", "SelfMonitor", "Vital",
           "completeness_ratio", "disk_stats", "ms_summary",
           "partition_surfaces", "selfmon_specs", "shard_stats",
           "streaming_detectors"]


def completeness_ratio(delivered: int, dropped: int, errors: int) -> float:
    """Data-path completeness: fraction of attempted deliveries that
    reached (or still await) a consumer.

    ``delivered`` counts successful hand-offs (callback returned, or the
    envelope was enqueued); ``dropped`` counts envelopes later evicted
    by the drop-oldest policy; ``errors`` counts callback raises.  Under
    no-drop, no-error conditions the ratio is exactly 1.0.
    """
    attempted = delivered + errors
    if attempted <= 0:
        return 1.0
    return (delivered - dropped) / attempted


@dataclass(frozen=True, slots=True)
class Vital:
    """One self-metric: its registry spec and where its value comes from.

    ``field`` maps the reading of the row's stats surface to the value
    published under ``component`` — or, for a per-component row
    (``component`` None), to the whole ``{component: value}`` dict.
    ``rate`` (single-component rows only) turns cumulative readings into
    what is published: ``rate(previous, current, elapsed_s)``, or None
    for no sample.
    """

    spec: MetricSpec
    component: str | None
    field: Callable[[Any], Any]
    rate: Callable[[Any, Any, float], float | None] | None = None


def _get(record, name: str):
    return record[name] if isinstance(record, dict) else getattr(record, name)


def _vital(name: str, unit: str, klass: MetricClass, component: str | None,
           field, meaning: str, *, rate=None, **spec) -> Vital:
    """A table row.  A string ``field`` names an attribute (or key) of
    the reading — for a per-component row, of every record of a
    ``{component: record}`` reading."""
    if isinstance(field, str):
        key = field
        if component is None:
            def field(reading):
                return {c: _get(r, key) for c, r in reading.items()}
        else:
            def field(reading):
                return _get(reading, key)
    return Vital(MetricSpec(name, unit, klass, "monitor", meaning, **spec),
                 component, field, rate)


def _per_second(prev, cur, elapsed_s: float) -> float | None:
    """Rate of a cumulative counter.  One that went backwards (the store
    was swapped or recovered under us) publishes nothing this interval:
    a gap is honest, a negative or invented rate is not."""
    return (cur - prev) / elapsed_s if cur >= prev else None


def _mean_tick_ms(prev, cur, _elapsed_s: float) -> float | None:
    """Mean wall ms per tick between two ``(count, total_s)`` readings."""
    d_count = cur[0] - prev[0]
    return 1000.0 * (cur[1] - prev[1]) / d_count if d_count > 0 else None


def ms_summary(hist) -> dict[str, float]:
    """Window percentiles of a latency histogram, in milliseconds."""
    s = hist.summary()
    return {"p50_ms": 1000.0 * s["p50_s"], "p95_ms": 1000.0 * s["p95_s"],
            "max_ms": 1000.0 * s["max_s"]}


def streaming_detectors(p) -> list:
    """Instrumented detectors on the streaming stage (duck-typed:
    custom detectors without the self-report surface are skipped)."""
    for stage in p.stages:
        if stage.name == "streaming":
            return [d for d in stage.detectors
                    if hasattr(d, "latency") and hasattr(d, "name")]
    return []


def partition_surfaces(p):
    """Per-partition surfaces of a tiered transport (duck-typed: the
    flat bus has neither, the tree reports its leaves as partitions)."""
    bus = p.bus
    if hasattr(bus, "partition_depths"):
        return {"depth": bus.partition_depths(),
                "dropped": bus.partition_drops()}
    if hasattr(bus, "leaf_depths"):
        return {"depth": bus.leaf_depths(), "dropped": {}}
    return None


def _collectors(p):
    latency = p.scheduler.latency
    return {c.name: {"sweeps": c.sweeps, **ms_summary(hist)}
            for c in p.scheduler.collectors
            if (hist := latency.get(c.name)) is not None and len(hist)}


def shard_stats(p):
    """``{shard name: StoreStats}`` of a sharded store, else None."""
    per_shard = getattr(p.tsdb, "per_shard_stats", None)
    if per_shard is None:
        return None
    return {f"shard-{i}": s for i, s in enumerate(per_shard())}


def disk_stats(p):
    """Disk-tier counters of a store that spills to disk, else None."""
    return p.tsdb.disk_stats()


def _detector_latency(p):
    return {d.name: ms_summary(d.latency)
            for d in streaming_detectors(p) if len(d.latency)}


def _supervised(p):
    sup = p.supervisor
    return sup if sup is not None and sup.components else None


def _freshness(read):
    """A reader of the freshness tracker, once it has folded a batch."""
    def read_tracker(p):
        fr = p.freshness
        return read(fr) if fr is not None and fr.batches else None
    return read_tracker


_G, _C, _R, _L = (MetricClass.GAUGE, MetricClass.COUNTER, MetricClass.RATIO,
                  MetricClass.LATENCY)

#: every metric the self-monitoring plane publishes, in sweep order, as
#: ``(read, rows)`` groups: ``read(pipeline)`` takes one reading of one
#: stats surface per sweep and feeds every row of its group; a reading
#: of None (the plane is switched off, the backend has no such surface)
#: publishes nothing.  Table I: monitoring must have documented, bounded
#: impact; these metrics are that documentation, produced live by the
#: stack itself.
VITALS: tuple[tuple[Callable[["MonitoringPipeline"], Any],
                    tuple[Vital, ...]], ...] = (
    (lambda p: p.bus.stats(), (
        _vital("selfmon.bus.publish_rate", "msg/s", _G, "bus", "published",
               "Messages published on the bus per second over the "
               "self-monitor cadence.", rate=_per_second),
        _vital("selfmon.bus.deliver_rate", "msg/s", _G, "bus", "delivered",
               "Successful consumer hand-offs per second over the "
               "self-monitor cadence.", rate=_per_second),
        _vital("selfmon.bus.drop_rate", "msg/s", _G, "bus", "dropped",
               "Envelopes evicted by the drop-oldest overflow policy "
               "per second.", rate=_per_second, higher_is_worse=True),
        _vital("selfmon.bus.dropped", "count", _C, "bus", "dropped",
               "Cumulative envelopes evicted from bounded "
               "subscription queues.", higher_is_worse=True),
        _vital("selfmon.bus.errors", "count", _C, "bus", "errors",
               "Cumulative subscriber-callback exceptions isolated "
               "during fan-out.", higher_is_worse=True),
        _vital("selfmon.bus.completeness", "ratio", _R, "bus",
               lambda s: completeness_ratio(s.delivered, s.dropped, s.errors),
               "Data-path completeness: fraction of attempted "
               "deliveries that reached (or still await) a consumer.",
               derivation="(delivered - dropped)/(delivered + errors)",
               higher_is_worse=False),
        _vital("selfmon.bus.queue_depth", "msgs", _G, None,
               lambda s: s.queue_depths,
               "Current backlog of one subscription queue "
               "(component = subscription name).",
               higher_is_worse=True),
    )),
    (partition_surfaces, (
        _vital("selfmon.bus.partition_depth", "msgs", _G, None,
               itemgetter("depth"),
               "Current backlog of one transport partition or "
               "aggregator leaf (component = partition/leaf name; "
               "absent on the flat bus).", higher_is_worse=True),
        _vital("selfmon.bus.partition_dropped", "count", _C, None,
               itemgetter("dropped"),
               "Cumulative envelopes evicted from one bounded "
               "transport partition (component = partition name).",
               higher_is_worse=True),
    )),
    (_collectors, (
        _vital("selfmon.collector.sweep_p50_ms", "ms", _L, None, "p50_ms",
               "Median wall time of one collector sweep over the "
               "recent window (component = collector name).",
               higher_is_worse=True),
        _vital("selfmon.collector.sweep_p95_ms", "ms", _L, None, "p95_ms",
               "95th-percentile wall time of one collector sweep "
               "over the recent window.", higher_is_worse=True),
        _vital("selfmon.collector.sweep_max_ms", "ms", _L, None, "max_ms",
               "Maximum wall time of one collector sweep over the "
               "recent window.", higher_is_worse=True),
        _vital("selfmon.collector.sweeps", "count", _C, None, "sweeps",
               "Cumulative sweeps a collector has run."),
    )),
    (lambda p: p.tsdb.stats(), (
        _vital("selfmon.store.tsdb_ingest_rate", "samples/s", _G, "tsdb",
               "samples",
               "Samples ingested into the TSDB per second over the "
               "self-monitor cadence.", rate=_per_second),
        _vital("selfmon.store.tsdb_points", "samples", _G, "tsdb", "samples",
               "Resident sample count in the TSDB."),
        _vital("selfmon.store.tsdb_bytes", "B", _G, "tsdb",
               "compressed_bytes",
               "Compressed footprint of the TSDB."),
    )),
    (shard_stats, (
        _vital("selfmon.store.shard_points", "samples", _G, None, "samples",
               "Resident sample count of one TSDB shard "
               "(component = shard name; absent on a single store)."),
        _vital("selfmon.store.shard_series", "count", _G, None, "series",
               "Resident series count of one TSDB shard."),
        _vital("selfmon.store.shard_bytes", "B", _G, None, "compressed_bytes",
               "Compressed footprint of one TSDB shard."),
    )),
    (lambda p: p.tsdb.cache_stats(), (
        _vital("selfmon.store.cache_hits", "count", _C, "chunk-cache", "hits",
               "Cumulative decompressed-chunk cache hits (reads "
               "served without decoding a sealed chunk)."),
        _vital("selfmon.store.cache_misses", "count", _C, "chunk-cache",
               "misses",
               "Cumulative decompressed-chunk cache misses (reads "
               "that had to decode a sealed chunk)."),
        _vital("selfmon.store.cache_evictions", "count", _C, "chunk-cache",
               "evictions",
               "Cumulative LRU evictions from the decompressed-chunk "
               "cache under its byte bound.", higher_is_worse=True),
        _vital("selfmon.store.cache_bytes", "B", _G, "chunk-cache", "bytes",
               "Resident bytes of decompressed chunks held by the "
               "cache."),
    )),
    (disk_stats, (
        _vital("selfmon.store.disk_bytes", "B", _G, "disk-tier", "disk_bytes",
               "Bytes of sealed chunks persisted in the disk tier's "
               "segment files (plus WAL tail)."),
        _vital("selfmon.store.disk_hot_bytes", "B", _G, "disk-tier",
               "hot_bytes",
               "Sealed-chunk bytes resident in memory under the "
               "hot-tier byte budget."),
        _vital("selfmon.store.disk_spill_rate", "chunks/s", _G, "disk-tier",
               "spills",
               "Sealed chunks demoted to disk-only refs per second "
               "over the self-monitor cadence.", rate=_per_second),
        _vital("selfmon.store.disk_load_rate", "chunks/s", _G, "disk-tier",
               "loads",
               "Spilled chunks read back through the mmap on the "
               "query path per second over the self-monitor "
               "cadence.", rate=_per_second, higher_is_worse=True),
        _vital("selfmon.store.disk_map_hits", "count", _C, "disk-tier",
               "map_hits",
               "Cumulative spilled-chunk reads served from an "
               "already-established mmap (no remap)."),
    )),
    (lambda p: p, (
        _vital("selfmon.store.log_events", "count", _C, "logstore",
               lambda p: len(p.logs),
               "Events resident in the indexed log store."),
        _vital("selfmon.store.sql_bytes", "B", _G, "sqlstore",
               lambda p: p.sql.footprint_bytes(),
               "Footprint of the relational store (sqlite page "
               "accounting)."),
        _vital("selfmon.sec.rule_fires", "count", _C, "sec",
               lambda p: len(p.sec.requests),
               "Cumulative action requests emitted by the SEC rule "
               "engine."),
        _vital("selfmon.sec.events_seen", "count", _C, "sec",
               lambda p: p.sec.events_seen,
               "Cumulative events fed through the SEC rule set."),
        _vital("selfmon.actions.executed", "count", _C, "actions",
               lambda p: len(p.actions.audit),
               "Cumulative action executions recorded in the audit "
               "log."),
    )),
    (lambda p: {d.name: d for d in streaming_detectors(p)}, (
        _vital("selfmon.analysis.batches", "count", _C, None,
               "batches_observed",
               "Cumulative SeriesBatches consumed by one streaming "
               "detector (component = detector name)."),
        _vital("selfmon.analysis.detections", "count", _C, None,
               "detections_total",
               "Cumulative detections emitted by one streaming "
               "detector.", higher_is_worse=True),
    )),
    (_detector_latency, (
        _vital("selfmon.analysis.sweep_p50_ms", "ms", _L, None, "p50_ms",
               "Median wall time one streaming detector spends "
               "consuming a batch (windowed histogram).",
               higher_is_worse=True),
        _vital("selfmon.analysis.sweep_p95_ms", "ms", _L, None, "p95_ms",
               "p95 wall time one streaming detector spends "
               "consuming a batch.", higher_is_worse=True),
        _vital("selfmon.analysis.sweep_max_ms", "ms", _L, None, "max_ms",
               "Worst batch-consumption wall time of one streaming "
               "detector in the histogram window.",
               higher_is_worse=True),
    )),
    (_supervised, (
        _vital("selfmon.health.state", "state", _G, None,
               lambda sup: {n: sup.components[n].health.code
                            for n in sorted(sup.components)},
               "Supervised-component health (component = supervised "
               "name): 0 = OK, 1 = DEGRADED, 2 = FAILED.",
               higher_is_worse=True),
        _vital("selfmon.health.transitions", "count", _C, "supervisor",
               lambda sup: len(sup.transitions),
               "Cumulative health-state transitions across every "
               "supervised monitoring component.",
               higher_is_worse=True),
    )),
    (lambda p: p.delivery_report(), (
        _vital("selfmon.ledger.published_points", "samples", _C, "ledger",
               "published",
               "Cumulative metric points stamped at the transport "
               "publish edge (the delivery-ledger baseline)."),
        _vital("selfmon.ledger.stored_points", "samples", _C, "ledger",
               "stored",
               "Cumulative metric points confirmed appended to the "
               "numeric store (incl. redo-buffer replays)."),
        _vital("selfmon.ledger.lost_points", "samples", _C, "ledger", "lost",
               "Cumulative metric points lost with a known cause "
               "(partition overflow, leaf overflow, chaos drop, "
               "store error, redo eviction).", higher_is_worse=True),
        _vital("selfmon.ledger.pending_points", "samples", _G, "ledger",
               "pending",
               "Points parked in failed-shard redo buffers awaiting "
               "recovery replay.", higher_is_worse=True),
        _vital("selfmon.ledger.inflight_points", "samples", _G, "ledger",
               "in_flight",
               "Points buffered inside the transport (partition "
               "queues / coalescing windows) awaiting delivery."),
        _vital("selfmon.ledger.unaccounted_points", "samples", _G, "ledger",
               "unaccounted",
               "Residual of the delivery-ledger balance identity; "
               "nonzero means silent loss.",
               derivation="published - stored - lost - pending "
                          "- in_flight",
               higher_is_worse=True),
    )),
    (_freshness(
        lambda fr: {**fr.e2e.summary(), "batches": fr.batches}), (
        _vital("selfmon.freshness.e2e_p50_s", "s", _L, "freshness", "p50_s",
               "Median collected-to-queryable latency of traced "
               "batches over the recent window.",
               higher_is_worse=True),
        _vital("selfmon.freshness.e2e_p99_s", "s", _L, "freshness", "p99_s",
               "99th-percentile collected-to-queryable latency of "
               "traced batches (the stock SLO quantity).",
               higher_is_worse=True),
        _vital("selfmon.freshness.e2e_max_s", "s", _L, "freshness", "max_s",
               "Worst collected-to-queryable latency in the recent "
               "window.", higher_is_worse=True),
        _vital("selfmon.freshness.batches", "count", _C, "freshness",
               "batches",
               "Cumulative traced batches folded into the freshness "
               "histograms at store ingest."),
    )),
    (_freshness(lambda fr: fr.hop_summaries()), (
        _vital("selfmon.freshness.hop_mean_s", "s", _L, None, "mean_s",
               "Mean latency attributed to one transport hop "
               "(component = hop id: publish/enqueue/pump/leaf/"
               "merge/root/ingest).", higher_is_worse=True),
        _vital("selfmon.freshness.hop_p99_s", "s", _L, None, "p99_s",
               "p99 latency attributed to one transport hop over "
               "the recent window.", higher_is_worse=True),
    )),
    (_freshness(
        lambda fr: {s["name"]: s for s in fr.slo_status()}), (
        _vital("selfmon.freshness.slo_burn_rate", "ratio", _G, None,
               "burn_rate",
               "Freshness-SLO error-budget burn (component = SLO "
               "name): fraction of recent batches over the latency "
               "threshold divided by the budget 1-quantile; > 1 "
               "means the SLO is being breached.",
               higher_is_worse=True),
        _vital("selfmon.freshness.slo_breaches", "count", _C, None, "breaches",
               "Cumulative edge-triggered breaches of one freshness "
               "SLO (component = SLO name).", higher_is_worse=True),
    )),
    (lambda p: {p.executor.name: p.executor.snapshot()}, (
        _vital("selfmon.exec.busy_fraction", "ratio", _G, None,
               "busy_fraction",
               "Fraction of worker capacity kept busy between tick "
               "barriers (component = execution-model name; 0 under "
               "the serial model)."),
        _vital("selfmon.exec.barrier_wait_ms", "ms", _G, None,
               "barrier_wait_ms",
               "Wall time the tick loop spent waiting at ordered "
               "barriers for straggler workers since start.",
               higher_is_worse=True),
        _vital("selfmon.exec.handoff_depth", "count", _G, None,
               "handoff_depth",
               "Peak number of tasks handed to workers at one "
               "barrier (fan-out width actually reached)."),
    )),
    (lambda p: p, (
        _vital("selfmon.trace.dropped", "count", _C, "tracer",
               lambda p: p.tracer.dropped,
               "Spans evicted from the tracer's bounded ring buffer "
               "(accounted exporter loss; silent overwrite before).",
               higher_is_worse=True),
    )),
    (lambda p: p.frontend.stats(), (
        _vital("selfmon.serve.qps", "queries/s", _G, "frontend", "queries",
               "Serving-plane query arrival rate (admitted + "
               "rejected) over the last selfmon cadence.",
               rate=_per_second),
        _vital("selfmon.serve.queries", "count", _C, "frontend", "queries",
               "Cumulative queries presented to the query front "
               "end across every tenant."),
        _vital("selfmon.serve.rejected", "count", _C, "frontend", "rejected",
               "Cumulative queries shed by tenant admission "
               "control (rate or concurrency); rejections return "
               "empty answers, never exceptions.",
               higher_is_worse=True),
        _vital("selfmon.serve.cache_hit_ratio", "ratio", _G, "result-cache",
               "cache_hit_ratio",
               "Query-result cache hits / lookups, lifetime; low "
               "values under dashboard load mean the cache is "
               "undersized or ingest is invalidating every window."),
        _vital("selfmon.serve.cache_bytes", "B", _G, "result-cache",
               lambda s: s.cache.bytes,
               "Bytes of finished answers held by the query-result "
               "cache (bounded LRU)."),
        _vital("selfmon.serve.pyramid_answers", "count", _C, "planner",
               "pyramid_answers",
               "Downsample/aggregate queries in which every "
               "contributing series read rollup rows."),
        _vital("selfmon.serve.raw_answers", "count", _C, "planner",
               "raw_answers",
               "Downsample/aggregate queries answered from chunk "
               "summaries and samples only."),
    )),
    # cumulative (count, total_s) of the tracer's root spans
    (lambda p: p.tracer.snapshot_counts().get("tick", (0, 0.0)), (
        _vital("selfmon.pipeline.tick_ms", "ms", _L, "pipeline",
               lambda counts: counts,
               "Mean wall time of one full pipeline tick over the "
               "self-monitor cadence (from the root trace span).",
               rate=_mean_tick_ms, higher_is_worse=True),
    )),
)


def selfmon_specs() -> list[MetricSpec]:
    """The registry spec of every row (what ``default_registry`` loads)."""
    return [row.spec for _read, rows in VITALS for row in rows]


SELFMON_METRICS: tuple[str, ...] = tuple(s.name for s in selfmon_specs())


class SelfMonitor:
    """Samples the pipeline's vitals on a cadence and publishes them."""

    def __init__(
        self,
        pipeline: "MonitoringPipeline",
        interval_s: float = 60.0,
        source: str = "selfmon",
    ) -> None:
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        self.pipeline = pipeline
        self.interval_s = float(interval_s)
        self.source = source
        self.emissions = 0
        self._last_t: float | None = None
        self._next_due = 0.0
        #: last cumulative reading of every ``rate`` row, by metric name
        self._prev: dict[str, Any] = {}
        # declare what this plane publishes, the way collectors do; a
        # caller's registry that disagrees on a meaning is rejected
        for spec in selfmon_specs():
            pipeline.registry.register(spec)

    # -- cadence -----------------------------------------------------------

    def maybe_emit(self, now: float) -> list[SeriesBatch]:
        """Emit one self-metric sweep when the cadence is due.

        The first call only establishes the counter baseline (rates need
        a prior sample); returns the batches published, empty when not
        due.
        """
        if self._last_t is None:
            self.sample(now, elapsed_s=1.0)
            return []
        if now + 1e-9 < self._next_due:
            return []
        batches = self.sample(now, elapsed_s=now - self._last_t)
        p = self.pipeline
        bus = p.bus
        traced = p.freshness is not None
        for b in batches:
            if traced:
                # the selfmon plane's own batches are freshness-traced
                # too — meta-metrics get the same timeliness guarantee
                b.trace = TraceContext.start(now, tick=p.ticks)
            bus.publish(b.metric, b, source=self.source)
        self.emissions += 1
        return batches

    # -- one sweep ---------------------------------------------------------

    def sample(self, now: float, elapsed_s: float) -> list[SeriesBatch]:
        """Build (without publishing) one full self-metric sweep.

        The counters read here also become the next baseline — one
        stats walk per cadence, not two.  A rate row with no previous
        reading only records one.
        """
        p = self.pipeline
        elapsed = max(float(elapsed_s), 1e-9)
        out: list[SeriesBatch] = []
        for read, rows in VITALS:
            reading = read(p)
            if reading is None:
                continue
            for row in rows:
                name = row.spec.name
                value = row.field(reading)
                if row.rate is not None:
                    prev, self._prev[name] = self._prev.get(name), value
                    value = (None if prev is None
                             else row.rate(prev, value, elapsed))
                    if value is None:
                        continue
                if row.component is not None:
                    out.append(SeriesBatch.sweep(
                        name, now, [row.component], [float(value)]))
                elif value:
                    out.append(SeriesBatch.sweep(
                        name, now, list(value),
                        [float(v) for v in value.values()]))
        self._last_t = now
        self._next_due = now + self.interval_s
        return out
