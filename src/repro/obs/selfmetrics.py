"""Meta-metrics: the stack's own vitals as ordinary telemetry.

DCDB (Netti et al.) treats the monitoring system's own overhead and
throughput as first-class monitoring data.  :data:`VITALS` is the one
place the stack reads its own stats surfaces: named groups, each one
surface read once and the ``selfmon.*`` rows that reading feeds.
:class:`SelfMonitor` walks it on a cadence and publishes every row as
an ordinary :class:`~repro.core.metric.SeriesBatch` on its ``selfmon.*``
topic; the health report (:mod:`repro.obs.introspect`) carries each
group's reading, as :func:`plain` data, under the group's name.

Because they ride the same bus, they land in the same TSDB, dashboards,
streaming detectors, and analysis hooks as machine telemetry: the
monitoring plane is monitored by itself, with no parallel plumbing.
A row *is* its registry spec (Table I: "the meaning of all raw data
should be provided"), so the sweep, the data dictionary, the report
and :data:`SELFMON_METRICS` cannot drift: a new self-metric is one row,
a new report section one group.
"""

from __future__ import annotations

import inspect
import weakref
from dataclasses import dataclass, fields, is_dataclass
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from ..core.metric import SeriesBatch
from ..core.registry import MetricClass, MetricSpec
from ..core.soa import name_column
from ..core.tracectx import TraceContext

if TYPE_CHECKING:  # pragma: no cover
    from ..pipeline import MonitoringPipeline

__all__ = ["SELFMON_METRICS", "VITALS", "SelfMonitor", "Vital", "plain",
           "selfmon_specs"]


@dataclass(frozen=True, slots=True)
class Vital:
    """One self-metric: its registry spec and where its value comes from.

    ``field`` maps the reading of the row's group to the value published
    under ``component`` — or, for a per-component row (``component``
    None), to the whole ``{component: value}`` dict.  It reads the raw
    reading and its :func:`plain` copy in the health report alike.
    ``rate`` (single-component rows only) turns cumulative readings into
    what is published: ``rate(previous, current, elapsed_s)``, or None
    for no sample.
    """

    spec: MetricSpec
    component: str | None
    field: Callable[[Any], Any]
    rate: Callable[[Any, Any, float], float | None] | None = None


def _get(record, key: str):
    return record[key] if isinstance(record, dict) else getattr(record, key)


def _field(path: str) -> Callable[[Any], Any]:
    """The reader of ``key``, ``outer.key`` or ``*.key`` in a reading;
    ``*`` maps ``key`` over every record of a ``{component: record}``
    reading."""
    outer, _, key = path.rpartition(".")
    # _get is inlined below: these run for every row of every sweep
    if outer == "*":
        return lambda r: {
            c: rec[key] if isinstance(rec, dict) else getattr(rec, key)
            for c, rec in r.items()}
    if outer:
        return lambda r: _get(_get(r, outer), key)
    return lambda r: r[key] if isinstance(r, dict) else getattr(r, key)


def _vital(name: str, unit: str, klass: MetricClass, component: str | None,
           field, meaning: str, *, rate=None, **spec) -> Vital:
    """A table row; a string ``field`` is a path (see :func:`_field`)."""
    if isinstance(field, str):
        field = _field(field)
    return Vital(MetricSpec(name, unit, klass, "monitor", meaning, **spec),
                 component, field, rate)


def plain(reading):
    """A group's reading as plain data — what the health report, its
    text render and ``obs --json`` carry.  A stats record becomes the
    dict of its fields and properties, recursively."""
    if isinstance(reading, dict):
        return {k: plain(v) for k, v in reading.items()}
    if is_dataclass(reading):
        names = [f.name for f in fields(reading)] + [
            n for n, _ in inspect.getmembers(
                type(reading), lambda a: isinstance(a, property))]
        return {n: plain(getattr(reading, n)) for n in names}
    return reading


def _per_second(prev, cur, elapsed_s: float) -> float | None:
    """Rate of a cumulative counter.  One that went backwards (the store
    was swapped or recovered under us) publishes nothing this interval:
    a gap is honest, a negative or invented rate is not."""
    return (cur - prev) / elapsed_s if cur >= prev else None


def _mean_tick_ms(prev, cur, _elapsed_s: float) -> float | None:
    """Mean wall ms per tick between two ``(count, total_s)`` readings."""
    d_count = cur[0] - prev[0]
    return 1000.0 * (cur[1] - prev[1]) / d_count if d_count > 0 else None


def _ms_summary(hist) -> dict[str, float]:
    """Window percentiles of a latency histogram, in milliseconds."""
    s = hist.summary()
    return {"p50_ms": 1000.0 * s["p50_s"], "p95_ms": 1000.0 * s["p95_s"],
            "max_ms": 1000.0 * s["max_s"]}


# -- the group readings: one stats surface each, read once per sweep --------


def _partitions(p):
    """Per-lane surfaces of a tiered transport: the partitioned bus's
    partitions, the tree's leaves; the flat bus has no lanes."""
    depth = p.bus.lane_depths()
    return {"depth": depth, "dropped": p.bus.lane_drops()} if depth else None


def _collectors(p):
    """Cost accounting of every collector that has swept (the
    documented-impact ask): counters plus windowed sweep latency."""
    latency = p.scheduler.latency
    return {c.name: {"sweeps": c.sweeps, "samples": c.samples_produced,
                     "wall_per_sweep_ms":
                         1000.0 * c.collect_wall_s / (c.sweeps or 1),
                     **_ms_summary(hist)}
            for c in p.scheduler.collectors
            if (hist := latency.get(c.name)) is not None and len(hist)}


def _shards(p):
    """``{shard name: StoreStats}`` of a sharded store, else None."""
    per_shard = getattr(p.tsdb, "per_shard_stats", None)
    if per_shard is None:
        return None
    return {f"shard-{i}": s for i, s in enumerate(per_shard())}


def _detectors(p) -> list:
    """Instrumented detectors on the streaming stage (duck-typed:
    custom detectors without the self-report surface are skipped)."""
    for stage in p.stages:
        if stage.name == "streaming":
            return [d for d in stage.detectors
                    if hasattr(d, "latency") and hasattr(d, "name")]
    return []


def _analysis(p):
    return {d.name: {"batches": d.batches_observed,
                     "samples": d.samples_observed,
                     "detections": d.detections_total}
            for d in _detectors(p)}


def _analysis_latency(p):
    """Batch-consumption latency of every detector that has timed one."""
    return {d.name: _ms_summary(d.latency)
            for d in _detectors(p) if len(d.latency)}


def _health(p):
    """Supervised health, once the supervisor has registered a
    component: every state code, plus the summary of each impaired one."""
    sup = p.supervisor
    comps = sup.components
    if not comps:
        return None
    state = {n: comps[n].health.code for n in sorted(comps)}
    return {"state": state, "transitions": len(sup.transitions),
            "impaired": {n: comps[n].summary()
                         for n, code in state.items() if code}}


def _freshness(read):
    """A reader of the freshness tracker, once it has folded a batch."""
    def read_tracker(p):
        return read(p.freshness) if p.freshness.batches else None
    return read_tracker


def _tick(p):
    """Cumulative count and wall seconds of the tracer's root spans."""
    count, total_s = p.tracer.snapshot_counts().get("tick", (0, 0.0))
    return {"count": count, "total_s": total_s}


_G, _C, _R, _L = (MetricClass.GAUGE, MetricClass.COUNTER, MetricClass.RATIO,
                  MetricClass.LATENCY)

#: every metric the self-monitoring plane publishes, in sweep order, as
#: ``(section, read, rows)`` groups: ``read(pipeline)`` takes one reading
#: of one stats surface per sweep and feeds every row of its group, and
#: the health report carries that reading as section ``section``; a
#: reading of None (the backend has no such surface, or the plane has no
#: data yet) publishes nothing.  Table I: monitoring must have
#: documented, bounded impact; these metrics are that documentation,
#: produced live by the stack itself.
VITALS: tuple[tuple[str, Callable[["MonitoringPipeline"], Any],
                    tuple[Vital, ...]], ...] = (
    ("bus", lambda p: p.bus.stats(), (
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
               "completeness",
               "Data-path completeness: fraction of attempted "
               "deliveries that reached (or still await) a consumer.",
               derivation="(delivered - dropped)/(delivered + errors)",
               higher_is_worse=False),
        _vital("selfmon.bus.queue_depth", "msgs", _G, None, "queue_depths",
               "Current backlog of one subscription queue "
               "(component = subscription name).",
               higher_is_worse=True),
    )),
    ("partitions", _partitions, (
        _vital("selfmon.bus.partition_depth", "msgs", _G, None, "depth",
               "Current backlog of one transport partition or "
               "aggregator leaf (component = partition/leaf name; "
               "absent on the flat bus).", higher_is_worse=True),
        _vital("selfmon.bus.partition_dropped", "count", _C, None, "dropped",
               "Cumulative envelopes evicted from one bounded "
               "transport partition or aggregator leaf (component = "
               "partition/leaf name).",
               higher_is_worse=True),
    )),
    ("collectors", _collectors, (
        _vital("selfmon.collector.sweep_p50_ms", "ms", _L, None, "*.p50_ms",
               "Median wall time of one collector sweep over the "
               "recent window (component = collector name).",
               higher_is_worse=True),
        _vital("selfmon.collector.sweep_p95_ms", "ms", _L, None, "*.p95_ms",
               "95th-percentile wall time of one collector sweep "
               "over the recent window.", higher_is_worse=True),
        _vital("selfmon.collector.sweep_max_ms", "ms", _L, None, "*.max_ms",
               "Maximum wall time of one collector sweep over the "
               "recent window.", higher_is_worse=True),
        _vital("selfmon.collector.sweeps", "count", _C, None, "*.sweeps",
               "Cumulative sweeps a collector has run."),
    )),
    ("tsdb", lambda p: p.tsdb.stats(), (
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
    ("shards", _shards, (
        _vital("selfmon.store.shard_points", "samples", _G, None,
               "*.samples",
               "Resident sample count of one TSDB shard "
               "(component = shard name; absent on a single store)."),
        _vital("selfmon.store.shard_series", "count", _G, None, "*.series",
               "Resident series count of one TSDB shard."),
        _vital("selfmon.store.shard_bytes", "B", _G, None,
               "*.compressed_bytes",
               "Compressed footprint of one TSDB shard."),
    )),
    ("chunk_cache", lambda p: p.tsdb.cache_stats(), (
        _vital("selfmon.store.cache_hits", "count", _C, "chunk-cache", "hits",
               "Cumulative decompressed-chunk cache hits (sealed chunks "
               "read without decoding: a seal group's chunk as its "
               "values beside the group's shared time column, any "
               "other as its times and values)."),
        _vital("selfmon.store.cache_misses", "count", _C, "chunk-cache",
               "misses",
               "Cumulative decompressed-chunk cache misses (reads "
               "that had to decode a sealed chunk)."),
        _vital("selfmon.store.cache_evictions", "count", _C, "chunk-cache",
               "evictions",
               "Cumulative LRU evictions from the decompressed-chunk "
               "cache under its byte bound.", higher_is_worse=True),
        _vital("selfmon.store.cache_bytes", "B", _G, "chunk-cache", "bytes",
               "Resident bytes of decoded sealed chunks held by the "
               "cache: 8 B a sample for a seal group's chunk (values "
               "only), 16 B for any other (times and values)."),
        _vital("selfmon.store.cache_entries", "count", _G, "chunk-cache",
               "entries",
               "Decoded sealed chunks resident in the cache; "
               "cache_bytes / cache_entries is the bytes a cached "
               "chunk costs."),
    )),
    # a store that spills to disk, else None
    ("disk_tier", lambda p: p.tsdb.disk_stats(), (
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
    ("stores", lambda p: {"log_events": len(p.logs),
                          "sql_bytes": p.sql.footprint_bytes()}, (
        _vital("selfmon.store.log_events", "count", _C, "logstore",
               "log_events",
               "Events resident in the indexed log store."),
        _vital("selfmon.store.sql_bytes", "B", _G, "sqlstore", "sql_bytes",
               "Footprint of the relational store (sqlite page "
               "accounting)."),
    )),
    ("response", lambda p: {"rule_fires": len(p.sec.requests),
                            "events_seen": p.sec.events_seen,
                            "actions_executed": p.actions.executed,
                            "alerts": len(p.alerts.alerts)}, (
        _vital("selfmon.sec.rule_fires", "count", _C, "sec", "rule_fires",
               "Cumulative action requests emitted by the SEC rule "
               "engine."),
        _vital("selfmon.sec.events_seen", "count", _C, "sec", "events_seen",
               "Cumulative events fed through the SEC rule set."),
        _vital("selfmon.actions.executed", "count", _C, "actions",
               "actions_executed",
               "Cumulative action executions (the audit log keeps "
               "only the newest records)."),
    )),
    ("analysis", _analysis, (
        _vital("selfmon.analysis.batches", "count", _C, None, "*.batches",
               "Cumulative SeriesBatches consumed by one streaming "
               "detector (component = detector name)."),
        _vital("selfmon.analysis.detections", "count", _C, None,
               "*.detections",
               "Cumulative detections emitted by one streaming "
               "detector.", higher_is_worse=True),
    )),
    ("analysis_latency", _analysis_latency, (
        _vital("selfmon.analysis.sweep_p50_ms", "ms", _L, None, "*.p50_ms",
               "Median wall time one streaming detector spends "
               "consuming a batch (windowed histogram).",
               higher_is_worse=True),
        _vital("selfmon.analysis.sweep_p95_ms", "ms", _L, None, "*.p95_ms",
               "p95 wall time one streaming detector spends "
               "consuming a batch.", higher_is_worse=True),
        _vital("selfmon.analysis.sweep_max_ms", "ms", _L, None, "*.max_ms",
               "Worst batch-consumption wall time of one streaming "
               "detector in the histogram window.",
               higher_is_worse=True),
    )),
    ("health", _health, (
        _vital("selfmon.health.state", "state", _G, None, "state",
               "Supervised-component health (component = supervised "
               "name): 0 = OK, 1 = DEGRADED, 2 = FAILED.",
               higher_is_worse=True),
        _vital("selfmon.health.transitions", "count", _C, "supervisor",
               "transitions",
               "Cumulative health-state transitions across every "
               "supervised monitoring component.",
               higher_is_worse=True),
    )),
    ("ledger", lambda p: p.delivery_report(), (
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
    ("freshness", _freshness(
        lambda fr: {**fr.e2e.summary(99.0), "batches": fr.batches,
                    "exact": fr.waterfall_exact()}), (
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
    ("freshness_hops", _freshness(lambda fr: fr.hop_summaries()), (
        _vital("selfmon.freshness.hop_mean_s", "s", _L, None, "*.mean_s",
               "Mean latency attributed to one transport hop "
               "(component = hop id: publish/enqueue/pump/leaf/"
               "merge/root/ingest).", higher_is_worse=True),
        _vital("selfmon.freshness.hop_p99_s", "s", _L, None, "*.p99_s",
               "p99 latency attributed to one transport hop over "
               "the recent window.", higher_is_worse=True),
    )),
    ("freshness_slos", _freshness(
        lambda fr: {s["name"]: s for s in fr.slo_status()}), (
        _vital("selfmon.freshness.slo_burn_rate", "ratio", _G, None,
               "*.burn_rate",
               "Freshness-SLO error-budget burn (component = SLO "
               "name): fraction of recent batches over the latency "
               "threshold divided by the budget 1-quantile; > 1 "
               "means the SLO is being breached.",
               higher_is_worse=True),
        _vital("selfmon.freshness.slo_breaches", "count", _C, None,
               "*.breaches",
               "Cumulative edge-triggered breaches of one freshness "
               "SLO (component = SLO name).", higher_is_worse=True),
    )),
    ("trace", lambda p: {"dropped": p.tracer.dropped}, (
        _vital("selfmon.trace.dropped", "count", _C, "tracer", "dropped",
               "Spans evicted from the tracer's bounded ring buffer "
               "(accounted exporter loss; silent overwrite before).",
               higher_is_worse=True),
    )),
    ("serve", lambda p: p.frontend.stats(), (
        _vital("selfmon.serve.qps", "queries/s", _G, "frontend", "queries",
               "Serving-plane query arrival rate (admitted + "
               "rejected) over the last selfmon cadence.",
               rate=_per_second),
        _vital("selfmon.serve.queries", "count", _C, "frontend", "queries",
               "Cumulative queries presented to the query front "
               "end across every tenant."),
        _vital("selfmon.serve.rejected", "count", _C, "frontend", "rejected",
               "Cumulative queries shed by tenant admission "
               "control (token-bucket rate); rejections return "
               "empty answers, never exceptions.",
               higher_is_worse=True),
        _vital("selfmon.serve.cache_hit_ratio", "ratio", _G, "result-cache",
               "cache_hit_ratio",
               "Query-result cache hits / lookups, lifetime; low "
               "values under dashboard load mean the cache is "
               "undersized or ingest is invalidating every window."),
        _vital("selfmon.serve.cache_bytes", "B", _G, "result-cache",
               "cache.bytes",
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
    ("tick", _tick, (
        _vital("selfmon.pipeline.tick_ms", "ms", _L, "pipeline",
               lambda t: (t["count"], t["total_s"]),
               "Mean wall time of one full pipeline tick over the "
               "self-monitor cadence (from the root trace span).",
               rate=_mean_tick_ms, higher_is_worse=True),
    )),
)


def selfmon_specs() -> list[MetricSpec]:
    """The registry spec of every row (what ``default_registry`` loads)."""
    return [row.spec for _section, _read, rows in VITALS for row in rows]


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
        # weakly: a part that held its pipeline would keep a dropped
        # site alive until the next full collection
        self._pipeline = weakref.ref(pipeline)
        self.interval_s = float(interval_s)
        self.source = source
        self.emissions = 0
        self._last_t: float | None = None
        self._next_due = 0.0
        #: last cumulative reading of every ``rate`` row, by metric name
        self._prev: dict[str, Any] = {}
        #: metric name -> (its components, their read-only name column):
        #: a row publishes one column until its components change, so
        #: every identity memo downstream hits; one entry per row at most
        self._columns: dict[str, tuple[tuple, np.ndarray]] = {}

    @property
    def pipeline(self) -> "MonitoringPipeline":
        return self._pipeline()

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
        for b in batches:
            # the selfmon plane's own batches are freshness-traced too —
            # meta-metrics get the same timeliness guarantee
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
        for _section, read, rows in VITALS:
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
                        name, now, self._column(name, (row.component,)),
                        [float(value)]))
                elif value:
                    out.append(SeriesBatch.sweep(
                        name, now, self._column(name, tuple(value)),
                        [float(v) for v in value.values()]))
        self._last_t = now
        self._next_due = now + self.interval_s
        return out

    def _column(self, name: str, components: tuple) -> np.ndarray:
        """Row ``name``'s name column, rebuilt only when its components
        change (a collector, shard or subscription added)."""
        held = self._columns.get(name)
        if held is None or held[0] != components:
            held = self._columns[name] = (components,
                                          name_column(components))
        return held[1]
