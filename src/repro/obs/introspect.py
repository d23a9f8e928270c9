"""Pipeline introspection: one structured health report over the stack.

The paper's Table I asks that operators be able to see *data-path
completeness* end to end and that monitoring overhead be documented.
:class:`PipelineIntrospector` assembles both into a single
:class:`HealthReport`: per-stage span timings (from the tracer), bus
drop/backpressure status with per-subscription queue depths, the
slowest recent spans, per-collector latency summaries, store sizes, and
the completeness ratio — rendered by ``python -m repro obs``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING

from .selfmetrics import (
    completeness_ratio,
    disk_stats,
    ms_summary,
    partition_surfaces,
    shard_stats,
    streaming_detectors,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..pipeline import MonitoringPipeline

__all__ = ["StageReport", "HealthReport", "PipelineIntrospector"]


def _floats(record, *names: str) -> dict[str, float]:
    """The named counters of a stats record (every dataclass field when
    none are named), as the floats the report carries."""
    names = names or tuple(f.name for f in fields(record))
    return {n: float(getattr(record, n)) for n in names}


@dataclass(frozen=True, slots=True)
class StageReport:
    """Wall-time accounting for one pipeline stage."""

    name: str
    calls: int
    total_s: float
    mean_ms: float
    max_ms: float


@dataclass(frozen=True, slots=True)
class HealthReport:
    """Structured end-to-end health of the monitoring plane itself."""

    ticks: int
    stages: tuple[StageReport, ...]
    completeness: float
    bus: dict[str, int]
    queue_depths: dict[str, int] = field(default_factory=dict)
    slowest_spans: tuple[tuple[str, float, str], ...] = ()
    collectors: dict[str, dict[str, float]] = field(default_factory=dict)
    stores: dict[str, float] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    #: per-partition (or per-leaf) backlog when the transport is tiered
    partitions: dict[str, int] = field(default_factory=dict)
    #: per-shard store counters when the TSDB is sharded
    shards: dict[str, dict[str, float]] = field(default_factory=dict)
    #: decompressed-chunk cache counters when the store carries a cache
    chunk_cache: dict[str, float] = field(default_factory=dict)
    #: out-of-core disk-tier counters when the store spills to disk
    disk: dict[str, float] = field(default_factory=dict)
    #: per-detector streaming-analysis counters (batches, detections,
    #: sweep-latency percentiles) when streaming detectors are installed
    analysis: dict[str, dict[str, float]] = field(default_factory=dict)
    #: per-component supervised health
    health: dict[str, dict] = field(default_factory=dict)
    #: delivery-ledger reconciliation
    ledger: dict[str, float] = field(default_factory=dict)
    #: freshness-tracker snapshot (hop waterfall, SLO burn) once a
    #: traced batch has been folded
    freshness: dict = field(default_factory=dict)
    #: serving-plane snapshot (query front end, result cache, answer
    #: sources, per-tenant admission) when a front end is attached
    serve: dict = field(default_factory=dict)

    @property
    def backpressured(self) -> list[str]:
        """Subscriptions currently holding a non-trivial backlog."""
        return [n for n, d in self.queue_depths.items() if d > 0]


class PipelineIntrospector:
    """Reads every layer's stats surfaces into one health report."""

    def __init__(self, pipeline: "MonitoringPipeline") -> None:
        self.pipeline = pipeline

    def report(self, slowest_n: int = 5) -> HealthReport:
        p = self.pipeline
        agg = p.tracer.aggregate()
        ticks = int(agg.get("tick", {}).get("count", 0))
        # one timing row per installed stage: the tick loop opens a span
        # named after each, custom stages included
        stages = tuple(
            StageReport(
                name=stage.name,
                calls=int(a["count"]),
                total_s=a["total_s"],
                mean_ms=a["mean_ms"],
                max_ms=1000.0 * a["max_s"],
            )
            for stage in p.stages
            if (a := agg.get(stage.name)) is not None
        )
        stats = p.bus.stats()
        slowest = tuple(
            (
                s.name,
                1000.0 * s.duration_s,
                ",".join(f"{k}={v}" for k, v in s.attrs.items()),
            )
            for s in p.tracer.slowest(slowest_n)
        )
        collectors = {}
        for c in p.scheduler.collectors:
            entry: dict[str, float] = {
                "sweeps": float(c.sweeps),
                "samples": float(c.samples_produced),
                "wall_per_sweep_ms": (
                    1000.0 * c.collect_wall_s / c.sweeps if c.sweeps else 0.0
                ),
            }
            hist = p.scheduler.latency.get(c.name)
            if hist is not None and len(hist):
                entry.update(ms_summary(hist))
            collectors[c.name] = entry
        tstats = p.tsdb.stats()
        stores = {
            "log_events": float(len(p.logs)),
            "sql_bytes": float(p.sql.footprint_bytes()),
            "tsdb_points": float(tstats.samples),
            "tsdb_series": float(tstats.series),
            "tsdb_bytes": float(tstats.compressed_bytes),
        }
        # tiered-transport / sharded-store / disk-tier surfaces (None on
        # the flat bus and the single in-memory store)
        parts = partition_surfaces(p)
        shards = {
            name: {
                "points": float(s.samples),
                "series": float(s.series),
                "bytes": float(s.compressed_bytes),
            }
            for name, s in (shard_stats(p) or {}).items()
        }
        dstats = disk_stats(p)
        analysis: dict[str, dict[str, float]] = {}
        for det in streaming_detectors(p):
            analysis[det.name] = entry = {
                "batches": float(det.batches_observed),
                "samples": float(det.samples_observed),
                "detections": float(det.detections_total),
            }
            if len(det.latency):
                entry.update(ms_summary(det.latency))
        cstats = p.tsdb.cache_stats()
        fe = p.frontend
        sstats = fe.stats()
        serve = {
            **_floats(sstats, "queries", "rejected", "pyramid_answers",
                      "raw_answers"),
            "cache_hits": float(sstats.cache.hits),
            "cache_misses": float(sstats.cache.misses),
            "cache_stale": float(sstats.cache.stale),
            "cache_bytes": float(sstats.cache.bytes),
            "cache_hit_ratio": sstats.cache.hit_ratio,
            "tenants": {
                t: _floats(fe.tenant_stats(t), "admitted", "rejected_rate",
                           "rejected_concurrency")
                for t in fe.tenants()
            },
        }
        return HealthReport(
            ticks=ticks,
            stages=stages,
            completeness=completeness_ratio(
                stats.delivered, stats.dropped, stats.errors
            ),
            bus={
                "published": stats.published,
                "delivered": stats.delivered,
                "dropped": stats.dropped,
                "errors": stats.errors,
                "subscriptions": stats.subscriptions,
            },
            queue_depths=p.bus.queue_depths(),
            slowest_spans=slowest,
            collectors=collectors,
            stores=stores,
            counts={
                "sec_rule_fires": len(p.sec.requests),
                "sec_events_seen": p.sec.events_seen,
                "actions_executed": len(p.actions.audit),
                "alerts": len(p.alerts.alerts),
            },
            partitions=parts["depth"] if parts is not None else {},
            shards=shards,
            chunk_cache={
                **_floats(cstats, "hits", "misses", "evictions", "bytes"),
                "hit_ratio": cstats.hit_ratio,
            },
            disk=_floats(dstats) if dstats is not None else {},
            analysis=analysis,
            health=p.health_report(),
            ledger=_floats(p.delivery_report(), "published", "stored", "lost",
                           "pending", "in_flight", "unaccounted"),
            freshness=p.freshness.snapshot() if p.freshness.batches else {},
            serve=serve,
        )

    def render(self, slowest_n: int = 5) -> str:
        """Human-readable health report (the CLI surface)."""
        r = self.report(slowest_n=slowest_n)
        lines = [f"=== monitoring-plane health ({r.ticks} ticks) ==="]
        lines.append(
            f"data-path completeness: {r.completeness:.4f}"
            + ("  (no loss)" if r.completeness >= 1.0 - 1e-12 else "  (LOSSY)")
        )
        b = r.bus
        lines.append(
            f"bus: published={b['published']} delivered={b['delivered']} "
            f"dropped={b['dropped']} errors={b['errors']} "
            f"subs={b['subscriptions']}"
        )
        backlog = r.backpressured
        lines.append(
            "backpressure: "
            + (", ".join(f"{n}={r.queue_depths[n]}" for n in backlog)
               if backlog else "none (all queues drained)")
        )
        if r.partitions:
            lines.append(
                "partitions: "
                + ", ".join(f"{n}={d}" for n, d in r.partitions.items())
            )
        if r.shards:
            lines.append("shards:")
            for name, s in r.shards.items():
                lines.append(
                    f"  {name:<10} {int(s['points'])} points / "
                    f"{int(s['series'])} series / {int(s['bytes'])} B"
                )
        lines.append("stage timings (per tick):")
        for s in r.stages:
            lines.append(
                f"  {s.name:<15} calls={s.calls:<6} mean={s.mean_ms:8.3f} ms"
                f"  max={s.max_ms:8.3f} ms  total={s.total_s:8.3f} s"
            )
        if r.slowest_spans:
            lines.append("slowest spans:")
            for name, ms, attrs in r.slowest_spans:
                suffix = f" [{attrs}]" if attrs else ""
                lines.append(f"  {ms:9.3f} ms  {name}{suffix}")
        if r.collectors:
            lines.append("collector sweep latency:")
            for name, c in sorted(r.collectors.items()):
                if "p50_ms" in c:
                    lines.append(
                        f"  {name:<18} sweeps={int(c['sweeps']):<5}"
                        f" p50={c['p50_ms']:7.3f} ms"
                        f" p95={c['p95_ms']:7.3f} ms"
                        f" max={c['max_ms']:7.3f} ms"
                    )
        lines.append(
            f"stores: tsdb {int(r.stores['tsdb_points'])} points / "
            f"{int(r.stores['tsdb_series'])} series / "
            f"{int(r.stores['tsdb_bytes'])} B compressed; "
            f"logs {int(r.stores['log_events'])} events; "
            f"sql {int(r.stores['sql_bytes'])} B"
        )
        if r.chunk_cache:
            c = r.chunk_cache
            lines.append(
                f"chunk cache: hits={int(c['hits'])} "
                f"misses={int(c['misses'])} "
                f"evictions={int(c['evictions'])} "
                f"resident={int(c['bytes'])} B "
                f"(hit ratio {c['hit_ratio']:.2f})"
            )
        if r.disk:
            d = r.disk
            lines.append(
                f"disk tier: {int(d['disk_bytes'])} B on disk "
                f"({int(d['segments'])} segments, "
                f"{int(d['wal_bytes'])} B WAL); "
                f"hot {int(d['hot_bytes'])} B "
                f"({int(d['hot_chunks'])} chunks); "
                f"spills={int(d['spills'])} loads={int(d['loads'])} "
                f"map_hits={int(d['map_hits'])} remaps={int(d['remaps'])}"
            )
        if r.serve:
            s = r.serve
            lines.append(
                f"serve: queries={int(s['queries'])} "
                f"rejected={int(s['rejected'])} "
                f"pyramid={int(s['pyramid_answers'])} "
                f"raw={int(s['raw_answers'])} "
                f"cache hit ratio {s['cache_hit_ratio']:.2f} "
                f"({int(s['cache_bytes'])} B)"
            )
            for t, ts in sorted(s["tenants"].items()):
                lines.append(
                    f"  tenant {t:<12} admitted={int(ts['admitted']):<6}"
                    f" shed_rate={int(ts['rejected_rate']):<5}"
                    f" shed_conc={int(ts['rejected_concurrency'])}"
                )
        if r.analysis:
            lines.append("streaming detectors:")
            for name, a in sorted(r.analysis.items()):
                row = (
                    f"  {name:<26} batches={int(a['batches']):<6}"
                    f" detections={int(a['detections']):<5}"
                )
                if "p50_ms" in a:
                    row += (
                        f" p50={a['p50_ms']:7.3f} ms"
                        f" p95={a['p95_ms']:7.3f} ms"
                    )
                lines.append(row)
        if r.health:
            impaired = {n: h for n, h in r.health.items()
                        if h.get("state") != "ok"}
            lines.append(
                f"supervised components: {len(r.health)} "
                f"({len(impaired)} impaired)"
            )
            for name, h in sorted(impaired.items()):
                lines.append(
                    f"  {name:<24} {h['state'].upper():<9}"
                    f" failures={int(h['failures'])}"
                    f" trips={int(h['trips'])}"
                    + (f"  ({h['reason']})" if h.get("reason") else "")
                )
        if r.freshness:
            f = r.freshness
            e2e = f["e2e"]
            lines.append(
                f"freshness: {f['batches']} traced batches, e2e "
                f"p50={e2e['p50_s']:g}s p99={e2e['p99_s']:g}s "
                f"max={e2e['max_s']:g}s "
                + ("(hop sums exact)" if f["exact"]
                   else "(hop sums INEXACT)")
            )
            for row in f["waterfall"]:
                lines.append(
                    f"  hop {row['hop']:<8} mean={row['mean_s']:8.3f} s"
                    f"  p99={row['p99_s']:8.3f} s"
                    f"  share={100.0 * row['share']:5.1f}%"
                )
            for s in f["slos"]:
                state = "BREACHED" if s["active"] else "ok"
                lines.append(
                    f"  slo {s['name']:<12} p{100 * s['quantile']:g} <= "
                    f"{s['max_latency_s']:g}s  burn={s['burn_rate']:.2f}x"
                    f"  breaches={s['breaches']}  [{state}]"
                )
            if f.get("worst_exemplar"):
                lines.append(f"  worst exemplar: {f['worst_exemplar']}")
        if r.ledger:
            lg = r.ledger
            verdict = ("balanced" if lg["unaccounted"] == 0
                       else "IMBALANCED")
            lines.append(
                f"delivery ledger: published={int(lg['published'])} "
                f"stored={int(lg['stored'])} lost={int(lg['lost'])} "
                f"pending={int(lg['pending'])} "
                f"in_flight={int(lg['in_flight'])} "
                f"unaccounted={int(lg['unaccounted'])} ({verdict})"
            )
        lines.append(
            f"response: {r.counts['sec_rule_fires']} rule fires over "
            f"{r.counts['sec_events_seen']} events, "
            f"{r.counts['actions_executed']} actions, "
            f"{r.counts['alerts']} alerts"
        )
        return "\n".join(lines)
