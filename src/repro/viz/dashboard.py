"""Status dashboard: aggregate tiles with drill-down (Figure 4 workflow).

Section III-B: "individual component graphs may decrease in value and
performance as the number of components plotted increases ... Reduced
dimensionality through higher-level aggregations (e.g., percentage of
components in a state, regardless of location) coupled with drill-down
capabilities can enable better at-a-glance understanding."

* :func:`percent_in_state` — the roll-up primitive;
* :class:`Dashboard` — tiles computed from the stores, rendered as text;
* :func:`drill_down` — the Figure 4 investigation: aggregate series →
  peak time → per-component ranking at that time → owning job.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..core.metric import SeriesBatch
from ..storage.jobstore import JobIndex
from ..storage.tsdb import TimeSeriesStore
from .render import bar_row, sparkline

__all__ = ["percent_in_state", "Tile", "Dashboard", "DrillDownResult",
           "drill_down"]


def percent_in_state(
    sweep: SeriesBatch, predicate: Callable[[float], bool]
) -> float:
    """Percent of components whose latest value satisfies ``predicate``."""
    if not len(sweep):
        return float("nan")
    vals = sweep.values
    ok = np.fromiter((predicate(float(v)) for v in vals), dtype=bool,
                     count=len(vals))
    return 100.0 * ok.mean()


@dataclass(frozen=True, slots=True)
class Tile:
    name: str
    value: float
    unit: str
    maximum: float          # for the bar scale
    status: str             # "ok" | "warn" | "crit"
    trend: str = ""         # sparkline of recent history


class Dashboard:
    """Builds at-a-glance tiles from a time-series store."""

    def __init__(self, tsdb: TimeSeriesStore) -> None:
        # any store exposing query()/components() works (plain, sharded,
        # or tiered) — the annotation names the canonical one
        self.tsdb = tsdb

    def _latest_sweep(self, metric: str, window_s: float,
                      now: float) -> SeriesBatch:
        # one read per tile, not one per component
        per = self.tsdb.query_components(metric, None, now - window_s,
                                         now + 1e-9)
        comps, times, values = [], [], []
        for c, b in per.items():
            if len(b):
                comps.append(c)
                times.append(b.times[-1])
                values.append(b.values[-1])
        return SeriesBatch(metric, comps, times, values)

    def _trend(self, metric: str, component: str, now: float,
               window_s: float = 3600.0, points: int = 24) -> str:
        b = self.tsdb.query(metric, component, now - window_s, now + 1e-9)
        if not len(b):
            return ""
        step = max(1, len(b) // points)
        return sparkline(b.values[::step][-points:])

    def tiles(self, now: float, window_s: float = 600.0) -> list[Tile]:
        out: list[Tile] = []
        health = self._latest_sweep("health.pass_frac", window_s, now)
        if len(health):
            pct = percent_in_state(health, lambda v: v >= 1.0)
            out.append(
                Tile("nodes fully healthy", pct, "%", 100.0,
                     "ok" if pct >= 99 else "warn" if pct >= 95 else "crit")
            )
        stall = self._latest_sweep("link.stall_ratio", window_s, now)
        if len(stall):
            pct = percent_in_state(stall, lambda v: v >= 0.12)
            out.append(
                Tile("links congested", pct, "%", 100.0,
                     "ok" if pct < 1 else "warn" if pct < 10 else "crit")
            )
        sysp = self._latest_sweep("system.power_w", window_s, now)
        if len(sysp):
            val = float(sysp.values[-1]) / 1e3
            out.append(
                Tile("system power", val, "kW", max(val * 1.5, 1.0), "ok",
                     trend=self._trend("system.power_w", "system", now))
            )
        depth = self._latest_sweep("queue.depth", window_s, now)
        if len(depth):
            val = float(depth.values[-1])
            out.append(
                Tile("queue depth", val, " jobs", max(val * 2, 10.0),
                     "ok" if val < 50 else "warn",
                     trend=self._trend("queue.depth", "scheduler", now))
            )
        fsr = self._latest_sweep("fs.read_bps", window_s, now)
        if len(fsr):
            val = float(fsr.values.sum()) / 1e9
            out.append(
                Tile("filesystem read", val, " GB/s",
                     max(val * 1.5, 1.0), "ok")
            )
        return out

    def selfmon_tiles(self, now: float,
                      window_s: float = 600.0) -> list[Tile]:
        """Tiles over the monitoring plane's own ``selfmon.*`` vitals.

        Empty when self-monitoring is disabled (no ``selfmon.*`` series
        in the store) — the panel degrades away rather than erroring.
        """
        out: list[Tile] = []
        comp = self._latest_sweep("selfmon.bus.completeness", window_s, now)
        if len(comp):
            pct = 100.0 * float(comp.values[-1])
            out.append(
                Tile("data-path completeness", pct, "%", 100.0,
                     "ok" if pct >= 99.999 else "warn" if pct >= 99 else "crit",
                     trend=self._trend("selfmon.bus.completeness", "bus",
                                       now)),
            )
        depth = self._latest_sweep("selfmon.bus.queue_depth", window_s, now)
        if len(depth):
            backlog = float(depth.values.sum())
            out.append(
                Tile("bus backlog", backlog, " msgs",
                     max(backlog * 2, 10.0),
                     "ok" if backlog == 0 else "warn")
            )
        tick = self._latest_sweep("selfmon.pipeline.tick_ms", window_s, now)
        if len(tick):
            val = float(tick.values[-1])
            out.append(
                Tile("monitoring tick", val, " ms", max(val * 1.5, 10.0),
                     "ok",
                     trend=self._trend("selfmon.pipeline.tick_ms",
                                       "pipeline", now))
            )
        ingest = self._latest_sweep("selfmon.store.tsdb_ingest_rate",
                                    window_s, now)
        if len(ingest):
            val = float(ingest.values[-1])
            out.append(
                Tile("tsdb ingest", val, " samples/s",
                     max(val * 1.5, 1.0), "ok")
            )
        # tiered-transport / sharded-store panels degrade away when the
        # stack runs the flat bus + single store (no such series exist)
        part = self._latest_sweep("selfmon.bus.partition_depth",
                                  window_s, now)
        if len(part):
            backlog = float(part.values.sum())
            out.append(
                Tile(f"partition backlog ({len(part)} parts)", backlog,
                     " msgs", max(backlog * 2, 10.0),
                     "ok" if backlog == 0 else "warn")
            )
        shard = self._latest_sweep("selfmon.store.shard_points",
                                   window_s, now)
        if len(shard):
            total = float(shard.values.sum())
            hottest = float(shard.values.max())
            even = total / len(shard) if len(shard) else 0.0
            skew = hottest / even if even > 0 else 1.0
            out.append(
                Tile(f"shard skew ({len(shard)} shards)", skew, "x",
                     max(skew * 1.5, 2.0),
                     "ok" if skew < 1.5 else "warn")
            )
        # supervised-lifecycle / delivery-ledger panels (absent when the
        # pipeline runs unsupervised)
        health = self._latest_sweep("selfmon.health.state", window_s, now)
        if len(health):
            worst = float(health.values.max())
            impaired = int((health.values > 0).sum())
            out.append(
                Tile(f"monitor health ({len(health)} components)",
                     float(impaired), " impaired", max(len(health), 1.0),
                     "ok" if worst == 0 else
                     "warn" if worst == 1 else "crit")
            )
        lost = self._latest_sweep("selfmon.ledger.lost_points", window_s, now)
        pub = self._latest_sweep("selfmon.ledger.published_points",
                                 window_s, now)
        if len(lost) and len(pub) and float(pub.values[-1]) > 0:
            frac = 100.0 * float(lost.values[-1]) / float(pub.values[-1])
            out.append(
                Tile("accounted loss", frac, "%", 100.0,
                     "ok" if frac == 0 else "warn" if frac < 5 else "crit")
            )
        silent = self._latest_sweep("selfmon.ledger.unaccounted_points",
                                    window_s, now)
        if len(silent):
            val = float(silent.values[-1])
            out.append(
                Tile("unaccounted points", val, "", max(abs(val) * 2, 10.0),
                     "ok" if val == 0 else "crit")
            )
        # freshness panels (absent when trace propagation is disabled)
        p99 = self._latest_sweep("selfmon.freshness.e2e_p99_s", window_s, now)
        if len(p99):
            val = float(p99.values[-1])
            out.append(
                Tile("ingest-to-queryable p99", val, " s",
                     max(val * 1.5, 10.0), "ok",
                     trend=self._trend("selfmon.freshness.e2e_p99_s",
                                       "freshness", now))
            )
        burn = self._latest_sweep("selfmon.freshness.slo_burn_rate",
                                  window_s, now)
        if len(burn):
            worst = float(burn.values.max())
            out.append(
                Tile("freshness SLO burn", worst, "x",
                     max(worst * 1.5, 2.0),
                     "ok" if worst <= 1.0 else "crit")
            )
        breaches = self._latest_sweep("selfmon.freshness.slo_breaches",
                                      window_s, now)
        if len(breaches):
            total = float(breaches.values.sum())
            out.append(
                Tile("freshness SLO breaches", total, "",
                     max(total * 2, 5.0),
                     "ok" if total == 0 else "crit")
            )
        # serving-plane panels (absent when no query front end is wired)
        queries = self._latest_sweep("selfmon.serve.queries", window_s,
                                     now)
        served_any = len(queries) and float(queries.values[-1]) > 0
        hit = self._latest_sweep("selfmon.serve.cache_hit_ratio",
                                 window_s, now)
        if len(hit):
            pct = 100.0 * float(hit.values[-1])
            out.append(
                # a 0% ratio on an idle plane is not a problem — only
                # warn when queries have actually flowed
                Tile("query cache hit ratio", pct, "%", 100.0,
                     "warn" if served_any and pct < 50 else "ok",
                     trend=self._trend("selfmon.serve.cache_hit_ratio",
                                       "result-cache", now))
            )
        qps = self._latest_sweep("selfmon.serve.qps", window_s, now)
        if len(qps):
            val = float(qps.values[-1])
            out.append(
                Tile("query rate", val, " q/s", max(val * 1.5, 1.0), "ok")
            )
        shed = self._latest_sweep("selfmon.serve.rejected", window_s, now)
        if len(shed):
            val = float(shed.values[-1])
            out.append(
                Tile("queries shed", val, "", max(val * 2, 10.0),
                     "ok" if val == 0 else "warn")
            )
        return out

    def render(self, now: float, window_s: float = 600.0) -> str:
        lines = [f"=== system status @ t={now:.0f}s ==="]
        for tile in self.tiles(now, window_s):
            mark = {"ok": " ", "warn": "!", "crit": "X"}[tile.status]
            lines.append(
                f"{mark} " + bar_row(tile.name, tile.value, tile.maximum,
                                     unit=tile.unit)
                + (f"  {tile.trend}" if tile.trend else "")
            )
        selfmon = self.selfmon_tiles(now, window_s)
        if selfmon:
            lines.append("--- monitoring plane ---")
            for tile in selfmon:
                mark = {"ok": " ", "warn": "!", "crit": "X"}[tile.status]
                lines.append(
                    f"{mark} " + bar_row(tile.name, tile.value, tile.maximum,
                                         unit=tile.unit)
                    + (f"  {tile.trend}" if tile.trend else "")
                )
        return "\n".join(lines)


@dataclass(frozen=True, slots=True)
class DrillDownResult:
    """Outcome of the aggregate -> component -> job investigation."""

    metric: str
    peak_time: float
    peak_value: float
    ranked_components: tuple[tuple[str, float], ...]
    job_id: int | None
    job_app: str | None


def drill_down(
    tsdb: TimeSeriesStore,
    aggregate_metric: str,
    component_metric: str,
    t0: float,
    t1: float,
    index: JobIndex | None = None,
    component_to_nodes: Callable[[str], Sequence[str]] | None = None,
    top_k: int = 5,
) -> DrillDownResult:
    """The Figure 4 workflow as one call.

    1. find the peak of the aggregate series in [t0, t1);
    2. rank components of ``component_metric`` at the peak time;
    3. attribute the peak to the job owning the top contributor
       (via ``index``; ``component_to_nodes`` maps a non-node component
       such as an OST to candidate nodes — for filesystem metrics the
       attribution goes through whichever job was doing the most I/O,
       which the caller encodes in that mapping).
    """
    agg = tsdb.aggregate_across(aggregate_metric, None, t0, t1, step=60.0)
    if not len(agg):
        return DrillDownResult(aggregate_metric, float("nan"),
                               float("nan"), (), None, None)
    peak_i = int(np.nanargmax(agg.values))
    peak_t = float(agg.times[peak_i])
    peak_v = float(agg.values[peak_i])

    per_comp = tsdb.query_components(
        component_metric, None, peak_t - 30.0, peak_t + 90.0
    )
    ranked = sorted(
        (
            (c, float(b.values.mean()))
            for c, b in per_comp.items()
            if len(b)
        ),
        key=lambda cv: -cv[1],
    )[:top_k]

    job_id = None
    job_app = None
    if index is not None and ranked:
        top_comp = ranked[0][0]
        candidates = (
            list(component_to_nodes(top_comp))
            if component_to_nodes is not None
            else [top_comp]
        )
        for node in candidates:
            alloc = index.job_on_node_at(node, peak_t)
            if alloc is not None:
                job_id = alloc.job_id
                job_app = alloc.app
                break
    return DrillDownResult(
        metric=aggregate_metric,
        peak_time=peak_t,
        peak_value=peak_v,
        ranked_components=tuple(ranked),
        job_id=job_id,
        job_app=job_app,
    )
