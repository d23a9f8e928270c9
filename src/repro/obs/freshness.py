"""Freshness plane: fold per-batch hop stamps into latency SLOs.

The delivery ledger (PR 5) proves *completeness* — every published
point accounted.  This module proves *timeliness*: every traced batch's
:class:`~repro.core.tracectx.TraceContext` is folded, at store-ingest
time, into

* an end-to-end and one per-hop :class:`~repro.obs.hist.LatencyHistogram`
  (the ``selfmon.freshness.*`` rows);
* configurable **freshness SLOs** (:class:`FreshnessSLO`, e.g. "p99
  ingest-to-queryable <= 2 ticks") with burn-rate breach tracking: the
  fraction of recent batches over the threshold, divided by the SLO's
  error budget ``1 - quantile``.  Burn > 1 means the budget is being
  spent faster than the SLO allows; a breach fires once per excursion
  (edge-triggered) and carries the excursion's worst batch as an
  :class:`Exemplar` — its full hop vector and the trace span active
  when it was recorded — so the alert names the hop that caused it;
* an **exact waterfall**: lifetime per-hop latency totals whose sum
  equals the lifetime end-to-end total identically on the simulated
  clock (hop deltas telescope per batch; stamps are integral multiples
  of the tick, so re-ordering the summation loses nothing) — the
  ``python -m repro slo`` acceptance check.

Everything here is pure folding — the transports stamp, the pipeline's
``_on_metric`` calls :meth:`FreshnessTracker.record`, the
``FreshnessStage`` calls :meth:`FreshnessTracker.evaluate`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from ..core.metric import SeriesBatch
from ..core.tracectx import TraceContext
from .hist import LatencyHistogram

__all__ = [
    "Exemplar",
    "FreshnessSLO",
    "FreshnessBreach",
    "FreshnessTracker",
]


@dataclass(frozen=True, slots=True)
class Exemplar:
    """Worst-offender reference: a latency linked back to its journey."""

    metric: str
    latency_s: float
    hops: tuple[tuple, ...]      # frozen snapshot of the hop vector
    origin_tick: int
    span: str = ""               # tracer span active when recorded

    def context(self) -> TraceContext:
        """Rehydrate the hop vector for latency attribution."""
        return TraceContext(origin_tick=self.origin_tick, hops=self.hops)

    def worst_hop(self) -> tuple[str, float] | None:
        """(hop, delta_s) carrying the largest share of the latency."""
        return self.context().worst_hop()

    def describe(self) -> str:
        ctx = self.context()
        worst = ctx.worst_hop()
        at = (f" (worst hop {worst[0]} +{worst[1]:g}s)"
              if worst is not None else "")
        return (f"{self.metric} +{self.latency_s:g}s via "
                f"{ctx.path()}{at} [tick {self.origin_tick}"
                + (f", span {self.span}" if self.span else "") + "]")


@dataclass(frozen=True, slots=True)
class FreshnessSLO:
    """One end-to-end freshness objective over the recent batch window.

    ``quantile`` sets the error budget: a q-quantile SLO tolerates a
    fraction ``1 - q`` of batches over ``max_latency_s``.  ``min_count``
    stops a cold window from alarming on its first slow batch.
    """

    name: str
    max_latency_s: float
    quantile: float = 0.99
    window: int = 256
    min_count: int = 16

    @property
    def budget(self) -> float:
        """Tolerated over-threshold fraction (``1 - quantile``)."""
        return max(1.0 - self.quantile, 1e-9)


@dataclass(frozen=True, slots=True)
class FreshnessBreach:
    """One edge-triggered SLO excursion, exemplar-linked."""

    slo: FreshnessSLO
    tier: str
    time: float
    burn_rate: float
    over: int                    # over-threshold batches in the window
    observed: int                # batches in the window
    exemplar: Exemplar | None

    def describe(self) -> str:
        """Breach message (the SEC escalation rule matches on it)."""
        worst = (self.exemplar.worst_hop()
                 if self.exemplar is not None else None)
        hop_part = (f"; worst hop {worst[0]} +{worst[1]:g}s"
                    if worst is not None else "")
        ex_part = (f" ({self.exemplar.describe()})"
                   if self.exemplar is not None else "")
        return (
            f"freshness SLO {self.slo.name} breached on "
            f"{self.tier or 'transport'}: burn {self.burn_rate:.1f}x "
            f"budget ({self.over}/{self.observed} batches over "
            f"{self.slo.max_latency_s:g}s p{self.slo.quantile * 100:g})"
            f"{hop_part}{ex_part}"
        )

    def fields(self) -> dict:
        """Structured payload for the breach event — the SEC rule
        forwards it onto the action request, so consumers get the
        offending hop without re-parsing the message."""
        out = {
            "slo": self.slo.name,
            "tier": self.tier,
            "burn_rate": self.burn_rate,
            "over": self.over,
            "observed": self.observed,
            "threshold_s": self.slo.max_latency_s,
        }
        if self.exemplar is not None:
            out["exemplar_metric"] = self.exemplar.metric
            out["exemplar_latency_s"] = self.exemplar.latency_s
            worst = self.exemplar.worst_hop()
            if worst is not None:
                out["worst_hop"] = worst[0]
                out["worst_hop_s"] = worst[1]
        return out


class _SloTrack:
    """Mutable burn-rate state for one :class:`FreshnessSLO`."""

    __slots__ = ("slo", "_over", "_over_count", "active", "breaches",
                 "worst")

    def __init__(self, slo: FreshnessSLO) -> None:
        self.slo = slo
        self._over: deque[bool] = deque(maxlen=int(slo.window))
        self._over_count = 0      # running sum(self._over)
        self.active = False       # currently in breach (edge trigger)
        self.breaches = 0         # lifetime breach count
        self.worst: Exemplar | None = None   # this excursion's worst

    def observe(self, latency_s: float) -> bool:
        """Slide the window over one batch.  True when the batch is
        over the threshold and worse than :attr:`worst`: the caller
        then hands its exemplar to :attr:`worst`."""
        over = latency_s > self.slo.max_latency_s
        q = self._over
        if len(q) == q.maxlen and q[0]:
            self._over_count -= 1
        q.append(over)
        if not over:
            return False
        self._over_count += 1
        return self.worst is None or latency_s > self.worst.latency_s

    def burn_rate(self) -> float:
        if not self._over:
            return 0.0
        frac = self._over_count / len(self._over)
        return frac / self.slo.budget

    def evaluate(self, now: float, tier: str) -> FreshnessBreach | None:
        """Fire a breach on the burn crossing 1.0; rearm on recovery."""
        burn = self.burn_rate()
        if len(self._over) < self.slo.min_count or burn <= 1.0:
            if burn <= 1.0:
                self.active = False
            return None
        if self.active:
            return None
        self.active = True
        self.breaches += 1
        breach = FreshnessBreach(
            slo=self.slo, tier=tier, time=now, burn_rate=burn,
            over=self._over_count, observed=len(self._over),
            exemplar=self.worst,
        )
        self.worst = None         # next excursion finds its own worst
        return breach

    def status(self) -> dict:
        return {
            "name": self.slo.name,
            "max_latency_s": self.slo.max_latency_s,
            "quantile": self.slo.quantile,
            "burn_rate": self.burn_rate(),
            "observed": len(self._over),
            "active": self.active,
            "breaches": self.breaches,
        }


def default_slos(tick_s: float = 10.0) -> list[FreshnessSLO]:
    """The stock objective: p99 ingest-to-queryable within two ticks."""
    return [FreshnessSLO("ingest-p99", max_latency_s=2.0 * tick_s)]


class FreshnessTracker:
    """Folds traced batches into histograms, waterfalls, and SLOs."""

    def __init__(
        self,
        slos: list[FreshnessSLO] | None = None,
        tier: str = "",
        window: int = 512,
    ) -> None:
        self.tier = tier
        self._window = int(window)
        self.batches = 0          # traced batches folded
        self.points = 0
        self.e2e = LatencyHistogram(window)
        # per-hop histograms in traversal (first-seen) order; stamps are
        # integral multiples of the tick, so the lifetime totals
        # telescope with zero rounding and sum(hop totals) == e2e total
        # holds with ==, not isclose
        self._hops: dict[str, LatencyHistogram] = {}
        self._tracks = [_SloTrack(s) for s in (slos or [])]

    # -- folding -----------------------------------------------------------

    def record(self, batch: SeriesBatch, span: str = "") -> None:
        """Fold one ingested batch's trace context (no-op if untraced).

        Latencies follow the ``t_min`` path (the oldest point's
        journey).  The exemplar is built at most once per batch, and
        only when the batch is over an SLO's threshold and that track's
        new worst.
        """
        ctx = batch.trace
        if ctx is None:
            return
        hops = ctx.hops
        if len(hops) < 2:
            return
        prev = hops[0][1]
        e2e = hops[-1][1] - prev
        self.batches += 1
        self.points += len(batch.times)
        self.e2e.record(e2e)
        hists = self._hops
        for hop, t, _t_max, _count in hops[1:]:
            hist = hists.get(hop)
            if hist is None:
                hist = hists[hop] = LatencyHistogram(self._window)
            hist.record(t - prev)
            prev = t
        ex: Exemplar | None = None
        for track in self._tracks:
            if track.observe(e2e):
                if ex is None:
                    ex = Exemplar(batch.metric, e2e,
                                  tuple(tuple(h) for h in hops),
                                  ctx.origin_tick, span)
                track.worst = ex

    # -- SLO evaluation ----------------------------------------------------

    def evaluate(self, now: float) -> list[FreshnessBreach]:
        """Newly fired breaches since the last call (edge-triggered)."""
        out = []
        for track in self._tracks:
            breach = track.evaluate(now, self.tier)
            if breach is not None:
                out.append(breach)
        return out

    def breach_count(self) -> int:
        return sum(t.breaches for t in self._tracks)

    def slo_status(self) -> list[dict]:
        return [t.status() for t in self._tracks]

    # -- waterfall ---------------------------------------------------------

    def waterfall(self) -> list[dict]:
        """Per-hop latency attribution rows in traversal order."""
        total = self.e2e.total_s
        return [{
            "hop": hop,
            "count": h.count,
            "total_s": h.total_s,
            "mean_s": h.total_s / h.count if h.count else 0.0,
            "p99_s": h.percentile(99.0),
            "max_s": h.max_s,
            "share": h.total_s / total if total > 0 else 0.0,
        } for hop, h in self._hops.items()]

    def hop_total(self) -> float:
        """Sum of per-hop latency totals (== :meth:`e2e_total`)."""
        return sum(h.total_s for h in self._hops.values())

    def e2e_total(self) -> float:
        """Lifetime end-to-end latency total across traced batches."""
        return self.e2e.total_s

    def waterfall_exact(self) -> bool:
        """True when hop attribution sums to end-to-end *exactly*."""
        return self.hop_total() == self.e2e.total_s

    def render_waterfall(self, width: int = 28) -> str:
        """Text waterfall: one bar per hop, share-scaled."""
        rows = self.waterfall()
        name = self.tier or "transport"
        lines = [
            f"--- freshness waterfall [{name}] "
            f"({self.batches} batches, {self.points} points) ---"
        ]
        if not rows:
            lines.append("  (no traced batches)")
            return "\n".join(lines)
        for r in rows:
            bar = "#" * max(0, round(r["share"] * width))
            lines.append(
                f"  {r['hop']:<8} {bar:<{width}} "
                f"mean {r['mean_s']:7.2f}s  p99 {r['p99_s']:7.2f}s  "
                f"max {r['max_s']:7.2f}s  share {100 * r['share']:5.1f}%"
            )
        e2e = self.e2e.summary(99.0)
        lines.append(
            f"  end-to-end: p50 {e2e['p50_s']:.2f}s  "
            f"p99 {e2e['p99_s']:.2f}s  max {e2e['max_s']:.2f}s"
        )
        lines.append(
            f"  exact: sum(hops) {self.hop_total():g}s "
            f"{'==' if self.waterfall_exact() else '!='} "
            f"end-to-end {self.e2e.total_s:g}s"
        )
        return "\n".join(lines)

    def hop_summaries(self) -> dict[str, dict[str, float]]:
        """Window p50/p99/max and lifetime count/mean of every hop."""
        return {hop: h.summary(99.0) for hop, h in self._hops.items()}
