"""Compact per-batch trace context: the freshness half of accounting.

PR 5's :mod:`repro.core.ledger` answers "did every published point
arrive?"; this module answers "how *stale* was it when it became
queryable, and which hop did the latency live in?"  Every tracked
:class:`~repro.core.metric.SeriesBatch` carries one
:class:`TraceContext` — an origin tick plus a bounded vector of
``(hop_id, t_min, t_max, count)`` stamps written by the transports and
the store's ingest edge:

* flat bus:        ``collect -> publish -> ingest``
* partitioned bus: ``collect -> enqueue -> pump -> ingest``
* aggregator tree: ``collect -> leaf -> merge -> root -> ingest``

Fan-in stays exact the same way the ledger does: when the tree merges
batches, :meth:`TraceContext.merged` aggregates the parents' stamps per
hop as (min, max, count), so the merged context still brackets every
constituent point.  All latency folding reads the ``t_min`` path (the
oldest point's journey); consecutive deltas then *telescope* — the sum
of per-hop latencies equals the end-to-end collected-to-queryable
latency identically, which the ``python -m repro slo`` waterfall
asserts on the simulated clock.

Timestamps are simulated-clock seconds (``machine.now``), never wall
time: the context measures data-path staleness, not host speed.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

__all__ = [
    "HOP_COLLECT",
    "HOP_PUBLISH",
    "HOP_ENQUEUE",
    "HOP_PUMP",
    "HOP_LEAF",
    "HOP_MERGE",
    "HOP_ROOT",
    "HOP_INGEST",
    "MAX_HOPS",
    "TraceContext",
]

#: hop identifiers stamped along the three transport tiers
HOP_COLLECT = "collect"    # scheduler built the batch (collected-at)
HOP_PUBLISH = "publish"    # flat bus synchronous fan-out
HOP_ENQUEUE = "enqueue"    # partitioned bus accepted into a partition
HOP_PUMP = "pump"          # partitioned bus drained the partition
HOP_LEAF = "leaf"          # aggregator tree buffered at a leaf
HOP_MERGE = "merge"        # aggregator tree coalesced the window
HOP_ROOT = "root"          # aggregator tree forwarded into the root bus
HOP_INGEST = "ingest"      # store accepted the batch (queryable-at)

#: hop-vector bound: the longest built-in path is 5 hops, so 8 leaves
#: headroom for custom tiers while keeping the context fixed-size
MAX_HOPS = 8


class TraceContext:
    """Origin tick plus a bounded per-hop (min, max, count) stamp vector.

    ``hops`` is a list of ``[hop_id, t_min, t_max, count]`` entries in
    traversal order.  A freshly stamped hop has ``t_min == t_max`` and
    ``count == 1``; after :meth:`merged`, an entry brackets every parent
    context's stamp for that hop and ``count`` sums how many contexts
    contributed.  Stamping the same hop twice (chaos duplication, or a
    multi-level tree re-coalescing in one pump) widens the existing
    entry instead of appending, so the vector length is bounded by the
    path length, not the delivery count.
    """

    __slots__ = ("origin_tick", "hops", "truncated")

    def __init__(
        self,
        origin_tick: int = 0,
        hops: Sequence[Sequence] | None = None,
        truncated: int = 0,
    ) -> None:
        self.origin_tick = int(origin_tick)
        self.hops: list[list] = [
            [str(h[0]), float(h[1]), float(h[2]), int(h[3])]
            for h in (hops or ())
        ]
        self.truncated = int(truncated)

    # -- constructors ------------------------------------------------------

    @classmethod
    def start(
        cls, t: float, tick: int = 0, hop: str = HOP_COLLECT
    ) -> "TraceContext":
        """Open a context at collection time ``t`` (simulated seconds)."""
        # hot path (one per published batch): build without the __init__
        # normalization pass
        ctx = cls.__new__(cls)
        ctx.origin_tick = tick
        t = float(t)
        ctx.hops = [[hop, t, t, 1]]
        ctx.truncated = 0
        return ctx

    @classmethod
    def merged(
        cls, contexts: Iterable["TraceContext | None"]
    ) -> "TraceContext | None":
        """Aggregate parent contexts hop-wise as (min, max, sum-count).

        Hop order is first-seen across parents (all built-in paths agree
        on order, so this is the common traversal order).  Returns a new
        context; parents are never mutated.  ``None`` parents (untraced
        batches mixed into a merge) are skipped; all-None returns None.
        """
        ctxs = [c for c in contexts if c is not None]
        if not ctxs:
            return None
        order: list[str] = []
        agg: dict[str, list] = {}
        truncated = 0
        for c in ctxs:
            truncated += c.truncated
            for hop, t_min, t_max, count in c.hops:
                cur = agg.get(hop)
                if cur is None:
                    agg[hop] = [hop, t_min, t_max, count]
                    order.append(hop)
                else:
                    if t_min < cur[1]:
                        cur[1] = t_min
                    if t_max > cur[2]:
                        cur[2] = t_max
                    cur[3] += count
        return cls(
            origin_tick=min(c.origin_tick for c in ctxs),
            hops=[agg[h] for h in order],
            truncated=truncated,
        )

    # -- stamping ----------------------------------------------------------

    def stamp(self, hop: str, t: float) -> "TraceContext":
        """Record traversal of ``hop`` at simulated time ``t``.

        Re-stamping the trailing hop widens its (min, max) bracket —
        duplicates and repeated coalesce levels stay idempotent — and a
        vector already at :data:`MAX_HOPS` counts the stamp in
        ``truncated`` instead of growing, so the context stays compact
        no matter what a custom transport does.
        """
        t = float(t)
        hops = self.hops
        if hops and hops[-1][0] == hop:
            last = hops[-1]
            if t < last[1]:
                last[1] = t
            if t > last[2]:
                last[2] = t
            return self
        if len(hops) >= MAX_HOPS:
            self.truncated += 1
            return self
        hops.append([hop, t, t, 1])
        return self

    # -- latency folding ---------------------------------------------------

    def end_to_end(self) -> float:
        """Ingest-to-queryable latency of the oldest point's journey."""
        if len(self.hops) < 2:
            return 0.0
        return self.hops[-1][1] - self.hops[0][1]

    def hop_latencies(self) -> list[tuple[str, float]]:
        """``(hop, delta_s)`` per traversed hop along the ``t_min`` path.

        The delta attributed to a hop is the time between the previous
        hop's stamp and this one's.  Because each delta is a difference
        of consecutive stamps, the deltas telescope: their sum equals
        :meth:`end_to_end` exactly (same floats, same subtractions on
        the simulated clock's integral times).
        """
        out: list[tuple[str, float]] = []
        prev: float | None = None
        for hop, t_min, _t_max, _count in self.hops:
            if prev is not None:
                out.append((hop, t_min - prev))
            prev = t_min
        return out

    def worst_hop(self) -> tuple[str, float] | None:
        """The hop carrying the largest latency share, or None."""
        lats = self.hop_latencies()
        if not lats:
            return None
        return max(lats, key=lambda hl: hl[1])

    def path(self) -> str:
        """Hop traversal as ``collect->enqueue->pump->ingest``."""
        return "->".join(h[0] for h in self.hops)

    def describe(self) -> str:
        """One-line waterfall: ``collect@600 ->enqueue+0 ->pump+20``."""
        if not self.hops:
            return "(unstamped)"
        first = self.hops[0]
        parts = [f"{first[0]}@{first[1]:g}"]
        for hop, delta in self.hop_latencies():
            parts.append(f"->{hop}+{delta:g}")
        return "".join(parts)

    # -- wire form ---------------------------------------------------------

    def to_obj(self) -> dict:
        """JSON-able form carried inside batch payload encodings."""
        obj: dict = {"tick": self.origin_tick, "hops": self.hops}
        if self.truncated:
            obj["trunc"] = self.truncated
        return obj

    @classmethod
    def from_obj(cls, obj: dict | None) -> "TraceContext | None":
        if obj is None:
            return None
        return cls(
            origin_tick=obj.get("tick", 0),
            hops=obj.get("hops", ()),
            truncated=obj.get("trunc", 0),
        )

    # -- plumbing ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceContext):
            return NotImplemented
        return (
            self.origin_tick == other.origin_tick
            and self.hops == other.hops
            and self.truncated == other.truncated
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"TraceContext(tick={self.origin_tick}, "
                f"{self.describe()})")

    def is_monotone(self) -> bool:
        """True when both stamp paths never run backwards in time."""
        for prev, cur in zip(self.hops, self.hops[1:]):
            if cur[1] < prev[1] or cur[2] < prev[2]:
                return False
        return all(
            h[1] <= h[2] and math.isfinite(h[1]) for h in self.hops
        )
