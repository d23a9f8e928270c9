"""LDMS-style aggregator-tree transport: multi-level coalescing fan-in.

LANL, NCSA, and SNL all moved their metric firehose onto LDMS
aggregator trees: node-level samplers feed leaf aggregator daemons,
which feed second-level aggregators, which feed the store — each level
merging many small metric sets into fewer, larger ones, so the message
count crossing the top of the tree is orders of magnitude below the
per-node publish count.  :class:`AggregatorTree` is that topology as a
:class:`~repro.transport.base.Transport`:

* ``publish`` assigns each :class:`~repro.core.metric.SeriesBatch` to a
  leaf aggregator (stable hash of the publishing source, so one
  producer's batches always traverse the same leaf) where it is
  buffered per topic;
* on :meth:`pump`, topics whose oldest buffered sample is at least
  ``window_s`` old are coalesced — all buffered batches for the topic
  merged into one — and forwarded up through ``ceil(log_fan_in(leaves))``
  merge levels to the root, where the shared fan-out delivers them;
* leaf buffers are bounded: overflow evicts the oldest buffered batch
  (counted per leaf in batches and points, so loss is auditable);
* non-batch payloads (events) bypass coalescing and fan out at once —
  the event plane stays timely while the metric firehose is batched.

``stats()`` exposes the coalescing win directly: ``upstream_messages``
(merged batches entering the root) versus ``batches_in`` (publishes),
with point-level accounting proving nothing was lost or duplicated.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from ..core.hashing import stable_bucket
from ..core.metric import SeriesBatch, merge_batches
from ..core.tracectx import HOP_LEAF, HOP_MERGE, HOP_ROOT
from .base import BusStats, Transport

__all__ = ["AggregatorTree", "TreeTransportStats"]


@dataclass(frozen=True, slots=True)
class TreeTransportStats(BusStats):
    """BusStats plus the tree's coalescing and loss accounting."""

    leaves: int = 0
    levels: int = 0
    batches_in: int = 0
    points_in: int = 0
    leaf_messages: int = 0
    upstream_messages: int = 0
    points_forwarded: int = 0
    dropped_batches: int = 0
    dropped_points: int = 0

    @property
    def coalesce_ratio(self) -> float:
        """Publishes per upstream message (>= 1 means net coalescing)."""
        if self.upstream_messages == 0:
            return float("nan")
        return self.batches_in / self.upstream_messages


class _LeafAggregator:
    """One leaf daemon: bounded per-topic batch buffers."""

    __slots__ = ("index", "maxlen", "pending", "dropped_batches",
                 "dropped_points")

    def __init__(self, index: int, maxlen: int) -> None:
        self.index = index
        self.maxlen = maxlen
        # FIFO of (topic, batch, oldest-sample-time) preserving arrival order
        self.pending: deque[tuple[str, SeriesBatch, float]] = deque()
        self.dropped_batches = 0
        self.dropped_points = 0

    def offer(
        self, topic: str, batch: SeriesBatch
    ) -> tuple[str, SeriesBatch] | None:
        """Buffer; returns the evicted (topic, batch) when drop-oldest
        fires (so the tree can account the loss), else None."""
        evicted = None
        if len(self.pending) >= self.maxlen:
            old_tp, old, _ = self.pending.popleft()  # drop-oldest under storm
            self.dropped_batches += 1
            self.dropped_points += len(old)
            evicted = (old_tp, old)
        t = float(batch.times.min()) if len(batch) else float("-inf")
        self.pending.append((topic, batch, t))
        return evicted

    def take_due(
        self, now: float | None, window_s: float
    ) -> list[tuple[str, SeriesBatch]]:
        """Pop every buffered batch whose topic's window has elapsed."""
        if not self.pending:
            return []
        if now is None:
            out = [(tp, b) for tp, b, _ in self.pending]
            self.pending.clear()
            return out
        oldest: dict[str, float] = {}
        for tp, _, t in self.pending:       # FIFO: first entry is oldest
            if tp not in oldest:
                oldest[tp] = t
        due = {tp for tp, t in oldest.items() if t <= now - window_s}
        if not due:
            return []
        keep: deque[tuple[str, SeriesBatch, float]] = deque()
        out: list[tuple[str, SeriesBatch]] = []
        for tp, b, t in self.pending:
            if tp in due:
                out.append((tp, b))
            else:
                keep.append((tp, b, t))
        self.pending = keep
        return out


def _coalesce(entries: list[tuple[str, SeriesBatch]]) -> list[tuple[str, SeriesBatch]]:
    """Merge batches per (topic, metric), preserving first-seen order."""
    groups: dict[tuple[str, str], list[SeriesBatch]] = {}
    for topic, batch in entries:
        groups.setdefault((topic, batch.metric), []).append(batch)
    out: list[tuple[str, SeriesBatch]] = []
    for (topic, _), batches in groups.items():
        non_empty = [b for b in batches if len(b)]
        if not non_empty:
            continue
        merged = non_empty[0] if len(non_empty) == 1 else merge_batches(non_empty)
        out.append((topic, merged))
    return out


class AggregatorTree(Transport):
    """Multi-level fan-in of coalesced batches; consumers sit at the
    root and see merged batches."""

    tier = "tree"

    def __init__(
        self,
        leaves: int = 8,
        fan_in: int = 4,
        window_s: float = 0.0,
        leaf_queue_len: int = 4096,
    ) -> None:
        if leaves < 1:
            raise ValueError("leaves must be >= 1")
        if fan_in < 2:
            raise ValueError("fan_in must be >= 2")
        if window_s < 0:
            raise ValueError("window_s must be >= 0")
        super().__init__()
        self.n_leaves = int(leaves)
        self.fan_in = int(fan_in)
        self.window_s = float(window_s)
        self._leaves = [
            _LeafAggregator(i, int(leaf_queue_len))
            for i in range(self.n_leaves)
        ]
        self._batches_in = 0
        self._points_in = 0
        self._leaf_messages = 0
        self._upstream_messages = 0
        self._points_forwarded = 0

    @property
    def levels(self) -> int:
        """Merge levels between the leaves and the root."""
        n, levels = self.n_leaves, 1
        while n > 1:
            n = -(-n // self.fan_in)
            levels += 1
        return levels

    def leaf_of(self, topic: str, source: str = "") -> int:
        """Stable producer -> leaf assignment (source-keyed, like a node
        daemon pinned to its aggregator; topic-keyed when anonymous)."""
        return stable_bucket(source or topic, self.n_leaves)

    def publish(self, topic: str, payload, source: str = "") -> int:
        """Batches buffer at a leaf; anything else delivers immediately."""
        self._accept(topic, payload, source, HOP_LEAF)
        if not isinstance(payload, SeriesBatch):
            return self._deliver(self._envelope(topic, payload, source))
        self._batches_in += 1
        self._points_in += len(payload)
        evicted = self._leaves[self.leaf_of(topic, source)].offer(
            topic, payload
        )
        if evicted is not None:
            self._lost("leaf-overflow", *evicted)
        return 0

    def pump(self, now: float | None = None) -> int:
        """Coalesce due topics at every leaf and fan them in to the root."""
        groups = [_coalesce(leaf.take_due(now, self.window_s))
                  for leaf in self._leaves]
        self._leaf_messages += sum(map(len, groups))
        while len(groups) > 1:
            nxt: list[list[tuple[str, SeriesBatch]]] = []
            for i in range(0, len(groups), self.fan_in):
                chunk = [m for g in groups[i:i + self.fan_in] for m in g]
                nxt.append(_coalesce(chunk))
            groups = nxt
        moved = 0
        t = self._hop_time(now)
        for topic, batch in (groups[0] if groups else []):
            self._upstream_messages += 1
            self._points_forwarded += len(batch)
            if t is not None and batch.trace is not None:
                # merge and root forwarding happen inside one pump, so
                # both hops stamp the same instant (root delta is 0);
                # the waterfall still shows the full traversal path
                batch.trace.stamp(HOP_MERGE, t)
                batch.trace.stamp(HOP_ROOT, t)
            self._deliver(self._envelope(topic, batch, "aggtree"))
            moved += 1
        return moved

    def _held(self):
        return ((tp, batch)
                for leaf in self._leaves for tp, batch, _ in leaf.pending)

    def lane_depths(self) -> dict[str, int]:
        return {f"leaf-{leaf.index}": len(leaf.pending)
                for leaf in self._leaves}

    def lane_drops(self) -> dict[str, int]:
        return {f"leaf-{leaf.index}": leaf.dropped_batches
                for leaf in self._leaves}

    def stats(self) -> TreeTransportStats:
        return TreeTransportStats(
            **self._stat_fields(),
            leaves=self.n_leaves,
            levels=self.levels,
            batches_in=self._batches_in,
            points_in=self._points_in,
            leaf_messages=self._leaf_messages,
            upstream_messages=self._upstream_messages,
            points_forwarded=self._points_forwarded,
            dropped_batches=sum(lf.dropped_batches for lf in self._leaves),
            dropped_points=sum(lf.dropped_points for lf in self._leaves),
        )
