"""Partitioned pub/sub transport (the Kafka class).

CSC runs a Kafka-style partitioned log in front of its stores: a flat
broker stops scaling when every publish contends on one router, so the
topic space is hashed into partitions, each an independent bounded
queue with its own backpressure accounting.  :class:`PartitionedBus`
models that tier: ``publish`` only appends to the owning partition
(stable topic hash, so a topic's messages always traverse the same
partition and stay FIFO); delivery to subscribers happens when the
pipeline :meth:`pump`\\ s the bus at stage boundaries.  The partition
is all this tier adds to the shared
:class:`~repro.transport.base.Transport` core.  Partitions are bounded
with drop-oldest overflow and per-partition drop counters, so a storm
on one topic family saturates *its* partition while the others keep
flowing — visible in ``selfmon.bus.partition_depth`` and
``selfmon.bus.partition_dropped``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from ..core.hashing import stable_bucket
from ..core.tracectx import HOP_ENQUEUE, HOP_PUMP
from .base import BusStats, Transport
from .message import Envelope

__all__ = ["PartitionedBus", "PartitionedBusStats"]


@dataclass(frozen=True, slots=True)
class PartitionedBusStats(BusStats):
    """BusStats plus the per-partition loss/backlog breakdown."""

    partitions: int = 0
    partition_dropped: tuple[int, ...] = ()
    partition_depths: tuple[int, ...] = ()


class _Partition:
    """One bounded FIFO of undelivered envelopes."""

    __slots__ = ("queue", "maxlen", "dropped")

    def __init__(self, maxlen: int) -> None:
        self.queue: deque[Envelope] = deque()
        self.maxlen = maxlen
        self.dropped = 0

    def offer(self, env: Envelope) -> Envelope | None:
        """Enqueue; returns the evicted envelope when drop-oldest fires
        (so the caller can account the loss), else None."""
        evicted = None
        if len(self.queue) >= self.maxlen:
            evicted = self.queue.popleft()   # drop-oldest under storm
            self.dropped += 1
        self.queue.append(env)
        return evicted


class PartitionedBus(Transport):
    """N independent partitions by topic hash, delivered on ``pump``.

    Subscription patterns may span partitions: a wildcard such as
    ``metrics.*`` sees matching envelopes from every lane.
    """

    tier = "partitioned"

    def __init__(self, partitions: int = 4,
                 partition_queue_len: int = 100_000) -> None:
        if partitions < 1:
            raise ValueError("partitions must be >= 1")
        super().__init__()
        self.n_partitions = int(partitions)
        self._parts = [
            _Partition(int(partition_queue_len))
            for _ in range(self.n_partitions)
        ]

    def partition_of(self, topic: str) -> int:
        """Stable topic -> partition mapping (same topic, same lane)."""
        return stable_bucket(topic, self.n_partitions)

    def publish(self, topic: str, payload, source: str = "") -> int:
        """Append to the owning partition; delivery waits for ``pump``.

        Returns 0: no consumer has been reached yet.  An envelope that
        overflows the partition evicts the oldest one there (counted in
        that partition's ``dropped``).
        """
        self._accept(topic, payload, source, HOP_ENQUEUE)
        env = self._envelope(topic, payload, source)
        evicted = self._parts[self.partition_of(topic)].offer(env)
        if evicted is not None:
            self._lost("partition-overflow", evicted.topic, evicted.payload)
        return 0

    def pump(self, now: float | None = None) -> int:
        """Drain every partition in order, fanning out to subscribers."""
        moved = 0
        t = self._hop_time(now)
        for part in self._parts:
            queue = part.queue
            while queue:
                env = queue.popleft()
                if t is not None and env.trace is not None:
                    env.trace.stamp(HOP_PUMP, t)
                self._deliver(env)
                moved += 1
        return moved

    def _held(self):
        return ((env.topic, env.payload)
                for part in self._parts for env in part.queue)

    def lane_depths(self) -> dict[str, int]:
        return {f"partition-{i}": len(p.queue)
                for i, p in enumerate(self._parts)}

    def lane_drops(self) -> dict[str, int]:
        return {f"partition-{i}": p.dropped
                for i, p in enumerate(self._parts)}

    def stats(self) -> PartitionedBusStats:
        return PartitionedBusStats(
            **self._stat_fields(),
            partitions=self.n_partitions,
            partition_dropped=tuple(p.dropped for p in self._parts),
            partition_depths=tuple(len(p.queue) for p in self._parts),
        )
