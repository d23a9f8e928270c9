"""The pluggable transport interface every data mover implements.

Section IV-B of the paper: sites run "a variety of transport
mechanisms" — flat brokers (RabbitMQ at NERSC), partitioned logs
(Kafka at CSC), and LDMS aggregator trees (LANL/NCSA/SNL) — and
"multiple transports may in some cases be necessary and even
desirable".  :class:`Transport` is the contract that lets one pipeline
run over any of them: :class:`~repro.transport.bus.MessageBus` (flat
fan-out), :class:`~repro.transport.partitioned.PartitionedBus`
(topic-hash partitions with bounded queues), and
:class:`~repro.transport.aggtree.AggregatorTree` (multi-level fan-in
with batch coalescing).

The shared pieces live here too: :class:`Subscription` (one consumer's
bounded queue over a topic pattern), :class:`BusStats` (the common
stats surface the self-monitoring plane reads), and
:class:`PatternMatcher` (memoized topic/pattern matching — ``fnmatch``
on every publish is the flat bus's hottest line, and (topic, pattern)
pairs recur endlessly).
"""

from __future__ import annotations

import abc
import fnmatch
import logging
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable

from .message import Envelope

__all__ = [
    "BusStats",
    "MatchCacheInfo",
    "PatternMatcher",
    "Subscription",
    "Transport",
    "make_transport",
]

_log = logging.getLogger(__name__)


@dataclass(frozen=True, slots=True)
class BusStats:
    """Delivery accounting every transport exposes (selfmon surface)."""

    published: int
    delivered: int
    dropped: int
    subscriptions: int
    errors: int = 0
    queue_depths: dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True, slots=True)
class MatchCacheInfo:
    hits: int
    misses: int
    size: int


class PatternMatcher:
    """Bounded memo cache over ``fnmatch`` topic/pattern matching.

    Topic and pattern vocabularies are small and recur on every publish
    (a few dozen metric topics against a handful of subscriptions), so
    a dict lookup replaces a glob evaluation on the hot path.  The
    cache is bounded: at capacity it is cleared wholesale, which keeps
    the common steady-state (far fewer pairs than ``max_entries``)
    at zero eviction cost while bounding pathological topic churn.
    ``max_entries=0`` disables memoization entirely.
    """

    def __init__(self, max_entries: int = 4096) -> None:
        self.max_entries = int(max_entries)
        self._cache: dict[tuple[str, str], bool] = {}
        self.hits = 0
        self.misses = 0

    def matches(self, topic: str, pattern: str) -> bool:
        if self.max_entries <= 0:
            return fnmatch.fnmatchcase(topic, pattern)
        key = (topic, pattern)
        hit = self._cache.get(key)
        if hit is not None:
            self.hits += 1
            return hit
        self.misses += 1
        result = fnmatch.fnmatchcase(topic, pattern)
        if len(self._cache) >= self.max_entries:
            self._cache.clear()
        self._cache[key] = result
        return result

    def info(self) -> MatchCacheInfo:
        return MatchCacheInfo(self.hits, self.misses, len(self._cache))


class Subscription:
    """One consumer's bounded queue over a topic pattern."""

    def __init__(
        self,
        pattern: str,
        maxlen: int,
        callback: Callable[[Envelope], None] | None = None,
        name: str = "",
    ) -> None:
        self.pattern = pattern
        self.name = name or pattern
        self.callback = callback
        self._queue: deque[Envelope] = deque()
        self.maxlen = maxlen
        self.received = 0
        self.dropped = 0
        self.errors = 0
        self.last_error: BaseException | None = None

    def matches(self, topic: str) -> bool:
        return fnmatch.fnmatchcase(topic, self.pattern)

    def offer(self, env: Envelope) -> bool:
        """Deliver one envelope; returns True on successful hand-off.

        A raising callback is isolated here — counted in ``errors``,
        logged, and reported as a failed delivery — so one misbehaving
        consumer cannot starve the rest of the fan-out.
        """
        if self.callback is not None:
            try:
                self.callback(env)
            except Exception as exc:
                self.errors += 1
                self.last_error = exc
                _log.warning(
                    "subscriber %r raised on topic %r: %r",
                    self.name, env.topic, exc,
                )
                return False
            self.received += 1
            return True
        if len(self._queue) >= self.maxlen:
            self._queue.popleft()      # drop-oldest under storm
            self.dropped += 1
        self._queue.append(env)
        self.received += 1
        return True

    def drain(self, max_items: int | None = None) -> list[Envelope]:
        """Pull queued messages (consumer-paced pull path)."""
        out: list[Envelope] = []
        while self._queue and (max_items is None or len(out) < max_items):
            out.append(self._queue.popleft())
        return out

    def __len__(self) -> int:
        return len(self._queue)


class Transport(abc.ABC):
    """Abstract data mover: publish/subscribe plus delivery accounting.

    Implementations differ in *when* delivery happens: the flat
    :class:`~repro.transport.bus.MessageBus` delivers synchronously
    inside ``publish``; the partitioned bus and the aggregator tree
    accept envelopes immediately and deliver on :meth:`pump` (called by
    the pipeline at stage boundaries) or :meth:`flush` (force
    everything out, e.g. at end of run).  Consumers never care: they
    subscribe once and see the same envelopes either way.

    When :attr:`ledger` is attached, implementations stamp every
    tracked :class:`~repro.core.metric.SeriesBatch` as ``published`` at
    the publish edge and every internal drop as accounted loss, so the
    ledger's balance identity holds exactly (see
    :mod:`repro.core.ledger`).
    """

    #: optional DeliveryLedger; attached by the pipeline, stamped by
    #: each implementation at its publish edge and loss sites
    ledger = None

    #: optional zero-arg simulated-clock callable; when attached (by the
    #: pipeline, when freshness tracing is on), implementations stamp
    #: each traced batch's TraceContext at their hop edges
    clock = None

    #: optional ExecutionModel; attached by the pipeline when it runs a
    #: parallel executor, so transports with internally data-parallel
    #: work (aggregator-tree leaf coalescing) can fan it out between
    #: their own pump barriers.  Implementations must treat it as
    #: compute-only: publish/deliver stays on the pumping thread.
    executor = None

    def _hop_time(self, now: float | None = None) -> float | None:
        """Time to stamp a hop with: ``now`` when the caller supplies it
        (pump), else the attached clock, else None (tracing off)."""
        if now is not None:
            return now
        clock = self.clock
        return clock() if clock is not None else None

    def in_flight_points(self) -> int:
        """Points buffered inside the transport awaiting delivery
        (partition queues, coalescing windows).  Synchronous transports
        hold nothing between calls."""
        return 0

    @abc.abstractmethod
    def subscribe(
        self,
        pattern: str,
        callback: Callable[[Envelope], None] | None = None,
        maxlen: int | None = None,
        name: str = "",
    ) -> Subscription:
        """Register a consumer over a ``*``-wildcard topic pattern."""

    @abc.abstractmethod
    def unsubscribe(self, sub: Subscription) -> None:
        """Remove a consumer registered with :meth:`subscribe`."""

    @abc.abstractmethod
    def publish(self, topic: str, payload, source: str = "") -> int:
        """Accept one payload for delivery; returns consumers reached
        so far (deferred transports report 0 until :meth:`pump`)."""

    @abc.abstractmethod
    def stats(self) -> BusStats:
        """Aggregate delivery accounting (self-monitoring surface)."""

    @abc.abstractmethod
    def queue_depths(self) -> dict[str, int]:
        """Current backlog per internal queue (self-monitoring surface)."""

    def publish_many(self, topic: str, payloads: Iterable,
                     source: str = "") -> int:
        return sum(self.publish(topic, p, source) for p in payloads)

    def pump(self, now: float | None = None) -> int:
        """Deliver whatever is due at ``now``; returns envelopes moved.

        Synchronous transports have nothing pending — the default is a
        no-op.  Deferred transports drain their internal queues here.
        """
        return 0

    def flush(self) -> int:
        """Force every buffered envelope out (checkpoint / end of run)."""
        return self.pump(None)


def make_transport(tier: str) -> "Transport":
    """Build the transport a ``SiteConfig.transport`` tier names
    (``"flat"``, ``"partitioned"``, ``"tree"``)."""
    from .aggtree import AggregatorTree
    from .bus import MessageBus
    from .partitioned import PartitionedBus
    builders = {
        "flat": MessageBus,
        "partitioned": PartitionedBus,
        "tree": AggregatorTree,
    }
    try:
        builder = builders[tier]
    except (KeyError, TypeError):
        raise ValueError(
            f"unknown transport {tier!r}; expected one of {sorted(builders)}"
        ) from None
    return builder()
