"""The transport core every data mover shares.

Section IV-B of the paper: sites run "a variety of transport
mechanisms" — flat brokers (RabbitMQ at NERSC), partitioned logs
(Kafka at CSC), and LDMS aggregator trees (LANL/NCSA/SNL) — and
"multiple transports may in some cases be necessary and even
desirable".  They are one publish/subscribe protocol in different
topologies, so :class:`Transport` is a concrete core that owns what
they share:

* the subscription table and its route memo (``topic -> matching
  subscriptions``, one dict hit per publish; cleared on subscribe,
  unsubscribe, and past :data:`ROUTE_MEMO_MAX` topics);
* the publish edge, :meth:`Transport._accept`: the ``published``
  count, the delivery-ledger stamp and the tier's freshness hop stamp,
  plus :meth:`Transport._envelope` (envelope and sequence number);
* the fan-out, :meth:`Transport._deliver`, the one loop over
  :meth:`Subscription.offer`;
* the accounting surfaces: :meth:`~Transport.stats`,
  :meth:`~Transport.queue_depths`, :meth:`~Transport.lane_depths` /
  :meth:`~Transport.lane_drops` and :meth:`~Transport.in_flight_points`.

A tier adds only where an accepted envelope waits and when it is
released: :class:`~repro.transport.bus.MessageBus` (``"flat"``)
delivers it at once, :class:`~repro.transport.partitioned.PartitionedBus`
(``"partitioned"``) holds it in a topic-hashed partition until
:meth:`~Transport.pump`, and :class:`~repro.transport.aggtree.AggregatorTree`
(``"tree"``) holds batches in a leaf window and releases them merged.
"""

from __future__ import annotations

import abc
import fnmatch
import logging
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable

from ..core.ledger import DeliveryLedger
from ..core.metric import SeriesBatch
from .message import Envelope

__all__ = [
    "BusStats",
    "ROUTE_MEMO_MAX",
    "Subscription",
    "Transport",
    "make_transport",
]

_log = logging.getLogger(__name__)

#: subscription queue bound when ``subscribe`` is given no ``maxlen``
DEFAULT_QUEUE_LEN = 10_000

#: topics the route memo holds before it is cleared wholesale (a site's
#: topic vocabulary is a few dozen metric and event names)
ROUTE_MEMO_MAX = 4096


@dataclass(frozen=True, slots=True)
class BusStats:
    """Delivery accounting every transport exposes (selfmon surface)."""

    published: int
    delivered: int
    dropped: int
    subscriptions: int
    errors: int = 0
    queue_depths: dict[str, int] = field(default_factory=dict)

    @property
    def completeness(self) -> float:
        """Data-path completeness: fraction of attempted deliveries that
        reached (or still await) a consumer.

        ``delivered`` counts successful hand-offs (callback returned, or
        the envelope was enqueued); ``dropped`` counts envelopes the
        tier or a subscription lost (drop-oldest evictions, injected
        chaos drops); ``errors`` counts callback
        raises.  Under no-drop, no-error conditions it is exactly 1.0.
        """
        attempted = self.delivered + self.errors
        if attempted <= 0:
            return 1.0
        return (self.delivered - self.dropped) / attempted


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
    """Publish/subscribe core plus delivery accounting.

    Tiers differ in *when* delivery happens: the flat bus delivers
    inside ``publish``; the partitioned bus and the aggregator tree
    accept envelopes immediately and deliver on :meth:`pump` (called by
    the pipeline at stage boundaries) or :meth:`flush` (force
    everything out, e.g. at end of run).  Consumers never care: they
    subscribe once and see the same envelopes either way.

    Every transport owns a :class:`~repro.core.ledger.DeliveryLedger`
    (the pipeline adopts it): each tracked batch is stamped
    ``published`` at the publish edge and every internal drop as
    accounted loss, so the balance identity holds exactly.
    """

    #: the Table I tier this class implements (``SiteConfig.transport``)
    tier = ""

    #: zero-arg simulated-clock callable; the pipeline attaches one, a
    #: standalone transport has none and stamps no freshness hops
    clock = None

    def __init__(self) -> None:
        self.ledger = DeliveryLedger()
        self._subs: list[Subscription] = []
        self._routes: dict[str, tuple[Subscription, ...]] = {}
        self._seq = 0
        self._published = 0
        self._delivered = 0
        self._dropped = 0

    # -- subscriptions ------------------------------------------------------

    def subscribe(
        self,
        pattern: str,
        callback: Callable[[Envelope], None] | None = None,
        maxlen: int | None = None,
        name: str = "",
    ) -> Subscription:
        """Register a consumer; ``pattern`` supports ``*`` wildcards
        (``metrics.*``, ``events.hwerr``).  With a callback, delivery
        calls it; without, envelopes land in the subscription queue
        (``maxlen`` deep, drop-oldest)."""
        sub = Subscription(
            pattern, DEFAULT_QUEUE_LEN if maxlen is None else maxlen,
            callback, name,
        )
        self._subs.append(sub)
        self._routes.clear()
        return sub

    def unsubscribe(self, sub: Subscription) -> None:
        self._subs.remove(sub)
        self._routes.clear()

    def _route(self, topic: str) -> tuple[Subscription, ...]:
        """The subscriptions whose pattern matches ``topic``, in
        subscription order (memoized per topic)."""
        subs = self._routes.get(topic)
        if subs is None:
            if len(self._routes) >= ROUTE_MEMO_MAX:
                self._routes.clear()
            subs = self._routes[topic] = tuple(
                s for s in self._subs if fnmatch.fnmatchcase(topic, s.pattern)
            )
        return subs

    # -- the publish edge and the fan-out -----------------------------------

    def _accept(self, topic: str, payload, source: str, hop: str) -> None:
        """Take one publish in: count it, stamp a tracked batch on the
        ledger and a traced batch with this tier's ``hop``."""
        self._published += 1
        if isinstance(payload, SeriesBatch):
            if self.ledger.tracks(topic):
                self.ledger.published_batch(source, payload)
            tr = payload.trace
            if tr is not None and (t := self._hop_time()) is not None:
                tr.stamp(hop, t)

    def _envelope(self, topic: str, payload, source: str) -> Envelope:
        """Wrap a payload for delivery.  Built only where a tier queues
        or delivers one: a tree batch waits in its leaf unwrapped."""
        self._seq += 1
        return Envelope(topic, payload, source, self._seq)

    def _deliver(self, env: Envelope) -> int:
        """Offer ``env`` to every matching subscription; returns the
        hand-offs.  A raising callback is isolated by ``offer`` and
        never aborts the rest of the fan-out."""
        hits = 0
        for sub in self._route(env.topic):
            if sub.offer(env):
                hits += 1
        self._delivered += hits
        return hits

    def _lost(self, cause: str, topic: str, payload) -> None:
        """Count an envelope the tier lost under ``cause`` (a lane
        eviction, a chaos drop) and account it on the ledger."""
        self._dropped += 1
        if isinstance(payload, SeriesBatch) and self.ledger.tracks(topic):
            self.ledger.lost_batch(cause, payload)

    def _hop_time(self, now: float | None = None) -> float | None:
        """Time to stamp a hop with: ``now`` when the caller supplies it
        (pump), else the attached clock, else None (no clock)."""
        if now is not None:
            return now
        clock = self.clock
        return clock() if clock is not None else None

    @abc.abstractmethod
    def publish(self, topic: str, payload, source: str = "") -> int:
        """Accept one payload for delivery; returns consumers reached
        so far (deferred tiers report 0 until :meth:`pump`)."""

    def pump(self, now: float | None = None) -> int:
        """Deliver whatever is due at ``now``; returns envelopes moved.
        The flat bus holds nothing, so the default moves nothing."""
        return 0

    def flush(self) -> int:
        """Force every buffered envelope out (checkpoint / end of run)."""
        return self.pump(None)

    # -- accounting ---------------------------------------------------------

    def _held(self) -> Iterable[tuple[str, object]]:
        """``(topic, payload)`` of every envelope waiting inside the
        tier (none on the flat bus)."""
        return ()

    def in_flight_points(self) -> int:
        """Tracked points waiting inside the tier (partition queues,
        coalescing windows) — the ledger's ``in_flight`` gauge."""
        tracks = self.ledger.tracks
        return sum(len(p) for tp, p in self._held()
                   if isinstance(p, SeriesBatch) and tracks(tp))

    def lane_depths(self) -> dict[str, int]:
        """Waiting envelopes per lane: partitions or leaves."""
        return {}

    def lane_drops(self) -> dict[str, int]:
        """Cumulative drop-oldest evictions per lane."""
        return {}

    def queue_depths(self) -> dict[str, int]:
        """Lane backlogs, then per-subscription queue depths.

        Subscriptions sharing a name (e.g. two bare-pattern subscribers)
        are disambiguated with a ``#i`` suffix so no depth is shadowed.
        """
        depths = self.lane_depths()
        for i, sub in enumerate(self._subs):
            key = sub.name
            if key in depths:
                key = f"{key}#{i}"
            depths[key] = len(sub)
        return depths

    def _stat_fields(self) -> dict:
        subs = self._subs
        return dict(
            published=self._published,
            delivered=self._delivered,
            dropped=self._dropped + sum(s.dropped for s in subs),
            subscriptions=len(subs),
            errors=sum(s.errors for s in subs),
            queue_depths=self.queue_depths(),
        )

    def stats(self) -> BusStats:
        """Aggregate delivery accounting (self-monitoring surface)."""
        return BusStats(**self._stat_fields())


def make_transport(tier: str) -> Transport:
    """Build the transport a ``SiteConfig.transport`` tier names
    (``"flat"``, ``"partitioned"``, ``"tree"``)."""
    from .aggtree import AggregatorTree
    from .bus import MessageBus
    from .partitioned import PartitionedBus
    builders = {cls.tier: cls
                for cls in (MessageBus, PartitionedBus, AggregatorTree)}
    try:
        builder = builders[tier]
    except (KeyError, TypeError):
        raise ValueError(
            f"unknown transport {tier!r}; expected one of {sorted(builders)}"
        ) from None
    return builder()
