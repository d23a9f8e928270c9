"""End-to-end delivery accounting: loss is a number, never a silence.

The paper's sites name *silent* loss (UDP syslog, LDMS drops) a top
pain point — not loss itself, but loss nobody can quantify.  The
:class:`DeliveryLedger` closes that gap with exact point accounting on
the metric data path:

* every transport stamps ``published`` at ``publish()`` time for each
  tracked :class:`~repro.core.metric.SeriesBatch`;
* the store-ingest side stamps ``stored`` for every point that lands in
  the TSDB;
* every loss site on the way — partition drop-oldest, aggtree leaf
  overflow, chaos-injected drops, store errors, redo-buffer eviction —
  stamps ``lost`` with a cause label.

The balance identity, checked by :meth:`DeliveryLedger.balance`::

    published == stored + lost + pending + in_flight

``pending`` (points parked in a failed shard's redo buffer) and
``in_flight`` (points buffered inside a transport's queues/windows) are
*live gauges* read from the components, not ledger counters — after a
``flush()`` with all shards recovered both are zero and the identity
collapses to the headline ``published == stored + accounted_lost``.
An injected duplicate is two publishes of the same points — both stamp
``published`` and both land (or are lost) downstream, so the identity
holds; the ``duplicated`` counter is a diagnostic marking how many of
those published points were fault-injected extras, not a balance term.

All ledger counters are monotone in normal operation; the single
documented exception is :meth:`DeliveryLedger.account_crash`, the
crash-recovery reconciliation: points that were ``stored`` but sat past
the disk tier's last fsync when the process died are moved from
``stored`` to ``lost`` under a named cause — the identity stays exact
across a hard crash, and the loss is a number, never a silence.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from repro.core.metric import SeriesBatch

__all__ = ["DeliveryLedger", "BalanceReport", "TRACKED_TOPIC_PATTERNS"]

# Topic prefixes whose SeriesBatch payloads are accounted.  Event topics
# carry Event payloads (no points) and stay outside the ledger.
TRACKED_TOPIC_PATTERNS: tuple[str, ...] = ("metrics.", "selfmon.")


@dataclass(frozen=True, slots=True)
class BalanceReport:
    """One reconciliation snapshot of the ledger identity."""

    published: int
    duplicated: int
    stored: int
    lost: int
    pending: int
    in_flight: int
    lost_by_cause: dict[str, int] = field(default_factory=dict)

    @property
    def unaccounted(self) -> int:
        """The residual of the balance identity — zero iff every
        published point is stored, accounted lost, or visibly parked."""
        return (self.published
                - self.stored - self.lost - self.pending - self.in_flight)

    @property
    def balanced(self) -> bool:
        return self.unaccounted == 0

    def render(self) -> str:
        lines = [
            "delivery ledger",
            f"  published points    {self.published:12d}",
            f"  of which duplicated {self.duplicated:12d}",
            f"  stored points       {self.stored:12d}",
            f"  lost (accounted)    {self.lost:12d}",
        ]
        for cause in sorted(self.lost_by_cause):
            lines.append(
                f"    {cause:<18s}{self.lost_by_cause[cause]:12d}"
            )
        lines.append(f"  pending (redo)      {self.pending:12d}")
        lines.append(f"  in flight           {self.in_flight:12d}")
        lines.append(f"  unaccounted         {self.unaccounted:12d}")
        verdict = ("balanced: published == "
                   "stored + lost + pending + in_flight"
                   if self.balanced else "IMBALANCED — silent loss!")
        lines.append(f"  {verdict}")
        return "\n".join(lines)


class DeliveryLedger:
    """Monotone per-(source, metric) point accounting across the path.

    Transports call :meth:`published_batch` inside ``publish()``; the
    store-ingest callback calls :meth:`stored_batch`; every loss site
    calls :meth:`lost_batch`/:meth:`lost_points` with its cause.  The
    ledger itself never touches the data — it only counts.
    """

    __slots__ = ("published", "stored", "lost", "duplicated", "_topic_memo")

    def __init__(self) -> None:
        # (source, metric) -> points published at the transport edge
        self.published: defaultdict[tuple[str, str], int] = defaultdict(int)
        # metric -> points confirmed appended to the store
        self.stored: defaultdict[str, int] = defaultdict(int)
        # (cause, metric) -> points dropped with a known cause
        self.lost: defaultdict[tuple[str, str], int] = defaultdict(int)
        # metric -> extra deliveries from duplication faults (diagnostic)
        self.duplicated: defaultdict[str, int] = defaultdict(int)
        self._topic_memo: dict[str, bool] = {}

    # -- stamping ------------------------------------------------------------

    def tracks(self, topic: str) -> bool:
        """Is ``topic`` on the accounted data path? (memoized)"""
        hit = self._topic_memo.get(topic)
        if hit is None:
            hit = topic.startswith(TRACKED_TOPIC_PATTERNS)
            if len(self._topic_memo) > 4096:
                self._topic_memo.clear()
            self._topic_memo[topic] = hit
        return hit

    def published_batch(self, source: str, batch: SeriesBatch) -> None:
        self.published[(source, batch.metric)] += len(batch)

    def stored_batch(self, batch: SeriesBatch, n: int | None = None) -> None:
        self.stored[batch.metric] += len(batch) if n is None else n

    def stored_points(self, metric: str, n: int) -> None:
        self.stored[metric] += n

    def lost_batch(self, cause: str, batch: SeriesBatch) -> None:
        self.lost[(cause, batch.metric)] += len(batch)

    def lost_points(self, cause: str, metric: str, n: int) -> None:
        self.lost[(cause, metric)] += n

    def duplicated_batch(self, batch: SeriesBatch) -> None:
        self.duplicated[batch.metric] += len(batch)

    # -- totals --------------------------------------------------------------

    def published_total(self) -> int:
        return sum(self.published.values())

    def stored_total(self) -> int:
        return sum(self.stored.values())

    def lost_total(self) -> int:
        return sum(self.lost.values())

    def duplicated_total(self) -> int:
        return sum(self.duplicated.values())

    def lost_by_cause(self) -> dict[str, int]:
        out: defaultdict[str, int] = defaultdict(int)
        for (cause, _metric), n in self.lost.items():
            out[cause] += n
        return dict(out)

    # -- reconciliation ------------------------------------------------------

    def account_crash(
        self,
        durable: "dict[str, int]",
        cause: str = "crash-unsynced",
    ) -> int:
        """Re-baseline ``stored`` to what actually survived a crash.

        ``durable`` is the recovered store's per-metric point count
        (``points_by_metric()``).  For each metric the shortfall
        ``stored - durable`` — points acknowledged into the store but
        past the WAL/segment fsync horizon when the process died — is
        moved from ``stored`` to ``lost`` under ``cause``.  This is the
        one deliberately non-monotone ledger operation (see module
        docstring); it keeps ``published == stored + lost + pending +
        in_flight`` exact across a hard crash.  Returns total points
        moved.
        """
        moved = 0
        for metric, n in list(self.stored.items()):
            delta = n - int(durable.get(metric, 0))
            if delta > 0:
                self.stored[metric] = n - delta
                self.lost[(cause, metric)] += delta
                moved += delta
        return moved

    def balance(self, pending: int = 0, in_flight: int = 0) -> BalanceReport:
        """Reconcile: live ``pending`` (store redo buffers) and
        ``in_flight`` (transport queues/windows) gauges are supplied by
        the caller from the components' own surfaces."""
        return BalanceReport(
            published=self.published_total(),
            duplicated=self.duplicated_total(),
            stored=self.stored_total(),
            lost=self.lost_total(),
            pending=int(pending),
            in_flight=int(in_flight),
            lost_by_cause=self.lost_by_cause(),
        )
