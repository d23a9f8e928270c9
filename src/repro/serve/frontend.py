"""The multi-tenant query front end over any series store.

:class:`QueryFrontend` exposes the familiar store query surface
(``query`` / ``query_components`` / ``latest`` / ``downsample`` /
``aggregate_across`` / ``components``) with three serving-plane
behaviors layered on:

1. **admission** — every call names a ``tenant``; the
   :class:`~repro.serve.quota.TenantGovernor` sheds over-budget tenants
   by returning an *empty* answer (accounted, never raised),
2. **result caching** — answers are cached in the one byte-bounded
   :class:`~repro.storage.chunkcache.LRUCache` under their normalized
   :class:`~repro.serve.plan.QueryPlan` and revalidated against the
   store's per-metric mutation epoch, so repeated dashboard reads
   between ingest ticks cost a dict lookup,
3. **counting** — ``downsample``/``aggregate_across`` go through the
   store's one bucketed read (``SeriesQueryMixin._bucketed_read``: the
   ``bucket_partials`` step over
   :func:`repro.storage.rollup.group_partials`,
   :func:`~repro.storage.rollup.series_partials` and
   :func:`~repro.storage.rollup.head_partials`, then one
   :func:`~repro.storage.rollup.reduce_partials`), and the front end
   counts whether each answer read rollup rows or only chunk summaries
   and samples.  A federated aggregate asks for the same read stopped
   before its reduce (:meth:`QueryFrontend.partials`).

The front end does no arithmetic of its own: every answer — cached or
not — is exactly the answer the underlying store would give, which the
property suite holds as an invariant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from ..core.metric import SeriesBatch
from ..storage.chunkcache import CacheStats, LRUCache
from ..storage.rollup import bucket_anchor, check_step
from .plan import QueryPlan
from .quota import TenantGovernor, TenantQuota, TenantStats

__all__ = ["DEFAULT_TENANT", "QueryFrontend", "ServeStats"]

DEFAULT_TENANT = "default"

#: fixed accounting overhead per cached answer (key + bookkeeping)
_ENTRY_OVERHEAD = 128


def _answer_bytes(answer) -> int:
    """Approximate footprint of an answer: a
    :class:`~repro.core.metric.SeriesBatch`, a dict of them (the
    ``query_components`` shape), the arrays of a :meth:`partials`
    answer, or a scalar.  A partials array may be a slice of a rollup
    level, which it keeps alive whole: it counts as that level."""
    if isinstance(answer, SeriesBatch):
        return int(answer.times.nbytes + answer.values.nbytes) + 32
    if isinstance(answer, np.ndarray):
        base = answer.base
        return int((base if isinstance(base, np.ndarray) else answer).nbytes)
    if isinstance(answer, dict):
        return sum(map(_answer_bytes, answer.values()))
    if isinstance(answer, (tuple, list)):
        return sum(map(_answer_bytes, answer))
    return 8


@dataclass(frozen=True, slots=True)
class ServeStats:
    """Lifetime serving-plane counters (the selfmon/introspect surface).

    A bucketed answer counts under ``pyramid_answers`` when every
    contributing series read rollup rows, under ``raw_answers`` when it
    came from chunk summaries and samples only.  ``tenants`` holds each
    tenant's admission counters.
    """

    queries: int
    rejected: int
    pyramid_answers: int
    raw_answers: int
    cache: CacheStats
    tenants: dict[str, TenantStats]

    @property
    def admitted(self) -> int:
        return self.queries - self.rejected

    @property
    def cache_hit_ratio(self) -> float:
        return self.cache.hit_ratio

    @property
    def pyramid_ratio(self) -> float:
        planned = self.pyramid_answers + self.raw_answers
        return self.pyramid_answers / planned if planned else 0.0


class QueryFrontend:
    """Multi-tenant read path over one store (plain or sharded).

    The store is a :class:`~repro.storage.tsdb.TimeSeriesStore` or a
    :class:`~repro.storage.sharded.ShardedTimeSeriesStore`: both carry
    the :class:`~repro.storage.tsdb.SeriesQueryMixin` surface plus
    ``query_epoch`` (the result cache's validity token), and every
    series folds rollup pyramids, so a bucketed read answers whole
    buckets from rollup rows where a level tiles the step.  Every read
    method is one :meth:`_serve`: admit, probe the result cache, answer,
    cache the answer.
    """

    def __init__(
        self,
        store,
        quotas: Mapping[str, TenantQuota] | None = None,
        clock: Callable[[], float] | None = None,
    ) -> None:
        self.store = store
        self.result_cache = LRUCache(16 << 20)
        self.governor = TenantGovernor(quotas, clock=clock)
        self._queries = 0
        self._rejected = 0
        self._pyramid_answers = 0
        self._raw_answers = 0

    def _serve(self, tenant: str, plan: QueryPlan | None,
               empty: Callable[[], object], answer: Callable[[], object]):
        """The one read path.  A shed tenant gets ``empty()`` (accounted,
        never raised); an admitted one gets the cached answer to
        ``plan`` if the metric has not moved since, else ``answer()``,
        which is then cached (``plan=None``: never cached)."""
        self._queries += 1
        if not self.governor.admit(tenant):
            self._rejected += 1
            return empty()
        if plan is None:
            return answer()
        epoch = self.store.query_epoch(plan.metric)
        out = self.result_cache.get(plan, epoch)
        if out is None:
            out = answer()
            self.result_cache.put(
                plan, out, _answer_bytes(out) + _ENTRY_OVERHEAD, epoch)
        return out

    # -- the store query surface --------------------------------------------

    def components(self, metric: str,
                   tenant: str = DEFAULT_TENANT) -> list[str]:
        return self._serve(tenant, None, list,
                           lambda: self.store.components(metric))

    def query(self, metric: str, component: str,
              t0: float = -np.inf, t1: float = np.inf,
              tenant: str = DEFAULT_TENANT) -> SeriesBatch:
        plan = QueryPlan.range_query(metric, component, t0, t1)
        return self._serve(
            tenant, plan, lambda: SeriesBatch.empty(metric),
            lambda: self.store.query(metric, plan.component, plan.t0, plan.t1))

    def query_components(
        self,
        metric: str,
        components: Sequence[str] | None = None,
        t0: float = -np.inf,
        t1: float = np.inf,
        tenant: str = DEFAULT_TENANT,
    ) -> dict[str, SeriesBatch]:
        plan = QueryPlan.sweep(metric, components, t0, t1)
        return self._serve(
            tenant, plan, dict, lambda: self.store.query_components(
                metric, plan.components, plan.t0, plan.t1))

    def latest(
        self,
        metric: str,
        components: Sequence[str] | None = None,
        t0: float = -np.inf,
        t1: float = np.inf,
        tenant: str = DEFAULT_TENANT,
    ) -> SeriesBatch:
        """Each series' newest sample in ``[t0, t1)``, one batch: the
        store's instant read (a status tile's question)."""
        plan = QueryPlan.latest(metric, components, t0, t1)
        return self._serve(
            tenant, plan, lambda: SeriesBatch.empty(metric),
            lambda: self.store.latest(metric, plan.components, plan.t0,
                                      plan.t1))

    def downsample(self, metric: str, component: str, t0: float, t1: float,
                   step: float, agg: str = "mean",
                   tenant: str = DEFAULT_TENANT) -> SeriesBatch:
        plan = QueryPlan.downsample(metric, component, t0, t1, step, agg)
        return self._serve(
            tenant, plan, lambda: SeriesBatch.empty(metric),
            lambda: self._bucketed(plan, [plan.component], plan.component))

    def aggregate_across(
        self,
        metric: str,
        components: Sequence[str] | None = None,
        t0: float = -np.inf,
        t1: float = np.inf,
        step: float = 60.0,
        agg: str = "sum",
        tenant: str = DEFAULT_TENANT,
    ) -> SeriesBatch:
        plan = QueryPlan.aggregate(metric, components, t0, t1, step, agg)
        return self._serve(
            tenant, plan, lambda: SeriesBatch.empty(metric),
            lambda: self._bucketed(plan, plan.components,
                                   f"agg({plan.agg})"))

    # -- the federation's reads: one call per site ---------------------------

    def partials(self, metric: str, components: Sequence[str] | None,
                 t0: float, t1: float, step: float,
                 tenant: str = DEFAULT_TENANT) -> tuple[list, list, bool]:
        """The store's ``bucket_partials`` over ``[t0, t1)`` on the
        ``(bucket_anchor(t0, step), step)`` grid; its plan leaves ``agg``
        empty, so one answer serves every agg.  ``t0`` is finite (see
        :meth:`first_time`); a shed tenant gets no pieces.  A step that
        is not positive and finite is refused before admission."""
        check_step(step)
        plan = QueryPlan.aggregate(metric, components, t0, t1, step, "")
        return self._serve(
            tenant, plan, lambda: ([], [], False),
            lambda: self._count(self.store.bucket_partials(
                metric, plan.components, plan.t0, plan.t1, plan.step,
                bucket_anchor(plan.t0, plan.step))))

    def first_time(self, metric: str, components: Sequence[str] | None,
                   tenant: str = DEFAULT_TENANT) -> float:
        """Earliest sample time across a selection (``inf``: none, or
        shed) — where an unbounded aggregate anchors its grid."""
        plan = QueryPlan.first_time(metric, components)
        return self._serve(
            tenant, plan, lambda: np.inf,
            lambda: self.store.first_time(metric, plan.components))

    # -- the bucketed read, counted ------------------------------------------

    def _count(self, answer: tuple):
        """Count whether a bucketed answer (``rollup`` last) read rollup
        rows or only chunk summaries and samples; pass it through."""
        if answer[-1]:
            self._pyramid_answers += 1
        else:
            self._raw_answers += 1
        return answer

    def _bucketed(self, plan: QueryPlan, components: Sequence[str] | None,
                  label: str) -> SeriesBatch:
        """Answer a downsample / aggregate plan through the store's one
        bucketed read and count which sources it drew on."""
        return self._count(self.store._bucketed_read(
            plan.metric, components, plan.t0, plan.t1, plan.step, plan.agg,
            label))[0]

    # -- stats --------------------------------------------------------------

    def stats(self) -> ServeStats:
        return ServeStats(
            queries=self._queries,
            rejected=self._rejected,
            pyramid_answers=self._pyramid_answers,
            raw_answers=self._raw_answers,
            cache=self.result_cache.stats(),
            tenants=self.governor.all_stats(),
        )

    def tenant_stats(self, tenant: str) -> TenantStats:
        return self.governor.tenant_stats(tenant)

    @property
    def rejected(self) -> int:
        """Reads shed so far (``stats().rejected`` without the rest)."""
        return self._rejected
