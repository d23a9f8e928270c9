"""The multi-tenant query front end over any series store.

:class:`QueryFrontend` exposes the familiar store query surface
(``query`` / ``query_components`` / ``downsample`` / ``aggregate_across``
/ ``components``) with three serving-plane behaviors layered on:

1. **admission** — every call names a ``tenant``; the
   :class:`~repro.serve.quota.TenantGovernor` sheds over-budget tenants
   by returning an *empty* answer (accounted, never raised),
2. **result caching** — answers are cached under their normalized
   :class:`~repro.serve.plan.QueryPlan` and revalidated against the
   store's per-metric mutation epoch, so repeated dashboard reads
   between ingest ticks cost a dict lookup,
3. **counting** — ``downsample``/``aggregate_across`` go through the
   store's one bucketed read (``SeriesQueryMixin._bucketed_read`` over
   :func:`repro.storage.rollup.series_partials` and
   :func:`~repro.storage.rollup.head_partials`), and the front end
   counts whether each answer read rollup rows or only chunk summaries
   and samples.

The front end does no arithmetic of its own: every answer — cached or
not — is exactly the answer the underlying store would give, which the
property suite holds as an invariant.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from ..core.metric import SeriesBatch
from .cache import QueryResultCache, ResultCacheStats
from .plan import QueryPlan
from .quota import TenantGovernor, TenantQuota, TenantStats

__all__ = ["DEFAULT_TENANT", "QueryFrontend", "ServeStats"]

DEFAULT_TENANT = "default"


@dataclass(frozen=True, slots=True)
class ServeStats:
    """Lifetime serving-plane counters (the selfmon/introspect surface).

    A bucketed answer counts under ``pyramid_answers`` when every
    contributing series read rollup rows, under ``raw_answers`` when it
    came from chunk summaries and samples only.
    """

    queries: int
    rejected: int
    pyramid_answers: int
    raw_answers: int
    cache: ResultCacheStats

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
    ``query_epoch`` (the result cache's validity token).  Series that
    carry rollup pyramids (``pyramid_levels=...``) answer whole buckets
    from rollup rows; a store built without them answers everything
    from chunk summaries and samples — same answers, fewer shortcuts.
    """

    def __init__(
        self,
        store,
        quotas: Mapping[str, TenantQuota] | None = None,
        default_quota: TenantQuota = TenantQuota(),
        cache: QueryResultCache | None = None,
        clock: Callable[[], float] | None = None,
    ) -> None:
        self.store = store
        self.result_cache = cache if cache is not None else QueryResultCache()
        self.governor = TenantGovernor(quotas, default=default_quota,
                                       clock=clock)
        self._lock = threading.Lock()
        self._queries = 0
        self._rejected = 0
        self._pyramid_answers = 0
        self._raw_answers = 0

    # -- admission / caching scaffolding ------------------------------------

    def _admit(self, tenant: str) -> bool:
        ok = self.governor.admit(tenant)
        with self._lock:
            self._queries += 1
            if not ok:
                self._rejected += 1
        return ok

    def _cached(self, plan: QueryPlan):
        epoch = self.store.query_epoch(plan.metric)
        return self.result_cache.get(plan, epoch), epoch

    # -- the store query surface --------------------------------------------

    def components(self, metric: str,
                   tenant: str = DEFAULT_TENANT) -> list[str]:
        if not self._admit(tenant):
            return []
        try:
            return self.store.components(metric)
        finally:
            self.governor.release(tenant)

    def query(self, metric: str, component: str,
              t0: float = -np.inf, t1: float = np.inf,
              tenant: str = DEFAULT_TENANT) -> SeriesBatch:
        if not self._admit(tenant):
            return SeriesBatch.empty(metric)
        try:
            plan = QueryPlan.range_query(metric, component, t0, t1)
            hit, epoch = self._cached(plan)
            if hit is not None:
                return hit
            batch = self.store.query(metric, component, t0, t1)
            self.result_cache.put(plan, epoch, batch)
            return batch
        finally:
            self.governor.release(tenant)

    def query_components(
        self,
        metric: str,
        components: Sequence[str] | None = None,
        t0: float = -np.inf,
        t1: float = np.inf,
        tenant: str = DEFAULT_TENANT,
    ) -> dict[str, SeriesBatch]:
        if not self._admit(tenant):
            return {}
        try:
            plan = QueryPlan.sweep(metric, components, t0, t1)
            hit, epoch = self._cached(plan)
            if hit is not None:
                return hit
            out = self.store.query_components(metric, components, t0, t1)
            self.result_cache.put(plan, epoch, out)
            return out
        finally:
            self.governor.release(tenant)

    def downsample(self, metric: str, component: str, t0: float, t1: float,
                   step: float, agg: str = "mean",
                   tenant: str = DEFAULT_TENANT) -> SeriesBatch:
        if not self._admit(tenant):
            return SeriesBatch.empty(metric)
        try:
            plan = QueryPlan.downsample(metric, component, t0, t1, step, agg)
            hit, epoch = self._cached(plan)
            if hit is not None:
                return hit
            batch = self._bucketed(plan, [plan.component], plan.component)
            self.result_cache.put(plan, epoch, batch)
            return batch
        finally:
            self.governor.release(tenant)

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
        if not self._admit(tenant):
            return SeriesBatch.empty(metric)
        try:
            plan = QueryPlan.aggregate(metric, components, t0, t1, step, agg)
            hit, epoch = self._cached(plan)
            if hit is not None:
                return hit
            batch = self._bucketed(plan, plan.components,
                                   f"agg({plan.agg})")
            self.result_cache.put(plan, epoch, batch)
            return batch
        finally:
            self.governor.release(tenant)

    # -- the bucketed read, counted ------------------------------------------

    def _bucketed(self, plan: QueryPlan, components: Sequence[str] | None,
                  label: str) -> SeriesBatch:
        """Answer a downsample / aggregate plan through the store's one
        bucketed read and count which sources it drew on."""
        batch, rollup = self.store._bucketed_read(
            plan.metric, components, plan.t0, plan.t1, plan.step, plan.agg,
            label)
        with self._lock:
            if rollup:
                self._pyramid_answers += 1
            else:
                self._raw_answers += 1
        return batch

    # -- stats --------------------------------------------------------------

    def stats(self) -> ServeStats:
        with self._lock:
            return ServeStats(
                queries=self._queries,
                rejected=self._rejected,
                pyramid_answers=self._pyramid_answers,
                raw_answers=self._raw_answers,
                cache=self.result_cache.stats(),
            )

    def tenants(self) -> list[str]:
        return self.governor.tenants()

    def tenant_stats(self, tenant: str) -> TenantStats:
        return self.governor.tenant_stats(tenant)
