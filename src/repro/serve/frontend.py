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
3. **pyramid planning** — ``downsample``/``aggregate_across`` on a
   step-aligned grid are answered from the coarsest sufficient rollup
   level (:mod:`repro.storage.rollup`), reading pre-aggregated rows
   instead of decompressing chunks; anything the planner cannot prove
   exact falls back to the store's own (summary-pruned) path.

Every answer — cached, pyramid, or fallback — is exactly the answer the
underlying store would give, which the property suite holds as an
invariant.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from ..core.metric import SeriesBatch
from ..storage.rollup import (
    MAX_PLANNER_TIME,
    bucket_anchor,
    choose_level,
    reduce_partials,
    series_first_time,
    series_window_partials,
)
from .cache import QueryResultCache, ResultCacheStats
from .plan import KNOWN_AGGS, QueryPlan
from .quota import TenantGovernor, TenantQuota, TenantStats

__all__ = ["DEFAULT_TENANT", "QueryFrontend", "ServeStats"]

DEFAULT_TENANT = "default"


@dataclass(frozen=True, slots=True)
class ServeStats:
    """Lifetime serving-plane counters (the selfmon/introspect surface)."""

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
    ``query_epoch`` (the result cache's validity token),
    ``_series_view`` and ``pyramid_levels``.  Series that carry rollup
    pyramids (``pyramid_levels=...``) get planner answers; a store
    built without them answers everything from the raw path — same
    answers, fewer shortcuts.
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

    def _note_answer(self, pyramid: bool) -> None:
        with self._lock:
            if pyramid:
                self._pyramid_answers += 1
            else:
                self._raw_answers += 1

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
            batch = self._answer_downsample(plan)
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
            batch = self._answer_aggregate(plan)
            self.result_cache.put(plan, epoch, batch)
            return batch
        finally:
            self.governor.release(tenant)

    # -- the planner --------------------------------------------------------

    def _plannable(self, plan: QueryPlan) -> float | None:
        """The grid anchor when the plan's window/step pass the exactness
        guards, else None (fall back to the store)."""
        if plan.agg not in KNOWN_AGGS or plan.step <= 0:
            return None            # let the store raise its usual errors
        if not np.isfinite(plan.t0):
            return None
        if np.isfinite(plan.t1) and abs(plan.t1) > MAX_PLANNER_TIME:
            return None
        anchor = bucket_anchor(plan.t0, plan.step)
        if abs(anchor) > MAX_PLANNER_TIME:
            return None
        return anchor

    def _series_for(self, metric: str, component: str):
        """(series, chunk cache) when the series is readable and carries
        a pyramid; None otherwise."""
        if not self.store.series_readable(metric, component):
            return None
        sv = self.store._series_view(metric, component)
        if sv is None or sv[0].pyramid is None:
            return None
        return sv

    def _answer_downsample(self, plan: QueryPlan) -> SeriesBatch:
        anchor = self._plannable(plan)
        if anchor is not None:
            sv = self._series_for(plan.metric, plan.component)
            if sv is not None:
                series, chunk_cache = sv
                level = choose_level(series.pyramid.levels, plan.step,
                                     anchor)
                if level is not None:
                    pieces = series_window_partials(
                        series, chunk_cache, level,
                        plan.t0, plan.t1, plan.step, anchor,
                    )
                    if pieces is not None:
                        out_t, out_v = reduce_partials(
                            pieces, anchor, plan.step, plan.agg)
                        self._note_answer(pyramid=True)
                        if not len(out_t):
                            return SeriesBatch.empty(plan.metric)
                        return SeriesBatch.for_component(
                            plan.metric, plan.component, out_t, out_v)
        batch = self.store.downsample(plan.metric, plan.component,
                                      plan.t0, plan.t1, plan.step, plan.agg)
        self._note_answer(pyramid=False)
        return batch

    def _answer_aggregate(self, plan: QueryPlan) -> SeriesBatch:
        batch = self._aggregate_from_pyramid(plan)
        if batch is not None:
            self._note_answer(pyramid=True)
            return batch
        batch = self.store.aggregate_across(
            plan.metric, plan.components, plan.t0, plan.t1,
            plan.step, plan.agg)
        self._note_answer(pyramid=False)
        return batch

    def _aggregate_from_pyramid(self, plan: QueryPlan) -> SeriesBatch | None:
        """Cross-component aggregate from rollup rows, or None to fall back.

        Mirrors the raw path exactly: components iterate in the same
        order (so ``last`` tie-breaks agree), unreadable/missing series
        contribute nothing, and an unbounded ``t0`` anchors at the first
        sample across the selected series.
        """
        if plan.agg not in KNOWN_AGGS or plan.step <= 0:
            return None
        if np.isfinite(plan.t1) and abs(plan.t1) > MAX_PLANNER_TIME:
            return None
        comps = (
            list(plan.components) if plan.components is not None
            else self.store.components(plan.metric)
        )
        views = []
        for c in comps:
            sv = self._series_for(plan.metric, c)
            if sv is None:
                # distinguish "no such readable series" (skip, like the
                # raw path's empty batch) from "series has no pyramid"
                if (self.store.series_readable(plan.metric, c)
                        and self.store._series_view(plan.metric, c)
                        is not None):
                    return None    # pyramid-less series: fall back
                continue
            views.append(sv)
        t0 = plan.t0
        if not np.isfinite(t0):
            if not views:
                return None        # nothing to anchor on; fall back
            t_first = min(series_first_time(s) for s, _ in views)
            if not np.isfinite(t_first):
                return None
            t0 = bucket_anchor(t_first, plan.step)
        if abs(t0) > MAX_PLANNER_TIME:
            return None
        anchor = bucket_anchor(t0, plan.step)
        levels = self.store.pyramid_levels
        if not levels:
            return None
        level = choose_level(levels, plan.step, anchor)
        if level is None:
            return None
        pieces: list[tuple[np.ndarray, ...]] = []
        piece_comp: list[int] = []
        for idx, (series, chunk_cache) in enumerate(views):
            ps = series_window_partials(series, chunk_cache, level,
                                        t0, plan.t1, plan.step, anchor)
            if ps is None:
                return None        # window has no full bucket
            pieces.extend(ps)
            piece_comp.extend([idx] * len(ps))
        out_t, out_v = reduce_partials(pieces, anchor, plan.step, plan.agg,
                                       piece_comp=piece_comp)
        if not len(out_t):
            return SeriesBatch.empty(plan.metric)
        return SeriesBatch.for_component(plan.metric, f"agg({plan.agg})",
                                         out_t, out_v)

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
