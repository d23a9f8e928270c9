"""Cross-site federated reads over per-site query front ends.

:class:`FederatedFrontend` is the MPCDF-style single query surface over
N heterogeneous sites: every component name is qualified as
``"site/component"``, single-series calls route to the owning site's
:class:`~repro.serve.frontend.QueryFrontend` (admission, caching, and
planning all happen *there*, so per-site tenancy and quotas stay
intact), and ``aggregate_across`` fans out raw per-site reads and
merges them through the partial-column machinery
(:func:`~repro.storage.rollup.fold_partials` /
:func:`~repro.storage.rollup.reduce_partials`) — the same columns the
rollup pyramids use — so a cross-site answer is bit-exact against
concatenating the per-site raw reads into one store.

Unreachable sites mirror the failed-shard semantics of the sharded
store: a site that is marked down (or whose front end raises) is
skipped, the answer covers the remaining sites, and the degradation is
*accounted* — ``stats()`` reports the partial answers and per-site
errors rather than anyone seeing an exception.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..core.metric import SeriesBatch
from ..storage.rollup import (bucket_anchor, check_bucketing, fold_partials,
                              reduce_partials)
from .frontend import DEFAULT_TENANT, QueryFrontend

__all__ = ["FederatedFrontend", "FederatedStats"]


@dataclass(frozen=True)
class FederatedStats:
    """Lifetime federation counters (the accounted-degradation surface)."""

    sites: int                 # participating front ends
    queries: int               # federated calls answered
    fanouts: int               # per-site sub-calls issued
    partial_answers: int       # answers missing >= 1 site
    site_errors: Mapping[str, int]   # raises swallowed, per site
    down: tuple[str, ...]      # sites currently marked unreachable


class FederatedFrontend:
    """One read surface over many per-site :class:`QueryFrontend`s."""

    def __init__(self, frontends: Mapping[str, QueryFrontend]) -> None:
        if not frontends:
            raise ValueError("a federation needs at least one site")
        for name in frontends:
            if not name or "/" in name:
                raise ValueError(
                    f"bad site name {name!r}: must be non-empty, no '/'"
                )
        self.frontends: dict[str, QueryFrontend] = dict(frontends)
        self._down: set[str] = set()
        self._queries = 0
        self._fanouts = 0
        self._partial_answers = 0
        self._site_errors: dict[str, int] = {}

    # -- site reachability --------------------------------------------------

    def sites(self) -> list[str]:
        return list(self.frontends)

    def mark_down(self, site: str) -> None:
        """Declare a site unreachable (network partition, maintenance)."""
        self._check_site(site)
        self._down.add(site)

    def mark_up(self, site: str) -> None:
        self._check_site(site)
        self._down.discard(site)

    def _check_site(self, site: str) -> None:
        if site not in self.frontends:
            raise ValueError(
                f"unknown site {site!r}; federation has: "
                f"{', '.join(self.frontends)}"
            )

    def _split(self, component: str) -> tuple[str, str]:
        site, sep, local = component.partition("/")
        if not sep:
            raise ValueError(
                f"federated component names are 'site/component'; got "
                f"{component!r}"
            )
        self._check_site(site)
        return site, local

    # -- per-site sub-calls, with accounted degradation ---------------------

    def _site_call(self, site: str, fn, default):
        """One fan-out leg; a down or raising site yields ``default``.

        Returns ``(result, ok)`` — the caller folds ``ok`` into the
        partial-answer accounting, mirroring how the sharded store turns
        a failed shard into an accounted partial result instead of an
        exception.
        """
        self._fanouts += 1
        if site in self._down:
            return default, False
        try:
            return fn(), True
        except Exception:    # swallow: allowed — degraded sites are
            # accounted in stats(), not raised to the reader
            self._site_errors[site] = self._site_errors.get(site, 0) + 1
            return default, False

    def _note_query(self, complete: bool) -> None:
        self._queries += 1
        if not complete:
            self._partial_answers += 1

    # -- the familiar query surface, site-qualified -------------------------

    def _listing(self, metric: str,
                 tenant: str) -> list[tuple[str, list[str], bool]]:
        """Every site's own components, in site order: ``(site, comps,
        ok)`` (an unreachable site lists nothing, ``ok`` False)."""
        return [(site, *self._site_call(
                    site, lambda fe=fe: fe.components(metric, tenant=tenant),
                    []))
                for site, fe in self.frontends.items()]

    def components(self, metric: str,
                   tenant: str = DEFAULT_TENANT) -> list[str]:
        """All sites' components, qualified ``site/component``."""
        listing = self._listing(metric, tenant)
        self._note_query(all(ok for _, _, ok in listing))
        return [f"{site}/{c}" for site, comps, _ in listing for c in comps]

    def _routed(self, metric: str, component: str, call) -> SeriesBatch:
        """One series' read, routed to the owning site's front end as
        ``call(frontend, local_component)``."""
        site, local = self._split(component)
        fe = self.frontends[site]
        batch, ok = self._site_call(site, lambda: call(fe, local),
                                    SeriesBatch.empty(metric))
        self._note_query(ok)
        return batch

    def query(self, metric: str, component: str,
              t0: float = -np.inf, t1: float = np.inf,
              tenant: str = DEFAULT_TENANT) -> SeriesBatch:
        return self._routed(metric, component, lambda fe, local: fe.query(
            metric, local, t0, t1, tenant=tenant))

    def downsample(self, metric: str, component: str, t0: float, t1: float,
                   step: float, agg: str = "mean",
                   tenant: str = DEFAULT_TENANT) -> SeriesBatch:
        """Route one site's downsample; exactness holds site-locally."""
        return self._routed(
            metric, component, lambda fe, local: fe.downsample(
                metric, local, t0, t1, step, agg, tenant=tenant))

    def _read(
        self,
        metric: str,
        components: Sequence[str] | None,
        t0: float,
        t1: float,
        tenant: str,
    ) -> list[tuple[str, str, SeriesBatch]]:
        """The one fan-out read: ``(site, local, batch)`` per selected
        component its site answered, each read through that site's front
        end (per-site admission applies), and the query counted partial
        if any site was down or raised.

        ``None`` selects every component of every site, in site order
        then each site's own component order — exactly the order one
        merged store holding ``site/component`` series site-major would
        enumerate, which is what keeps ``last`` tie-breaks oracle-exact.
        A repeat in an explicit selection counts once, first position
        wins — the merged store's ``query_components`` dict order.
        """
        if components is None:
            listing = self._listing(metric, tenant)
            complete = all(ok for _, _, ok in listing)
            wanted = [(site, c) for site, comps, _ in listing for c in comps]
        else:
            complete = True
            wanted = [self._split(c) for c in dict.fromkeys(components)]
        reads = []
        for site, local in wanted:
            if not local:
                continue
            fe = self.frontends[site]
            batch, ok = self._site_call(
                site, lambda: fe.query(metric, local, t0, t1, tenant=tenant),
                None)
            complete = complete and ok
            if ok:
                reads.append((site, local, batch))
        self._note_query(complete)
        return reads

    def query_components(
        self,
        metric: str,
        components: Sequence[str] | None = None,
        t0: float = -np.inf,
        t1: float = np.inf,
        tenant: str = DEFAULT_TENANT,
    ) -> dict[str, SeriesBatch]:
        """Per-component batches across sites, qualified keys."""
        return {f"{site}/{local}": batch for site, local, batch
                in self._read(metric, components, t0, t1, tenant)}

    # -- the cross-site exact merge -----------------------------------------

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
        """Cross-site aggregate, exact via partial-column merging.

        Each selected component's raw window comes from the one fan-out
        read, is folded into partial columns on the shared
        ``(anchor, step)`` grid, and merged with :func:`reduce_partials`
        ranked by site-major component position — reproducing
        bit-for-bit the stable time-sort concat the raw single-store
        path performs.  Unreachable sites contribute nothing and the
        answer is counted partial.
        """
        check_bucketing(agg, step)
        batches = [b for _, _, b in self._read(metric, components, t0, t1,
                                                tenant) if len(b)]
        if not batches:
            return SeriesBatch.empty(metric)
        lo = (
            t0 if np.isfinite(t0)
            else min(float(b.times[0]) for b in batches)
        )
        anchor = bucket_anchor(lo, step)
        pieces = [
            fold_partials(b.times, b.values, anchor, step) for b in batches
        ]
        out_t, out_v = reduce_partials(
            pieces, anchor, step, agg, piece_comp=range(len(pieces))
        )
        if not len(out_t):
            return SeriesBatch.empty(metric)
        return SeriesBatch.for_component(metric, f"agg({agg})", out_t, out_v)

    # -- stats ---------------------------------------------------------------

    def stats(self) -> FederatedStats:
        return FederatedStats(
            sites=len(self.frontends),
            queries=self._queries,
            fanouts=self._fanouts,
            partial_answers=self._partial_answers,
            site_errors=dict(self._site_errors),
            down=tuple(sorted(self._down)),
        )
