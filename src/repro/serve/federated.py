"""Cross-site federated reads over per-site query front ends.

:class:`FederatedFrontend` is the MPCDF-style single query surface over
N heterogeneous sites: every component name is qualified as
``"site/component"``, and a read is one call per site asked, to that
site's :class:`~repro.serve.frontend.QueryFrontend` (admission, caching
and rollup planning all happen *there*, so per-site tenancy and quotas
stay intact).  ``aggregate_across`` is the paper's aggregation tree
applied to reads: each site answers with its partial columns on the
shared ``(anchor, step)`` grid (``QueryFrontend.partials``) and one
:func:`~repro.storage.rollup.reduce_partials` merges them, ranked by
selection position — a site's seal-group piece re-ranked as one
``(K,)`` column, so it stays one piece — and a cross-site answer is
the answer of one store holding every ``site/component`` series.

Unreachable sites mirror the failed-shard semantics of the sharded
store: a site that is marked down, sheds the tenant, or whose front
end raises is skipped, the answer covers the remaining sites, and the
degradation is *accounted* — ``stats()`` reports the partial answers
and per-site errors (raises only) rather than anyone seeing an
exception.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..core.metric import SeriesBatch
from ..storage.rollup import bucket_anchor, check_bucketing, reduce_partials
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

    def _asks(self, components: Sequence[str] | None
              ) -> list[tuple[str, list[str] | None, np.ndarray | None]]:
        """Whom a selection asks, in site order: ``(site, local, ranks)``
        per site it touches.  ``None`` asks every site for everything
        (``local``, ``ranks`` None; a piece ranks site-major, as one
        merged store would enumerate ``site/component``).  An explicit
        selection asks each site for its components in selection order,
        a repeat counting once (first position wins); ``ranks[i]`` is
        the selection position of the site's ``i``-th component.
        """
        if components is None:
            return [(site, None, None) for site in self.frontends]
        by_site: dict[str, tuple[list[str], list[int]]] = {}
        for pos, c in enumerate(dict.fromkeys(components)):
            site, local = self._split(c)
            if local:
                comps, ranks = by_site.setdefault(site, ([], []))
                comps.append(local)
                ranks.append(pos)
        return [(site, by_site[site][0], np.asarray(by_site[site][1]))
                for site in self.frontends if site in by_site]

    def _fan_out(self, asks, call) -> tuple[dict[str, object], bool]:
        """One site call per ask, ``call(frontend, local)``: the answers
        of the sites that gave one, in site order, and whether every
        site asked did.

        A site that is marked down, sheds the tenant or raises gives no
        answer — mirroring how the sharded store turns a failed shard
        into an accounted partial result instead of an exception.  Only
        a raise counts as a site error.
        """
        got = {}
        for site, local, _ in asks:
            self._fanouts += 1
            if site in self._down:
                continue
            fe = self.frontends[site]
            shed = fe.rejected
            try:
                out = call(fe, local)
            except Exception:    # swallow: allowed — degraded sites are
                # accounted in stats(), not raised to the reader
                self._site_errors[site] = self._site_errors.get(site, 0) + 1
                continue
            if fe.rejected == shed:
                got[site] = out
        return got, len(got) == len(asks)

    def _note_query(self, complete: bool) -> None:
        self._queries += 1
        if not complete:
            self._partial_answers += 1

    # -- the familiar query surface, site-qualified -------------------------

    def components(self, metric: str,
                   tenant: str = DEFAULT_TENANT) -> list[str]:
        """All sites' components, qualified ``site/component``."""
        got, complete = self._fan_out(
            self._asks(None),
            lambda fe, _: fe.components(metric, tenant=tenant))
        self._note_query(complete)
        return [f"{site}/{c}" for site, comps in got.items() for c in comps]

    def _routed(self, metric: str, component: str, call) -> SeriesBatch:
        """One series' read, routed to the owning site's front end as
        ``call(frontend, local_component)``."""
        site, local = self._split(component)
        got, complete = self._fan_out([(site, local, None)], call)
        self._note_query(complete)
        return got[site] if complete else SeriesBatch.empty(metric)

    def query(self, metric: str, component: str,
              t0: float = -np.inf, t1: float = np.inf,
              tenant: str = DEFAULT_TENANT) -> SeriesBatch:
        return self._routed(metric, component, lambda fe, local: fe.query(
            metric, local, t0, t1, tenant=tenant))

    def downsample(self, metric: str, component: str, t0: float, t1: float,
                   step: float, agg: str = "mean",
                   tenant: str = DEFAULT_TENANT) -> SeriesBatch:
        """Route one site's downsample; exactness holds site-locally.  A
        bad ``agg`` or ``step`` is the caller's error, raised before any
        site is asked."""
        check_bucketing(agg, step)
        return self._routed(
            metric, component, lambda fe, local: fe.downsample(
                metric, local, t0, t1, step, agg, tenant=tenant))

    def query_components(
        self,
        metric: str,
        components: Sequence[str] | None = None,
        t0: float = -np.inf,
        t1: float = np.inf,
        tenant: str = DEFAULT_TENANT,
    ) -> dict[str, SeriesBatch]:
        """Per-component batches across sites, qualified keys: one site
        ``query_components`` per site asked, keys site-major for
        ``None`` and in selection order otherwise."""
        got, complete = self._fan_out(
            self._asks(components),
            lambda fe, local: fe.query_components(metric, local, t0, t1,
                                                  tenant=tenant))
        self._note_query(complete)
        per_site = {f"{site}/{c}": b
                    for site, per in got.items() for c, b in per.items()}
        if components is None:
            return per_site
        return {c: per_site[c] for c in dict.fromkeys(components)
                if c in per_site}

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
        """Cross-site aggregate, exact via partial-column merging: one
        ``partials`` call per site asked, every piece re-ranked by its
        components' places in the selection (:meth:`_asks`; a rank, a
        rank column, or a group piece's ``(K,)`` ranks, elementwise), one
        :func:`reduce_partials` — the stable time-sort concat the raw
        single-store path performs.  An unbounded ``t0`` first asks each
        site its first sample time and reads ``[earliest, t1)``: the
        same samples, the same anchor.  Unreachable or shedding sites
        contribute nothing and the answer is counted partial.
        """
        check_bucketing(agg, step)
        asks = self._asks(components)
        complete = True
        if t0 == -np.inf:
            firsts, complete = self._fan_out(
                asks, lambda fe, local: fe.first_time(metric, local,
                                                      tenant=tenant))
            t0 = min(firsts.values(), default=np.inf)
        got, ok = self._fan_out(
            asks, lambda fe, local: fe.partials(metric, local, t0, t1, step,
                                                tenant=tenant))
        self._note_query(complete and ok)
        pieces, piece_comp = [], []
        for i, (site, _, ranks) in enumerate(asks):
            if site in got:
                site_pieces, site_comp, _ = got[site]
                pieces.extend(site_pieces)
                piece_comp.extend((i << 32) + c if ranks is None
                                  else ranks[c] for c in site_comp)
        out_t, out_v = reduce_partials(pieces, bucket_anchor(t0, step), step,
                                       agg, piece_comp=piece_comp)
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
