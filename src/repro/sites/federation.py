"""N heterogeneous sites stepping on one simulated clock.

The :class:`Federation` driver owns one
:class:`~repro.pipeline.MonitoringPipeline` per site (each built from
its :class:`~repro.sites.config.SiteConfig` by
:func:`~repro.sites.build.build_site`) and advances them in lockstep,
one site tick after another.  Sites share *no* state: every site has
its own machine, clock RNGs, transport, stores, supervisor, and ledger,
and job identities are per-machine.  That isolation is load-bearing and
tested: a chaos campaign on one site leaves every other site's ledger,
health timeline, and stored series bit-identical to a solo run.

Cross-site surfaces are merge *views* with ``site/...``-qualified
identities — the federated query front end
(:class:`~repro.serve.federated.FederatedFrontend`), the merged health
report and timeline, and the per-site delivery-ledger reports whose
``published == stored + lost + pending + in_flight`` identity the
``python -m repro sites`` scenario holds exactly per site.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from ..serve.federated import FederatedFrontend
from .build import build_site
from .config import SiteConfig

if TYPE_CHECKING:  # pragma: no cover
    from ..core.ledger import BalanceReport
    from ..pipeline import MonitoringPipeline

__all__ = ["Federation"]


class Federation:
    """Drive N per-site pipelines on one simulated clock."""

    def __init__(self, sites: Iterable[SiteConfig]) -> None:
        self.pipelines: "dict[str, MonitoringPipeline]" = {}
        for config in sites:
            if not isinstance(config, SiteConfig):
                raise TypeError(
                    f"pass SiteConfigs; got {type(config).__name__}"
                )
            name = config.name
            if not name:
                raise ValueError("federated sites need non-empty names")
            if name in self.pipelines:
                raise ValueError(f"duplicate site name {name!r}")
            self.pipelines[name] = build_site(config)
        if not self.pipelines:
            raise ValueError("a federation needs at least one site")
        self._frontend: FederatedFrontend | None = None

    @classmethod
    def from_presets(
        cls,
        names: Iterable[str] | None = None,
    ) -> "Federation":
        """Stand up the paper's ten sites (or the named subset)."""
        from .presets import PAPER_SITES, paper_site

        configs = (
            [paper_site(n) for n in names] if names is not None
            else list(PAPER_SITES.values())
        )
        return cls(configs)

    # -- access -------------------------------------------------------------

    def names(self) -> list[str]:
        return list(self.pipelines)

    def site(self, name: str) -> "MonitoringPipeline":
        try:
            return self.pipelines[name]
        except KeyError:
            raise KeyError(
                f"unknown site {name!r}; federation has: "
                f"{', '.join(self.pipelines)}"
            ) from None

    @property
    def now(self) -> float:
        """The shared simulated time (all sites step in lockstep)."""
        return next(iter(self.pipelines.values())).machine.now

    # -- the one clock ------------------------------------------------------

    def step(self, dt: float | None = None) -> None:
        """Advance every site by the same ``dt`` seconds.

        ``None`` picks the finest site tick, so each site's own
        cadences (collectors, selfmon, stages) still fire on schedule
        while the clocks stay exactly equal across sites.
        """
        if dt is None:
            dt = min(p.tick_s for p in self.pipelines.values())
        for p in self.pipelines.values():
            p.step(dt)

    def run(
        self,
        duration_s: float | None = None,
        hours: float | None = None,
        dt: float | None = None,
    ) -> None:
        if (duration_s is None) == (hours is None):
            raise ValueError("pass exactly one of duration_s or hours")
        total = duration_s if duration_s is not None else hours * 3600.0
        end = self.now + total
        while self.now < end - 1e-9:
            self.step(dt)

    def flush(self) -> None:
        """Drain every site's transport (pre-reconciliation settling)."""
        for p in self.pipelines.values():
            p.bus.flush()

    def shutdown(self) -> None:
        """Shut every site down (:meth:`MonitoringPipeline.shutdown`):
        a dropped federation's sites are then freed at once, not held
        until the next full collection."""
        for p in self.pipelines.values():
            p.shutdown()

    # -- merged views -------------------------------------------------------

    def frontend(self) -> FederatedFrontend:
        """The federated query surface over every site's front end."""
        if self._frontend is None:
            self._frontend = FederatedFrontend(
                {name: p.frontend for name, p in self.pipelines.items()}
            )
        return self._frontend

    def delivery_reports(self) -> "dict[str, BalanceReport]":
        """Per-site ledger reconciliation."""
        return {
            name: p.delivery_report()
            for name, p in self.pipelines.items()
        }

    def balanced(self) -> bool:
        """Every site's delivery identity holds exactly."""
        return all(
            r.balanced and r.unaccounted == 0
            for r in self.delivery_reports().values()
        )

    def health_report(self) -> dict[str, dict]:
        """Merged supervision summary, ``site/component``-qualified."""
        out: dict[str, dict] = {}
        for name, p in self.pipelines.items():
            for comp, summary in p.health_report().items():
                out[f"{name}/{comp}"] = summary
        return out

    def timeline(self) -> str:
        """All sites' health transitions, merged in time order."""
        rows = [
            (tr.time, name, tr)
            for name, p in self.pipelines.items()
            for tr in p.supervisor.transitions
        ]
        if not rows:
            return "(no health transitions)"
        rows.sort(key=lambda r: r[0])
        return "\n".join(
            f"t={t:8.0f}s  {name:>6}  {tr.describe()}"
            for t, name, tr in rows
        )
