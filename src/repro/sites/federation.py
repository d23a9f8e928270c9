"""N heterogeneous sites stepping on one simulated clock.

The :class:`Federation` driver owns one
:class:`~repro.pipeline.MonitoringPipeline` per site (each built from
its :class:`~repro.sites.config.SiteConfig` by
:func:`~repro.sites.build.build_site`) and advances them in lockstep —
serially or fanned over the existing
:class:`~repro.runtime.executor.ThreadedExecutor`, which is safe
because sites share *no* state: every site has its own machine, clock
RNGs, transport, stores, supervisor, and ledger, and job identities are
per-machine.  That isolation is load-bearing and tested: a chaos
campaign on one site leaves every other site's ledger, health timeline,
and stored series bit-identical to a solo run.

Cross-site surfaces are merge *views* with ``site/...``-qualified
identities — the federated query front end
(:class:`~repro.serve.federated.FederatedFrontend`), the merged health
report and timeline, and the per-site delivery-ledger reports whose
``published == stored + lost + pending + in_flight`` identity the
``python -m repro sites`` scenario holds exactly per site.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Mapping

from ..runtime.executor import ExecutionModel, make_executor
from ..serve.federated import FederatedFrontend
from .build import build_site
from .config import SiteConfig

if TYPE_CHECKING:  # pragma: no cover
    from ..core.ledger import BalanceReport
    from ..pipeline import MonitoringPipeline

__all__ = ["Federation"]


class Federation:
    """Drive N per-site pipelines on one simulated clock."""

    def __init__(
        self,
        sites: "Iterable[SiteConfig] | Mapping[str, MonitoringPipeline]",
        executor: "ExecutionModel | int | None" = None,
    ) -> None:
        self.pipelines: "dict[str, MonitoringPipeline]" = {}
        if isinstance(sites, Mapping):
            for name, pipeline in sites.items():
                self._add(str(name), pipeline)
        else:
            for config in sites:
                if not isinstance(config, SiteConfig):
                    raise TypeError(
                        "pass SiteConfigs or a name->pipeline mapping; got "
                        f"{type(config).__name__}"
                    )
                if not config.name:
                    raise ValueError(
                        "federated sites need non-empty names"
                    )
                self._add(config.name, build_site(config))
        if not self.pipelines:
            raise ValueError("a federation needs at least one site")
        # how cross-site stepping fans out; per-site pipelines keep
        # their own (possibly parallel) executors for the planes inside
        self.executor = make_executor(executor)
        self._frontend: FederatedFrontend | None = None

    def _add(self, name: str, pipeline: "MonitoringPipeline") -> None:
        if not name or "/" in name or any(c.isspace() for c in name):
            raise ValueError(
                f"bad site name {name!r}: non-empty, no '/' or whitespace"
            )
        if name in self.pipelines:
            raise ValueError(f"duplicate site name {name!r}")
        self.pipelines[name] = pipeline

    @classmethod
    def from_presets(
        cls,
        names: Iterable[str] | None = None,
        executor: "ExecutionModel | int | None" = None,
    ) -> "Federation":
        """Stand up the paper's ten sites (or the named subset)."""
        from .presets import PAPER_SITES, paper_site

        configs = (
            [paper_site(n) for n in names] if names is not None
            else list(PAPER_SITES.values())
        )
        return cls(configs, executor=executor)

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
        while the clocks stay exactly equal across sites.  Sites are
        independent, so a parallel federation executor may overlap
        whole site ticks; results are deterministic either way.
        """
        if dt is None:
            dt = min(p.tick_s for p in self.pipelines.values())
        pipelines = list(self.pipelines.values())
        if self.executor.parallel and len(pipelines) > 1:
            self.executor.map_ordered(
                [lambda p=p: p.step(dt) for p in pipelines]
            )
        else:
            for p in pipelines:
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
        """Release the federation executor's workers (idempotent)."""
        self.executor.shutdown()

    # -- merged views -------------------------------------------------------

    def frontend(self) -> FederatedFrontend:
        """The federated query surface over every site's front end."""
        if self._frontend is None:
            self._frontend = FederatedFrontend(
                {name: p.frontend for name, p in self.pipelines.items()}
            )
        return self._frontend

    def delivery_reports(self) -> "dict[str, BalanceReport | None]":
        """Per-site ledger reconciliation (None for unsupervised sites)."""
        return {
            name: p.delivery_report()
            for name, p in self.pipelines.items()
        }

    def balanced(self) -> bool:
        """Every supervised site's delivery identity holds exactly."""
        return all(
            r is None or (r.balanced and r.unaccounted == 0)
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
        rows = []
        for name, p in self.pipelines.items():
            if p.supervisor is None:
                continue
            rows.extend(
                (tr.time, name, tr) for tr in p.supervisor.transitions
            )
        if not rows:
            return "(no health transitions)"
        rows.sort(key=lambda r: r[0])
        return "\n".join(
            f"t={t:8.0f}s  {name:>6}  {tr.describe()}"
            for t, name, tr in rows
        )
