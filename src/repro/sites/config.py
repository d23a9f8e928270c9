"""Declarative site configuration: a whole deployment as data.

The paper is ten sites running different machines, transports, and
storage stacks (Table I); DCDB makes the same case for a per-facility
config layer feeding a holistic cross-facility view, and the
radical.pilot platform-config table is the concrete shape imitated
here.  A :class:`SiteConfig` is the only place a deployment knob
exists — machine shape, workload, collector cadences, pipeline loop,
transport tier, storage layout, serving quotas — as
one validated, frozen value that can be diffed between sites and
rebuilt into an identical stack
(:func:`repro.sites.build.build_site`).

:meth:`SiteConfig.capabilities` is the declared per-site Table I row
that live-pipeline introspection must reproduce exactly (the contract
``python -m repro sites`` and the tests check).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..serve.quota import TenantQuota

__all__ = [
    "SiteConfig",
    "TOPOLOGY_CLASSES",
    "TRANSPORT_TIERS",
]

#: machine shapes a site can declare (the paper's Cray fleet is
#: dragonflies and 3D tori)
TOPOLOGY_CLASSES = ("dragonfly", "torus")

#: data-movement tiers resolvable by :func:`repro.transport.base.make_transport`
TRANSPORT_TIERS = ("flat", "partitioned", "tree")

#: nodes hanging off one torus router (matches TorusTopology)
_TORUS_NODES_PER_ROUTER = 2


@dataclass(frozen=True)
class SiteConfig:
    """One site's complete monitoring deployment, as plain data.

    Watching the monitor itself (supervision, the delivery ledger,
    freshness tracing, selfmon, span timing) is not a knob: every site
    does it.
    """

    # -- identity ---------------------------------------------------------
    name: str = ""            # empty = anonymous single-site deployment
    system: str = ""
    description: str = ""

    # -- machine shape ----------------------------------------------------
    topology: str = "dragonfly"          # one of TOPOLOGY_CLASSES
    groups: int = 2                      # dragonfly shape
    chassis_per_group: int = 3
    blades_per_chassis: int = 4
    nodes_per_router: int = 4
    torus_dims: tuple[int, int, int] = (4, 4, 4)
    gpu_nodes: Any = None                # None | "all" | sequence of cnames

    # -- workload ---------------------------------------------------------
    mean_interarrival_s: float = 300.0
    seed: int = 0

    # -- collector cadences -----------------------------------------------
    metric_interval_s: float = 60.0
    probe_interval_s: float = 60.0
    bench_interval_s: float = 600.0
    with_health_gate: bool = True

    # -- pipeline loop ----------------------------------------------------
    tick_s: float = 10.0
    collector_budget_s: float | None = None

    # -- transport tier ---------------------------------------------------
    transport: str = "flat"              # one of TRANSPORT_TIERS

    # -- storage tier -----------------------------------------------------
    shards: int = 1                      # 1 = one store, K = K shards
    store_dir: str | None = None         # out-of-core disk tier root
    hot_bytes: int = 64 << 20
    chunk_size: int = 512

    # -- serving plane ----------------------------------------------------
    quotas: "dict[str, TenantQuota] | None" = None

    def __post_init__(self) -> None:
        if self.name and ("/" in self.name
                          or any(c.isspace() for c in self.name)):
            # "site/component" is the federation's qualified-name syntax
            raise ValueError(
                f"site name {self.name!r} may not contain '/' or whitespace"
            )
        if self.topology not in TOPOLOGY_CLASSES:
            raise ValueError(
                f"unknown topology {self.topology!r}; "
                f"expected one of {TOPOLOGY_CLASSES}"
            )
        if self.topology == "dragonfly":
            shape = (self.groups, self.chassis_per_group,
                     self.blades_per_chassis, self.nodes_per_router)
            if any(int(x) < 1 for x in shape):
                raise ValueError("dragonfly shape counts must be >= 1")
            if self.chassis_per_group % 3 != 0:
                raise ValueError(
                    "chassis_per_group must be a multiple of 3 "
                    "(intra-group all-to-all wiring)"
                )
        else:
            if len(self.torus_dims) != 3 or any(
                int(d) < 1 for d in self.torus_dims
            ):
                raise ValueError("torus_dims must be three counts >= 1")
        if self.gpu_nodes is not None and self.gpu_nodes != "all":
            try:
                named = all(isinstance(n, str) for n in self.gpu_nodes)
            except TypeError:
                named = False
            if isinstance(self.gpu_nodes, str) or not named:
                raise ValueError(
                    "gpu_nodes must be None, 'all', or a sequence of "
                    "node names"
                )
        if self.transport not in TRANSPORT_TIERS:
            raise ValueError(
                f"unknown transport {self.transport!r}; "
                f"expected one of {TRANSPORT_TIERS}"
            )
        if not (isinstance(self.shards, int) and self.shards >= 1):
            raise ValueError(f"shards must be an int >= 1, not "
                             f"{self.shards!r}")
        if self.chunk_size < 2:
            raise ValueError("chunk_size must be >= 2")
        for knob in ("mean_interarrival_s", "metric_interval_s",
                     "probe_interval_s", "bench_interval_s",
                     "tick_s"):
            if not float(getattr(self, knob) or 0) > 0:   # None, NaN too
                raise ValueError(f"{knob} must be positive")
        budget = self.collector_budget_s
        if budget is not None and not 0 < float(budget) < float("inf"):
            # 0 or less impairs every collector; NaN switches it off
            raise ValueError(
                f"collector_budget_s must be None or a positive finite "
                f"number of seconds, not {budget!r}"
            )

    # -- derived shape ----------------------------------------------------

    def expected_nodes(self) -> int:
        """Node count the declared shape builds to."""
        if self.topology == "dragonfly":
            return (self.groups * self.chassis_per_group
                    * self.blades_per_chassis * self.nodes_per_router)
        nx_dim, ny_dim, nz_dim = self.torus_dims
        return nx_dim * ny_dim * nz_dim * _TORUS_NODES_PER_ROUTER

    def expected_gpus(self) -> int:
        if self.gpu_nodes is None:
            return 0
        if self.gpu_nodes == "all":
            return self.expected_nodes()
        return len(self.gpu_nodes)

    # -- the declared Table I row -----------------------------------------

    def capabilities(self) -> dict:
        """The site's declared capability row (Table I, per site).

        Live introspection (:func:`repro.sites.build.site_capabilities`)
        must reproduce this dict exactly — that equality is the
        config-drift contract ``python -m repro sites`` enforces.
        """
        return {
            "site": self.name,
            "system": self.system,
            "topology": self.topology,
            "nodes": self.expected_nodes(),
            "gpus": self.expected_gpus(),
            "transport": self.transport,
            "shards": self.shards,
            "disk": self.store_dir is not None,
            "cadence_s": float(self.metric_interval_s),
            "tenants": len(self.quotas) if self.quotas else 0,
        }
