"""Declarative site configuration: a whole deployment as data.

The paper is ten sites running different machines, transports, and
storage stacks (Table I); DCDB makes the same case for a per-facility
config layer feeding a holistic cross-facility view, and the
radical.pilot platform-config table is the concrete shape imitated
here.  A :class:`SiteConfig` is the only place a deployment knob
exists — machine shape, workload, collector cadences, pipeline loop,
transport tier, storage layout, execution model, serving quotas — as
one validated, frozen value that can be diffed between sites and
rebuilt into an identical stack
(:func:`repro.sites.build.build_site`).

:meth:`SiteConfig.capabilities` is the declared per-site Table I row
that live-pipeline introspection must reproduce exactly (the contract
``python -m repro sites`` and the tests check).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any

from ..serve.quota import TenantQuota
from ..storage.rollup import DEFAULT_LEVELS

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
    """One site's complete monitoring deployment, as plain data."""

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
    renotify_s: float = 3600.0
    selfmon_interval_s: float | None = 60.0
    collector_budget_s: float | None = None
    supervision: bool = True
    freshness: bool = True

    # -- transport tier ---------------------------------------------------
    transport: str = "flat"              # one of TRANSPORT_TIERS

    # -- storage tier -----------------------------------------------------
    shards: int | None = None            # None = single store
    pyramid_levels: tuple[float, ...] = DEFAULT_LEVELS
    store_dir: str | None = None         # out-of-core disk tier root
    hot_bytes: int = 64 << 20
    chunk_size: int = 512

    # -- execution model --------------------------------------------------
    workers: int | None = None           # None/1 = serial

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
        if self.shards is not None and int(self.shards) < 1:
            raise ValueError("shards must be >= 1")
        if not self.pyramid_levels or any(
            float(x) <= 0 for x in self.pyramid_levels
        ):
            raise ValueError("pyramid_levels must be positive")
        if self.chunk_size < 2:
            raise ValueError("chunk_size must be >= 2")
        if self.workers is not None and int(self.workers) < 1:
            raise ValueError("workers must be >= 1")
        for knob in ("mean_interarrival_s", "metric_interval_s",
                     "probe_interval_s", "bench_interval_s",
                     "tick_s", "renotify_s"):
            if float(getattr(self, knob)) <= 0:
                raise ValueError(f"{knob} must be positive")
        if self.selfmon_interval_s is not None and self.selfmon_interval_s <= 0:
            raise ValueError("selfmon_interval_s must be positive")

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
            "shards": int(self.shards) if self.shards is not None else 1,
            "levels": len(self.pyramid_levels),
            "disk": self.store_dir is not None,
            "workers": int(self.workers) if self.workers is not None else 1,
            "cadence_s": float(self.metric_interval_s),
            "supervised": bool(self.supervision),
            "freshness": bool(self.freshness),
            "tenants": len(self.quotas) if self.quotas else 0,
        }

    def to_dict(self) -> dict:
        """Plain-data view (quota values expanded), for diffing sites."""
        out: dict = {}
        for f in fields(self):
            v = getattr(self, f.name)
            if f.name == "quotas" and v:
                v = {t: (q.qps, q.burst, q.max_concurrent)
                     for t, q in v.items()}
            out[f.name] = v
        return out

