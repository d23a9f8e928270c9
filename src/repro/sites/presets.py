"""Preset configs for the paper's ten sites.

One :class:`~repro.sites.config.SiteConfig` per authoring site of the
paper (Section II), shaped after the machine each site describes —
dragonflies for the XC systems, 3D tori for Blue Waters and Titan,
hybrid GPU blades where the site's stories are GPU stories — and
deliberately *heterogeneous* across the monitoring stack: different
transport tiers, shard counts, cadences, and tenant quota
tables, so a federation over the presets exercises every plane at once.

Scales are kept small (tens of nodes per site) so ``python -m repro
sites`` can stand up all ten on one simulated clock and run a campaign
in seconds; the *shape* heterogeneity, not the node count, is what the
scenario stresses.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping

from ..serve.quota import TenantQuota
from .config import SiteConfig

__all__ = ["PAPER_SITES", "paper_site", "paper_sites"]


def _sites() -> tuple[SiteConfig, ...]:
    return (
        # LANL / Trinity: big XC40 dragonfly, four-shard store — the
        # largest preset.
        SiteConfig(
            name="lanl", system="Trinity",
            description="Cray XC40 dragonfly; partitioned bus, four-shard "
                        "store",
            topology="dragonfly", groups=3, chassis_per_group=3,
            blades_per_chassis=4, nodes_per_router=4,
            transport="partitioned", shards=4,
            mean_interarrival_s=240.0, seed=11,
        ),
        # NCSA / Blue Waters: Gemini 3D torus, tree transport (the
        # LDMS-style aggregation NCSA actually ran).
        SiteConfig(
            name="ncsa", system="Blue Waters",
            description="Cray XE/XK 3D torus; LDMS-style aggregation tree",
            topology="torus", torus_dims=(4, 4, 3),
            transport="tree", shards=2,
            mean_interarrival_s=300.0, seed=12,
        ),
        # NERSC / Cori: XC40 dragonfly, partitioned bus, dense cadence.
        SiteConfig(
            name="nersc", system="Cori",
            description="Cray XC40 dragonfly; partitioned bus, 30 s cadence",
            topology="dragonfly", groups=2, chassis_per_group=3,
            blades_per_chassis=4, nodes_per_router=4,
            transport="partitioned", shards=3,
            metric_interval_s=30.0, probe_interval_s=30.0,
            mean_interarrival_s=240.0, seed=13,
        ),
        # CSC / Sisu: the smallest XC40; flat bus, single store.
        SiteConfig(
            name="csc", system="Sisu",
            description="Cray XC40 dragonfly; flat bus, single store",
            topology="dragonfly", groups=1, chassis_per_group=3,
            blades_per_chassis=4, nodes_per_router=4,
            transport="flat",
            mean_interarrival_s=420.0, seed=14,
        ),
        # CSCS / Piz Daint: XC50 hybrid blades — every node has a GPU.
        SiteConfig(
            name="cscs", system="Piz Daint",
            description="Cray XC50 dragonfly; GPU on every node",
            topology="dragonfly", groups=2, chassis_per_group=3,
            blades_per_chassis=3, nodes_per_router=4,
            gpu_nodes="all", transport="partitioned", shards=2,
            mean_interarrival_s=300.0, seed=15,
        ),
        # ORNL / Titan: XK7 3D torus with GPUs, tree transport.
        SiteConfig(
            name="ornl", system="Titan",
            description="Cray XK7 3D torus; GPUs, aggregation tree",
            topology="torus", torus_dims=(4, 3, 3),
            gpu_nodes="all", transport="tree", shards=2,
            mean_interarrival_s=240.0, seed=16,
        ),
        # KAUST / Shaheen II: XC40; power-signature stories, slow bench
        # cadence, per-tenant serving quotas for the user dashboards.
        SiteConfig(
            name="kaust", system="Shaheen II",
            description="Cray XC40 dragonfly; quota-gated user dashboards",
            topology="dragonfly", groups=2, chassis_per_group=3,
            blades_per_chassis=4, nodes_per_router=2,
            transport="flat", bench_interval_s=1200.0,
            quotas={"users": TenantQuota(qps=50.0),
                    "ops": TenantQuota()},
            mean_interarrival_s=360.0, seed=17,
        ),
        # ALCF / Theta: XC40, coarse cadence (trend analysis site).
        SiteConfig(
            name="alcf", system="Theta",
            description="Cray XC40 dragonfly; coarse 120 s cadence",
            topology="dragonfly", groups=2, chassis_per_group=3,
            blades_per_chassis=3, nodes_per_router=4,
            transport="partitioned",
            metric_interval_s=120.0, probe_interval_s=120.0,
            mean_interarrival_s=300.0, seed=18,
        ),
        # SNL / Mutrino: the small XC40 power-sweep testbed.
        SiteConfig(
            name="snl", system="Mutrino",
            description="Cray XC40 testbed; tight tick for power sweeps",
            topology="dragonfly", groups=1, chassis_per_group=3,
            blades_per_chassis=4, nodes_per_router=2,
            transport="flat", tick_s=5.0,
            metric_interval_s=30.0,
            mean_interarrival_s=420.0, seed=19,
        ),
        # HLRS / Hazel Hen: XC40; runtime-variability stories, busy
        # arrivals so aggressor/victim mixes actually happen.
        SiteConfig(
            name="hlrs", system="Hazel Hen",
            description="Cray XC40 dragonfly; busy mixed workload",
            topology="dragonfly", groups=2, chassis_per_group=3,
            blades_per_chassis=4, nodes_per_router=3,
            transport="tree", shards=2,
            mean_interarrival_s=180.0, seed=20,
        ),
    )


#: the ten paper sites, keyed by site name, in the paper's order
#: (read-only: every federation in the process reads the same table)
PAPER_SITES: Mapping[str, SiteConfig] = MappingProxyType(
    {c.name: c for c in _sites()})


def paper_sites() -> list[SiteConfig]:
    """All ten presets, in the paper's site order."""
    return list(PAPER_SITES.values())


def paper_site(name: str) -> SiteConfig:
    """One preset by site name (``"lanl"`` ... ``"hlrs"``)."""
    try:
        return PAPER_SITES[name]
    except KeyError:
        raise KeyError(
            f"unknown site {name!r}; presets: {', '.join(PAPER_SITES)}"
        ) from None
