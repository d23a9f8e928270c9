"""Build a site's machine + monitoring stack from its declared config.

``build_site(config) -> MonitoringPipeline`` is the one assembly path:
the CLI, the examples, the benchmarks and the federation driver all
call it.  ``site_capabilities(pipeline)`` derives the *live* Table I
row from the assembled stack — the dict
:meth:`~repro.sites.config.SiteConfig.capabilities` declares — so
declared-vs-built drift is machine-checkable.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..cluster.machine import Machine
from ..cluster.scheduler import PackedPlacement
from ..cluster.topology import build_dragonfly, build_torus
from ..cluster.workload import JobGenerator
from ..sources.health import HealthGate
from .config import SiteConfig

if TYPE_CHECKING:  # pragma: no cover
    from ..pipeline import MonitoringPipeline

__all__ = ["build_machine", "build_site", "build_store", "site_capabilities"]

#: largest job the synthetic workload submits, in nodes
_MAX_JOB_NODES = 32


def build_machine(config: SiteConfig) -> Machine:
    """The simulated platform a :class:`SiteConfig` declares."""
    if config.topology == "dragonfly":
        topo = build_dragonfly(
            groups=config.groups,
            chassis_per_group=config.chassis_per_group,
            blades_per_chassis=config.blades_per_chassis,
            nodes_per_router=config.nodes_per_router,
        )
    else:
        nx_dim, ny_dim, nz_dim = config.torus_dims
        topo = build_torus(nx_dim, ny_dim, nz_dim)
    return Machine(
        topo,
        placement=PackedPlacement(),
        job_generator=JobGenerator(
            mean_interarrival_s=config.mean_interarrival_s,
            max_nodes=_MAX_JOB_NODES,
            seed=config.seed,
        ),
        gpu_nodes=config.gpu_nodes,
        seed=config.seed,
    )


def build_store(config: SiteConfig):
    """The numeric-store tier the config declares."""
    from ..storage.sharded import ShardedTimeSeriesStore
    from ..storage.tsdb import TimeSeriesStore

    if config.shards is not None:
        return ShardedTimeSeriesStore(
            shards=config.shards,
            chunk_size=config.chunk_size,
            pyramid_levels=config.pyramid_levels,
            disk_dir=config.store_dir,
            hot_bytes=config.hot_bytes,
        )
    if config.store_dir is not None:
        from ..storage.diskier import DiskTier
        return TimeSeriesStore(
            chunk_size=config.chunk_size,
            pyramid_levels=config.pyramid_levels,
            disk=DiskTier(config.store_dir, hot_bytes=config.hot_bytes),
        )
    return TimeSeriesStore(
        chunk_size=config.chunk_size,
        pyramid_levels=config.pyramid_levels,
    )


def build_site(
    config: SiteConfig,
    machine: Machine | None = None,
    overrides: dict | None = None,
) -> "MonitoringPipeline":
    """Assemble the full monitoring stack the config declares.

    ``overrides`` carries the parts that cannot be expressed as data —
    live ``collectors``/``transport``/``tsdb``/``executor`` instances
    and pipeline plumbing like ``sec=``/``registry=``/``stages=`` —
    handed to :class:`~repro.pipeline.MonitoringPipeline` verbatim
    (which rejects an instance that contradicts a declared knob).
    """
    from ..pipeline import MonitoringPipeline, default_collectors

    overrides = dict(overrides) if overrides else {}
    if machine is None:
        machine = build_machine(config)
    if overrides.get("collectors") is None:
        overrides["collectors"] = default_collectors(
            machine,
            metric_interval_s=config.metric_interval_s,
            probe_interval_s=config.probe_interval_s,
            bench_interval_s=config.bench_interval_s,
            seed=config.seed,
        )
    pipeline = MonitoringPipeline(machine, config, **overrides)
    if config.with_health_gate and machine.scheduler.health_gate is None:
        gate = HealthGate(machine)
        machine.scheduler.health_gate = gate.gate
        pipeline.health_gate = gate
    return pipeline


# transport classes -> declared tier names (the capability-row vocabulary)
_TRANSPORT_TIER_OF = {
    "MessageBus": "flat",
    "PartitionedBus": "partitioned",
    "AggregatorTree": "tree",
}


def site_capabilities(pipeline: "MonitoringPipeline") -> dict:
    """The *live* Table I capability row of an assembled stack.

    Reads only what the running pipeline exposes (topology, transport
    and store types, executor width, quota table) so any drift between
    a :class:`SiteConfig` and what actually got built shows up as a
    dict inequality against :meth:`SiteConfig.capabilities`.
    """
    machine = pipeline.machine
    topo_name = type(machine.topo).__name__.replace("Topology", "").lower()
    bus = pipeline.bus
    inner = getattr(bus, "inner", None)   # chaos wrapper is transparent
    tier = _TRANSPORT_TIER_OF.get(
        type(inner if inner is not None else bus).__name__,
        type(bus).__name__,
    )
    tsdb = pipeline.tsdb
    levels = getattr(tsdb, "pyramid_levels", None) or ()
    return {
        "site": pipeline.site,
        "system": pipeline.site_config.system,
        "topology": topo_name,
        "nodes": len(machine.topo.nodes),
        "gpus": machine.gpus.n if machine.gpus is not None else 0,
        "transport": tier,
        "shards": int(getattr(tsdb, "n_shards", 1)),
        "levels": len(levels),
        # every disk-backed open reports what it found, even all zeros
        "disk": getattr(tsdb, "recovery", None) is not None,
        "workers": int(getattr(pipeline.executor, "workers", 1)),
        "cadence_s": float(pipeline.scheduler.collectors[0].interval_s)
        if pipeline.scheduler.collectors else 0.0,
        "supervised": pipeline.supervisor is not None,
        "freshness": pipeline.freshness is not None,
        "tenants": len(getattr(pipeline.frontend.governor, "_quotas", {})),
    }
