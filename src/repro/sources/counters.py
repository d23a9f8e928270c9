"""Node performance-counter collectors (/proc + MSR + NIC class).

The sites read "performance counters and state registers ... from a
variety of sources including the /proc and /sys file systems; the
Performance API (PAPI); Model-Specific Registers (MSRs); network
performance counters" (Section III-A).  Here:

* :class:`NodeCounterCollector` — CPU utilization, free memory, load,
  and the node's local-clock offset (feeding the clock-drift analysis);
* :class:`InjectionCollector` — per-node achieved injection bandwidth
  fraction (the Figure 1 quantity);
* :class:`NetLinkCollector` — per-link HSN counters (SNL): cumulative
  traffic and stall flits, the derived stall ratio, utilization, BER.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..core.metric import SeriesBatch
from .base import Collector, CollectorOutput

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.machine import Machine

__all__ = ["NodeCounterCollector", "InjectionCollector", "NetLinkCollector"]


class NodeCounterCollector(Collector):
    """Whole-system synchronized sweep of basic node counters."""

    metrics = (
        "node.cpu_util",
        "node.mem_free_gb",
        "node.load1",
        "node.clock_offset_s",
    )

    def __init__(self, interval_s: float = 60.0) -> None:
        super().__init__("node_counters", interval_s)

    def collect(self, machine: "Machine", now: float) -> CollectorOutput:
        names = machine.nodes.name_column
        return CollectorOutput(
            batches=[
                SeriesBatch.sweep(
                    "node.cpu_util", now, names, machine.nodes.cpu_util.copy()
                ),
                SeriesBatch.sweep(
                    "node.mem_free_gb", now, names, machine.nodes.mem_free_gb.copy()
                ),
                SeriesBatch.sweep(
                    "node.load1", now, names, machine.nodes.load1.copy()
                ),
                SeriesBatch.sweep(
                    "node.clock_offset_s", now, names,
                    machine.clock_fleet.errors_at(now),
                ),
            ]
        )


class InjectionCollector(Collector):
    """Per-node achieved injection bandwidth fraction (Figure 1)."""

    metrics = ("node.inject_bw_frac",)

    def __init__(self, interval_s: float = 60.0) -> None:
        super().__init__("injection", interval_s)

    def collect(self, machine: "Machine", now: float) -> CollectorOutput:
        return CollectorOutput(
            batches=[
                SeriesBatch.sweep(
                    "node.inject_bw_frac",
                    now,
                    machine.nodes.name_column,
                    machine.network.inject_bw_frac(),
                )
            ]
        )


class NetLinkCollector(Collector):
    """Synchronized per-link HSN counter sweep (SNL, 1-60 s intervals)."""

    metrics = (
        "link.traffic_flits",
        "link.stall_flits",
        "link.stall_ratio",
        "link.util",
        "link.ber",
    )

    def __init__(self, interval_s: float = 60.0) -> None:
        super().__init__("net_links", interval_s)

    def collect(self, machine: "Machine", now: float) -> CollectorOutput:
        net = machine.network
        names = net.link_names()
        return CollectorOutput(
            batches=[
                SeriesBatch.sweep(
                    "link.traffic_flits", now, names, net.cum_traffic_flits.copy()
                ),
                SeriesBatch.sweep(
                    "link.stall_flits", now, names, net.cum_stall_flits.copy()
                ),
                SeriesBatch.sweep(
                    "link.stall_ratio", now, names, net.link_stall_ratio.copy()
                ),
                SeriesBatch.sweep("link.util", now, names, net.link_util.copy()),
                SeriesBatch.sweep("link.ber", now, names, net.ber.copy()),
            ]
        )
