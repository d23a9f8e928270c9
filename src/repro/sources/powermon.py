"""Power monitoring: cabinet and system power (KAUST / PMDB class).

KAUST watches total system power and per-cabinet power to stay inside a
power budget and to detect application/system problems from power
signatures (Figure 3).  This collector publishes the aggregated
``cabinet.power_w`` and ``system.power_w`` series on top of the node
power the SEDC sweep already provides.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..cluster.power import PowerModel
from ..core.metric import SeriesBatch
from ..core.soa import name_column
from .base import Collector, CollectorOutput

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.machine import Machine

__all__ = ["PowerCollector"]


class PowerCollector(Collector):
    """Cabinet + system power sweep."""

    metrics = ("cabinet.power_w", "system.power_w")

    def __init__(self, machine: "Machine", interval_s: float = 60.0) -> None:
        super().__init__("power", interval_s)
        self._pm = PowerModel(machine.topo, machine.nodes)
        # every sweep's component columns, published once
        self._cabinets = name_column(self._pm.cabinet_names())
        self._system = name_column(["system"])

    def collect(self, machine: "Machine", now: float) -> CollectorOutput:
        cab = self._pm.cabinet_power_w()
        return CollectorOutput(
            batches=[
                SeriesBatch.sweep(
                    "cabinet.power_w", now, self._cabinets, cab
                ),
                SeriesBatch.sweep(
                    "system.power_w", now, self._system, [float(cab.sum())]
                ),
            ]
        )
