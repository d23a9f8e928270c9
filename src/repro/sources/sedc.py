"""SEDC-class environmental collection: temperatures, power, energy.

Cray's System Environment Data Collections (SEDC) streams cabinet and
node environmental telemetry; KAUST's power work and NERSC's facility
monitoring both sit on this class of source.  The collector sweeps node
temperature/power/energy plus GPU temperatures when the machine has
GPUs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..core.metric import SeriesBatch
from .base import Collector, CollectorOutput

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.machine import Machine

__all__ = ["SedcCollector"]


class SedcCollector(Collector):
    """Node/GPU environmental sweep (SEDC analog)."""

    metrics = (
        "node.temp_c",
        "node.power_w",
        "node.energy_j",
        "gpu.temp_c",
        "gpu.ecc_dbe",
        "gpu.health",
    )

    def __init__(self, interval_s: float = 60.0) -> None:
        super().__init__("sedc", interval_s)

    def collect(self, machine: "Machine", now: float) -> CollectorOutput:
        names = machine.nodes.name_column
        batches = [
            SeriesBatch.sweep("node.temp_c", now, names,
                              machine.nodes.temp_c.copy()),
            SeriesBatch.sweep("node.power_w", now, names,
                              machine.nodes.power_w.copy()),
            SeriesBatch.sweep("node.energy_j", now, names,
                              machine.nodes.energy_j.copy()),
        ]
        gpus = machine.gpus
        if gpus is not None and gpus.n:
            gnames = gpus.name_column
            batches.extend(
                [
                    SeriesBatch.sweep("gpu.temp_c", now, gnames,
                                      gpus.temp_c.copy()),
                    SeriesBatch.sweep("gpu.ecc_dbe", now, gnames,
                                      gpus.ecc_dbe.astype(float)),
                    SeriesBatch.sweep("gpu.health", now, gnames,
                                      gpus.health.clip(0.0, 1.0)),
                ]
            )
        return CollectorOutput(batches=batches)
