"""Datacenter environment monitoring (ORNL / NERSC facility class).

ORNL's sulfur-corrosion story (Section II-6) ends with: "ORNL now
monitors their data center environment to ensure that ASHRAE standards
for particulate and corrosive gases are [not] exceeded."  NERSC
"captures large volumes of environmental data about its systems and
facilities".  This collector publishes room ambient conditions,
humidity, particulate concentration, and the corrosion-coupon rate the
GPU-ageing model responds to, and emits a warning event when ASHRAE
severity thresholds are crossed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..core.events import Event, EventKind, Severity
from ..core.metric import SeriesBatch
from ..core.soa import name_column
from .base import Collector, CollectorOutput

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.machine import Machine

__all__ = ["EnvironmentCollector", "ASHRAE_G1_CORROSION_LIMIT"]

# ANSI/ISA-71.04 G1 "mild" class: copper coupon < 300 Angstrom/month
ASHRAE_G1_CORROSION_LIMIT = 300.0
PARTICULATE_LIMIT_UG_M3 = 150.0


class EnvironmentCollector(Collector):
    """Machine-room environment sweep with ASHRAE threshold alerts."""

    metrics = (
        "env.temp_c",
        "env.humidity",
        "env.corrosion_rate",
        "env.particulate",
    )

    def __init__(self, interval_s: float = 300.0, room: str = "room0") -> None:
        super().__init__("environment", interval_s)
        self.room = room
        self._room = name_column([room])   # every sweep's column
        self._over_limit = False

    def collect(self, machine: "Machine", now: float) -> CollectorOutput:
        env = machine.room
        out = CollectorOutput(
            batches=[
                SeriesBatch.sweep("env.temp_c", now, self._room,
                                  [env.ambient_c]),
                SeriesBatch.sweep("env.humidity", now, self._room,
                                  [env.humidity]),
                SeriesBatch.sweep("env.corrosion_rate", now, self._room,
                                  [env.corrosion_rate]),
                SeriesBatch.sweep("env.particulate", now, self._room,
                                  [env.particulate]),
            ]
        )
        over = (
            env.corrosion_rate > ASHRAE_G1_CORROSION_LIMIT
            or env.particulate > PARTICULATE_LIMIT_UG_M3
        )
        if over and not self._over_limit:
            out.events.append(
                Event(
                    time=now,
                    component=self.room,
                    kind=EventKind.ENV,
                    severity=Severity.WARNING,
                    message=(
                        f"ASHRAE excursion: corrosion "
                        f"{env.corrosion_rate:.0f} A/month, particulate "
                        f"{env.particulate:.0f} ug/m3"
                    ),
                    fields={
                        "corrosion_rate": env.corrosion_rate,
                        "particulate": env.particulate,
                    },
                )
            )
        self._over_limit = over
        return out
