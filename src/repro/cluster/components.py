"""Non-CPU hardware components: GPUs (with ORNL-style corrosion ageing).

ORNL's Titan experience (Section II-6): ~2.5 years into production, GPU
failure rates climbed because the SXM manufacturing process used
non-sulfur-resistant materials; corrosive-gas exposure grew crystalline
structures that changed resistor values until boards failed.  We model a
GPU population whose *health margin* decays at a rate driven by the
machine-room corrosion severity; when a GPU's margin crosses zero it
fails (emitting hardware-error events via the machine).  Replacing a GPU
with a sulfur-resistant part makes it immune — which is how the ORNL
bench shows the failure wave ending once monitoring + BoM enforcement
landed.
"""

from __future__ import annotations

import numpy as np

from ..core.soa import name_column

__all__ = ["GpuStore"]


class GpuStore:
    """Structure-of-arrays state for the GPU population.

    One GPU per listed host node (Piz Daint / Titan style hybrid blades).
    ``health`` is the remaining margin in [0, 1]; decay per second is
    ``corrosion_rate * susceptibility`` where susceptibility is 0 for
    sulfur-resistant parts.  ECC double-bit errors become increasingly
    likely as health declines, so trend analysis (ALCF/ORNL) can see the
    failure wave coming before dies actually drop.
    """

    def __init__(
        self,
        host_nodes: list[str],
        base_fail_per_year: float = 0.02,
        seed: int = 0,
    ) -> None:
        self.host_nodes = list(host_nodes)
        #: GPU component cnames (host node cname + 'g0'), as the column
        #: every GPU sweep publishes
        self.name_column = name_column([f"{n}g0" for n in self.host_nodes])
        self.index = {n: i for i, n in enumerate(self.host_nodes)}
        n = len(self.host_nodes)
        self.n = n
        rng = np.random.default_rng(seed)
        self._rng = rng
        # manufacturing spread in initial margin
        self.health = rng.uniform(0.85, 1.0, n)
        self.susceptibility = np.ones(n)       # 1 = vulnerable BoM
        self.failed = np.zeros(n, dtype=bool)
        self.temp_c = np.full(n, 40.0)
        self.ecc_dbe = np.zeros(n, dtype=np.int64)
        self.base_fail_per_year = float(base_fail_per_year)

    @property
    def names(self) -> list[str]:
        """GPU component cnames: host node cname + 'g0'."""
        return self.name_column.tolist()

    def step(
        self,
        dt: float,
        corrosion_rate: float,
        util: np.ndarray | None = None,
    ) -> list[int]:
        """Advance ageing by ``dt``; returns indices of GPUs failing now.

        ``corrosion_rate`` is the room's corrosion-coupon severity (the
        ``env.corrosion_rate`` metric); the nominal ASHRAE G1 limit is
        ~300 A/month copper — decay scales with the excess above a benign
        baseline, so a clean room produces only the background failure
        rate.
        """
        alive = ~self.failed
        if not alive.any():
            return []
        # corrosion-driven decay: excess above benign baseline of 200
        excess = max(0.0, corrosion_rate - 200.0)
        decay = (excess / 300.0) * 2.5e-7 * self.susceptibility * dt
        # background wear
        decay += self.base_fail_per_year / (365 * 86400) * dt
        self.health[alive] -= decay[alive]

        # ECC errors ramp as margin erodes below 0.3
        stressed = alive & (self.health < 0.3)
        if stressed.any():
            lam = (0.3 - self.health[stressed]).clip(0) * 2e-2 * dt
            self.ecc_dbe[stressed] += self._rng.poisson(lam)

        # GPU temperature tracks utilization
        if util is not None:
            target = 40.0 + 40.0 * util
            self.temp_c += (target - self.temp_c) * min(1.0, dt / 20.0)

        newly = alive & (self.health <= 0.0)
        self.failed |= newly
        return list(np.nonzero(newly)[0])

    def replace(self, host_node: str, sulfur_resistant: bool = True) -> None:
        """Swap in a replacement part (ORNL remediation path)."""
        i = self.index[host_node]
        self.failed[i] = False
        self.ecc_dbe[i] = 0
        self.health[i] = float(self._rng.uniform(0.9, 1.0))
        self.susceptibility[i] = 0.0 if sulfur_resistant else 1.0

    def ok_mask(self) -> np.ndarray:
        return ~self.failed

    def failed_hosts(self) -> list[str]:
        return [self.host_nodes[i] for i in np.nonzero(self.failed)[0]]
