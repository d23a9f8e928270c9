"""Compute-node state, stored as structure-of-arrays for whole-machine updates.

A 20k-node machine stepped at 1 Hz for hours of simulated time cannot
afford per-node Python objects in the hot loop; following the
vectorization guidance of the hpc-parallel guides, all per-node state
lives in parallel numpy arrays inside :class:`NodeStore`, and
:class:`Node` is a lightweight proxy view used by code that wants
object-style access (health checks, fault handlers, tests).

State covered here is what the sites' collectors read: CPU utilization,
free memory (LANL checks "an appropriate amount of free memory on compute
nodes"), load, temperature, power, cumulative energy, up/hung flags, and
the state of essential services and filesystem mounts (LANL verifies
"essential services and daemons are functional, including filesystem
mounts").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..core.soa import name_column

__all__ = ["ESSENTIAL_SERVICES", "NodeStore", "Node"]

# Services every compute node must run; LANL-style checks verify each.
ESSENTIAL_SERVICES: tuple[str, ...] = (
    "munge",           # auth for the workload manager
    "slurmd",          # workload-manager node daemon
    "ntpd",            # time sync (clock-drift discipline)
    "lnet",            # Lustre networking
)

# Filesystem mounts every node must hold.
ESSENTIAL_MOUNTS: tuple[str, ...] = ("/scratch", "/home")


class NodeStore:
    """Structure-of-arrays state for all compute nodes of a machine."""

    def __init__(
        self,
        names: Sequence[str],
        mem_total_gb: float = 128.0,
        idle_power_w: float = 90.0,
        max_power_w: float = 350.0,
        seed: int = 0,
    ) -> None:
        self.names: list[str] = list(names)
        #: the same names as the column every whole-fleet sweep publishes
        self.name_column = name_column(self.names)
        self.index: dict[str, int] = {n: i for i, n in enumerate(self.names)}
        n = len(self.names)
        self.n = n
        self.mem_total_gb = float(mem_total_gb)
        self.idle_power_w = float(idle_power_w)
        self.max_power_w = float(max_power_w)

        rng = np.random.default_rng(seed)
        self.cpu_util = np.zeros(n)
        self.mem_free_gb = np.full(n, mem_total_gb * 0.95)
        self.load1 = np.zeros(n)
        self.temp_c = np.full(n, 35.0) + rng.normal(0, 0.5, n)
        self.power_w = np.full(n, idle_power_w)
        self.energy_j = np.zeros(n)
        self.up = np.ones(n, dtype=bool)
        self.hung = np.zeros(n, dtype=bool)
        # service/mount health: rows = nodes, columns = services/mounts
        self.services = np.ones((n, len(ESSENTIAL_SERVICES)), dtype=bool)
        self.mounts = np.ones((n, len(ESSENTIAL_MOUNTS)), dtype=bool)
        # memory-leak fault state: GB/s leak rate per node (0 = no leak)
        self.leak_rate = np.zeros(n)
        # p-state cap as a fraction of nominal frequency (SNL power sweeps)
        self.pstate_frac = np.ones(n)
        # configuration fingerprint (kernel params, image version, BB
        # setup); LANL's suite verifies these match the golden config
        self.config_hash = np.zeros(n, dtype=np.int64)

    # -- indexing -----------------------------------------------------------

    def idx(self, name: str) -> int:
        return self.index[name]

    def idxs(self, names: Iterable[str]) -> np.ndarray:
        return np.fromiter(
            (self.index[n] for n in names), dtype=np.int64
        )

    def node(self, name: str) -> "Node":
        return Node(self, self.index[name])

    def __len__(self) -> int:
        return self.n

    # -- bulk update (called once per machine step) ---------------------------

    def step(self, dt: float, util: np.ndarray, ambient_c: float) -> None:
        """Advance node physics by ``dt`` given target utilization per node.

        ``util`` is the application-demanded CPU utilization in [0, 1]
        for every node this step (0 for idle nodes).  Hung nodes pin
        utilization (a hung node burns power without progress — the KAUST
        power-signature detector keys on exactly this); down nodes draw
        nothing.
        """
        if util.shape != (self.n,):
            raise ValueError("util must have one entry per node")
        effective = np.where(self.hung, self.cpu_util, util)
        effective = np.where(self.up, effective, 0.0)
        # frequency capping scales achievable utilization's power cost
        self.cpu_util = effective
        self.load1 += (effective * 32.0 - self.load1) * min(1.0, dt / 60.0)

        # power: idle + dynamic * util * f^2 (classic CMOS scaling)
        dyn = (self.max_power_w - self.idle_power_w)
        target_power = np.where(
            self.up,
            self.idle_power_w
            + dyn * self.cpu_util * self.pstate_frac**2,
            0.0,
        )
        # first-order thermal/power lag so profiles look like real traces
        alpha = min(1.0, dt / 5.0)
        self.power_w += (target_power - self.power_w) * alpha
        self.energy_j += self.power_w * dt

        # temperature follows power above ambient
        target_temp = ambient_c + 8.0 + 0.12 * (self.power_w - self.idle_power_w).clip(0)
        self.temp_c += (target_temp - self.temp_c) * min(1.0, dt / 30.0)

        # memory leaks eat free memory until the node runs dry
        leaking = self.leak_rate > 0
        if leaking.any():
            self.mem_free_gb[leaking] = np.maximum(
                0.0, self.mem_free_gb[leaking] - self.leak_rate[leaking] * dt
            )

    # -- fault hooks -----------------------------------------------------------

    def set_hung(self, name: str, hung: bool = True) -> None:
        i = self.index[name]
        self.hung[i] = hung

    def set_down(self, name: str, down: bool = True) -> None:
        i = self.index[name]
        self.up[i] = not down

    def kill_service(self, name: str, service: str) -> None:
        i = self.index[name]
        j = ESSENTIAL_SERVICES.index(service)
        self.services[i, j] = False

    def restore_service(self, name: str, service: str) -> None:
        i = self.index[name]
        j = ESSENTIAL_SERVICES.index(service)
        self.services[i, j] = True

    def drop_mount(self, name: str, mount: str) -> None:
        i = self.index[name]
        j = ESSENTIAL_MOUNTS.index(mount)
        self.mounts[i, j] = False

    def restore_mount(self, name: str, mount: str) -> None:
        i = self.index[name]
        j = ESSENTIAL_MOUNTS.index(mount)
        self.mounts[i, j] = True

    def drift_config(self, name: str, new_hash: int = 1) -> None:
        """A node's configuration diverges from the golden image."""
        self.config_hash[self.index[name]] = new_hash

    def restore_config(self, name: str) -> None:
        self.config_hash[self.index[name]] = 0

    def start_leak(self, name: str, gb_per_s: float) -> None:
        self.leak_rate[self.index[name]] = gb_per_s

    def stop_leak(self, name: str) -> None:
        i = self.index[name]
        self.leak_rate[i] = 0.0
        self.mem_free_gb[i] = self.mem_total_gb * 0.95

    # -- derived views -----------------------------------------------------------

    def healthy_mask(self, min_free_gb: float = 4.0) -> np.ndarray:
        """Nodes passing the LANL-style basic health predicate."""
        return (
            self.up
            & ~self.hung
            & self.services.all(axis=1)
            & self.mounts.all(axis=1)
            & (self.mem_free_gb >= min_free_gb)
        )


@dataclass(frozen=True, slots=True)
class Node:
    """Lightweight object view over one row of a :class:`NodeStore`."""

    store: NodeStore
    i: int

    @property
    def name(self) -> str:
        return self.store.names[self.i]

    @property
    def up(self) -> bool:
        return bool(self.store.up[self.i])

    @property
    def hung(self) -> bool:
        return bool(self.store.hung[self.i])

    @property
    def cpu_util(self) -> float:
        return float(self.store.cpu_util[self.i])

    @property
    def mem_free_gb(self) -> float:
        return float(self.store.mem_free_gb[self.i])

    @property
    def power_w(self) -> float:
        return float(self.store.power_w[self.i])

    @property
    def temp_c(self) -> float:
        return float(self.store.temp_c[self.i])

    def service_ok(self, service: str) -> bool:
        j = ESSENTIAL_SERVICES.index(service)
        return bool(self.store.services[self.i, j])

    def mount_ok(self, mount: str) -> bool:
        j = ESSENTIAL_MOUNTS.index(mount)
        return bool(self.store.mounts[self.i, j])
