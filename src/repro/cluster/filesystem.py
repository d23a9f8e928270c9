"""Lustre-like shared parallel filesystem model.

NCSA's Blue Waters story (Section II-2) centers on probing "each
independent filesystem component" — object storage targets (OSTs) for
file I/O and the metadata server (MDS) for metadata operations — because
"performance problems in any of the three large shared Lustre file
systems can severely impact job performance".  The model here provides:

* striped I/O service across OSTs with per-OST bandwidth limits,
* an MDS with a bounded metadata-op rate,
* a load-dependent latency model (latency diverges as an OST or the MDS
  approaches saturation — the signal NCSA's probes surface),
* fault modes: *slow OST* (degraded bandwidth + inflated latency) and
  *filling OST* (capacity exhaustion),
* the probe API the NCSA-style collector calls
  (:meth:`LustreFS.probe_io_latency`, :meth:`LustreFS.probe_md_latency`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core.soa import name_column

__all__ = ["IODemand", "LustreFS"]


@dataclass(frozen=True, slots=True)
class IODemand:
    """One job's filesystem demand over a step interval."""

    job_id: int
    read_bytes: float
    write_bytes: float
    md_ops: float
    stripe: tuple[int, ...] = ()   # OST indices the job stripes over; ()
    # means "all OSTs" (wide striping)


class LustreFS:
    """One shared filesystem: ``n_ost`` OSTs plus one MDS."""

    def __init__(
        self,
        name: str = "scratch",
        n_ost: int = 24,
        ost_bw_Bps: float = 5e9,
        ost_capacity_bytes: float = 100e12,
        mds_ops_per_s: float = 50_000.0,
        base_io_latency_s: float = 0.004,
        base_md_latency_s: float = 0.002,
        seed: int = 0,
    ) -> None:
        self.name = name
        self.n_ost = int(n_ost)
        #: the component columns every sweep of this filesystem publishes
        self.name_column = name_column([name])
        self.mds_name_column = name_column([f"{name}-mds"])
        self.ost_name_column = name_column(self.ost_names())
        self.ost_bw_Bps = float(ost_bw_Bps)
        self.ost_capacity_bytes = float(ost_capacity_bytes)
        self.mds_ops_per_s = float(mds_ops_per_s)
        self.base_io_latency_s = float(base_io_latency_s)
        self.base_md_latency_s = float(base_md_latency_s)
        self._rng = np.random.default_rng(seed)

        self.ost_used_bytes = np.full(n_ost, 0.35 * ost_capacity_bytes)
        # per-OST health multiplier on bandwidth (1 healthy, <1 slow)
        self.ost_bw_factor = np.ones(n_ost)
        self.mds_rate_factor = 1.0

        # last-step served rates (collector surface)
        self.ost_read_Bps = np.zeros(n_ost)
        self.ost_write_Bps = np.zeros(n_ost)
        self.ost_util = np.zeros(n_ost)
        self.mds_util = 0.0
        # attribution: job_id -> (read_Bps, write_Bps) last step
        self.job_io_Bps: dict[int, tuple[float, float]] = {}
        # per-job achieved fraction of demanded I/O (slowdown signal)
        self.job_io_fraction: dict[int, float] = {}

    # -- fault hooks -------------------------------------------------------------

    def set_slow_ost(self, ost: int, bw_factor: float) -> None:
        """Degrade one OST to ``bw_factor`` of nominal bandwidth."""
        if not (0.0 < bw_factor <= 1.0):
            raise ValueError("bw_factor must be in (0, 1]")
        self.ost_bw_factor[ost] = bw_factor

    def heal_ost(self, ost: int) -> None:
        self.ost_bw_factor[ost] = 1.0

    def set_mds_degraded(self, rate_factor: float) -> None:
        self.mds_rate_factor = float(rate_factor)

    # -- service step ---------------------------------------------------------------

    def step(self, dt: float, demands: Sequence[IODemand]) -> None:
        """Serve aggregate demand for ``dt`` seconds.

        Demand is spread across each job's stripe; when aggregate demand
        on an OST exceeds its (possibly degraded) capacity, every job on
        that OST is throttled proportionally — shared-resource contention
        is exactly the cross-job interference the paper's monitoring
        targets.
        """
        offered_read = np.zeros(self.n_ost)
        offered_write = np.zeros(self.n_ost)
        shares: list[tuple[IODemand, np.ndarray, float, float]] = []

        for d in demands:
            stripe = np.asarray(
                d.stripe if d.stripe else range(self.n_ost), dtype=np.int64
            )
            per_r = d.read_bytes / dt / len(stripe)
            per_w = d.write_bytes / dt / len(stripe)
            offered_read[stripe] += per_r
            offered_write[stripe] += per_w
            shares.append((d, stripe, per_r, per_w))

        cap = self.ost_bw_Bps * self.ost_bw_factor
        offered_total = offered_read + offered_write
        with np.errstate(divide="ignore", invalid="ignore"):
            scale = np.where(
                offered_total > cap, cap / np.maximum(offered_total, 1e-9), 1.0
            )
        self.ost_read_Bps = offered_read * scale
        self.ost_write_Bps = offered_write * scale
        self.ost_util = np.where(
            cap > 0, np.minimum(offered_total / cap, 1.0), 1.0
        )

        # capacity fill from writes actually served
        self.ost_used_bytes += self.ost_write_Bps * dt
        np.minimum(
            self.ost_used_bytes, self.ost_capacity_bytes,
            out=self.ost_used_bytes,
        )

        # MDS
        md_offered = sum(d.md_ops for d in demands) / dt
        md_cap = self.mds_ops_per_s * self.mds_rate_factor
        self.mds_util = min(md_offered / md_cap, 1.0) if md_cap > 0 else 1.0

        # per-job attribution
        self.job_io_Bps = {}
        self.job_io_fraction = {}
        for d, stripe, per_r, per_w in shares:
            r = float((per_r * scale[stripe]).sum())
            w = float((per_w * scale[stripe]).sum())
            self.job_io_Bps[d.job_id] = (r, w)
            demanded = (d.read_bytes + d.write_bytes) / dt
            self.job_io_fraction[d.job_id] = (
                (r + w) / demanded if demanded > 0 else 1.0
            )

    # -- probe API (the NCSA collector path) ---------------------------------------------

    def _latency(self, base: float, util: float) -> float:
        """Queueing-style latency: base / (1 - rho) with jitter."""
        rho = min(float(util), 0.98)
        lat = base / (1.0 - rho)
        return float(lat * self._rng.uniform(0.95, 1.05))

    def probe_io_latency(self, ost: int) -> float:
        """Latency of a small read against one OST, in seconds."""
        base = self.base_io_latency_s / self.ost_bw_factor[ost]
        return self._latency(base, self.ost_util[ost])

    def probe_md_latency(self) -> float:
        """Latency of one metadata op (stat/create) against the MDS."""
        base = self.base_md_latency_s / max(self.mds_rate_factor, 1e-3)
        return self._latency(base, self.mds_util)

    # -- aggregate views -----------------------------------------------------------------------

    def read_Bps_total(self) -> float:
        return float(self.ost_read_Bps.sum())

    def write_Bps_total(self) -> float:
        return float(self.ost_write_Bps.sum())

    def fill_fractions(self) -> np.ndarray:
        return self.ost_used_bytes / self.ost_capacity_bytes

    def ost_names(self) -> list[str]:
        return [f"{self.name}-ost{i}" for i in range(self.n_ost)]
