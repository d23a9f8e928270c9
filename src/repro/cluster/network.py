"""HSN traffic engine: routing, per-link counters, congestion, BER.

SNL's approach (Section II-9) derives congestion levels and *regions*
from functional combinations of HSN performance counters collected
synchronously across the whole system.  This module produces exactly the
counters that analysis consumes:

* ``link.traffic_flits`` — cumulative flits moved per link,
* ``link.stall_flits``   — cumulative credit-stall flits per link,
* ``link.ber``           — current bit-error rate per link (ALCF trends),
* ``node.inject_bw_frac``— achieved injection bandwidth per node as a
  fraction of NIC line rate (the Figure 1 quantity).

The contention model is deliberately simple but preserves the behaviour
the paper's stories rely on: offered load beyond a link's capacity stalls
senders (stall flits grow super-linearly near saturation, M/M/1-style),
and flows sharing an oversubscribed link see proportionally reduced
throughput — so victim applications on shared links slow down, which is
what HLRS's aggressor/victim classifier detects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core.soa import name_column
from .topology import NoRouteError, Topology

__all__ = ["Flow", "NetworkState", "FLIT_BYTES"]

FLIT_BYTES = 16.0  # payload bytes per flit (Aries-class granularity)


@dataclass(frozen=True, slots=True)
class Flow:
    """One point-to-point traffic demand over a step interval."""

    src: str     # node cname
    dst: str     # node cname
    bytes: float


class NetworkState:
    """Per-link and per-node network counters plus the traffic step.

    The step routine is the hot path of the whole simulator; per-flow
    work is one cached route lookup plus ``np.add.at`` scatter-adds into
    link arrays.
    """

    def __init__(
        self,
        topo: Topology,
        seed: int = 0,
        adaptive: bool = False,
        adaptive_threshold: float = 0.7,
    ) -> None:
        self.topo = topo
        # adaptive (Valiant-style) routing: when last sweep saw a flow's
        # minimal path congested beyond the threshold, detour the flow
        # via a random intermediate router — Aries' congestion response,
        # which spreads hotspots at the cost of extra hops
        self.adaptive = adaptive
        self.adaptive_threshold = float(adaptive_threshold)
        self.detours = 0
        n_links = len(topo.links)
        n_nodes = len(topo.nodes)
        rng = np.random.default_rng(seed)
        self._rng = rng

        self.cum_traffic_flits = np.zeros(n_links)
        self.cum_stall_flits = np.zeros(n_links)
        # healthy SerDes BER around 1e-15 with lognormal part spread
        self.ber = 10 ** rng.normal(-15.0, 0.3, n_links)
        # per-link BER growth rate per second (0 = stable; faults raise it)
        self.ber_growth = np.zeros(n_links)
        self.link_failed = np.zeros(n_links, dtype=bool)

        self.node_index = {n: i for i, n in enumerate(topo.nodes)}
        self.inject_offered_Bps = np.zeros(n_nodes)
        self.inject_achieved_Bps = np.zeros(n_nodes)

        # last-step per-link instantaneous quantities (for collectors)
        self.link_util = np.zeros(n_links)
        self.link_stall_ratio = np.zeros(n_links)

        self._bw = np.array([l.bandwidth_Bps for l in topo.links])
        self._link_names = name_column([l.name for l in topo.links])

    # -- faults ----------------------------------------------------------------

    def fail_link(self, idx: int) -> None:
        if not self.link_failed[idx]:
            self.link_failed[idx] = True
            self.topo.remove_link(idx)

    def restore_link(self, idx: int) -> None:
        if self.link_failed[idx]:
            self.link_failed[idx] = False
            self.topo.restore_link(idx)

    def start_ber_degradation(self, idx: int, decades_per_day: float) -> None:
        """Begin exponential BER growth on a link (marginal cable model)."""
        self.ber_growth[idx] = decades_per_day / 86400.0

    # -- the traffic step ----------------------------------------------------------

    def step(self, dt: float, flows: Sequence[Flow]) -> None:
        """Route ``flows`` over ``dt`` seconds and update all counters."""
        topo = self.topo
        n_links = len(topo.links)
        offered = np.zeros(n_links)

        routed: list[tuple[Flow, tuple[int, ...]]] = []
        self.inject_offered_Bps[:] = 0.0
        self.inject_achieved_Bps[:] = 0.0

        prev_util = self.link_util
        # batch the per-link scatter-adds: one np.add.at over the
        # concatenated routes instead of one call per flow (the hot
        # path; profiling showed per-flow ufunc.at dominating)
        flat_links: list[int] = []
        route_lens: list[int] = []
        route_bytes: list[float] = []
        for f in flows:
            if f.bytes <= 0:
                continue
            try:
                route = topo.route(f.src, f.dst)
            except NoRouteError:
                continue  # partitioned after link failures: flow drops
            if (
                self.adaptive
                and route
                and max(prev_util[i] for i in route)
                >= self.adaptive_threshold
            ):
                detour = self._valiant_route(f.src, f.dst, prev_util)
                if detour is not None:
                    route = detour
                    self.detours += 1
            routed.append((f, route))
            si = self.node_index[f.src]
            self.inject_offered_Bps[si] += f.bytes / dt
            if route:
                flat_links.extend(route)
                route_lens.append(len(route))
                route_bytes.append(f.bytes)
        if flat_links:
            np.add.at(
                offered,
                np.asarray(flat_links, dtype=np.int64),
                np.repeat(np.asarray(route_bytes),
                          np.asarray(route_lens)),
            )

        cap = self._bw * dt
        with np.errstate(divide="ignore", invalid="ignore"):
            util = np.where(cap > 0, offered / cap, 0.0)
        self.link_util = np.minimum(util, 1.0)

        # stalls: M/M/1-ish waiting growth, clipped before the pole
        rho = np.minimum(util, 0.97)
        stall_per_flit = np.where(
            util > 0.05, 0.15 * rho / (1.0 - rho), 0.0
        )
        moved_bytes = np.minimum(offered, cap)
        moved_flits = moved_bytes / FLIT_BYTES
        self.cum_traffic_flits += moved_flits
        stall_flits = moved_flits * stall_per_flit
        self.cum_stall_flits += stall_flits
        denom = moved_flits + stall_flits
        self.link_stall_ratio = np.divide(
            stall_flits,
            denom,
            out=np.zeros_like(denom),
            where=denom > 0,
        )

        # per-flow achieved throughput: limited by the most oversubscribed
        # link on its path (max util), then by the NIC line rate
        for f, route in routed:
            si = self.node_index[f.src]
            slowdown = 1.0
            if route:
                worst = max(util[i] for i in route)
                if worst > 1.0:
                    slowdown = 1.0 / worst
            self.inject_achieved_Bps[si] += (f.bytes / dt) * slowdown
        np.minimum(
            self.inject_achieved_Bps,
            getattr(topo, "nic_bw_Bps", np.inf),
            out=self.inject_achieved_Bps,
        )

        # BER evolution for degrading links
        growing = self.ber_growth > 0
        if growing.any():
            self.ber[growing] *= 10 ** (self.ber_growth[growing] * dt)

    def _valiant_route(
        self, src: str, dst: str, prev_util: np.ndarray
    ) -> tuple[int, ...] | None:
        """UGAL-style detour: a Valiant route via a random intermediate,
        taken only when it is *measurably cooler* than the minimal path.

        Always-detour Valiant famously hurts uniform traffic (every
        detour doubles global-link crossings); Aries' UGAL compares the
        congestion of the minimal and non-minimal candidates and takes
        the detour only when it wins.  We approximate queue depth with
        last-sweep link utilization.
        """
        minimal = self.topo.route(src, dst)
        min_cost = max((prev_util[i] for i in minimal), default=0.0)
        nodes = self.topo.nodes
        ra = self.topo.node_router[src]
        rb = self.topo.node_router[dst]
        best: tuple[int, ...] | None = None
        best_cost = min_cost - 0.1   # detour must clearly win
        for _ in range(4):   # a few candidate intermediates
            mid = nodes[int(self._rng.integers(0, len(nodes)))]
            rm = self.topo.node_router[mid]
            if rm == ra or rm == rb:
                continue
            try:
                candidate = self.topo.route(src, mid) + self.topo.route(
                    mid, dst
                )
            except NoRouteError:
                continue
            cost = max((prev_util[i] for i in candidate), default=0.0)
            if cost < best_cost:
                best = candidate
                best_cost = cost
        return best

    # -- derived views for collectors ------------------------------------------------

    def inject_bw_frac(self) -> np.ndarray:
        """Achieved injection bandwidth fraction per node (Figure 1)."""
        nic = getattr(self.topo, "nic_bw_Bps", None)
        if not nic:
            return np.zeros_like(self.inject_achieved_Bps)
        return self.inject_achieved_Bps / nic

    def link_names(self) -> np.ndarray:
        """Link names in counter order: one read-only column, the same
        object on every call."""
        return self._link_names
