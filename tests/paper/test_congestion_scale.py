"""Congestion-analysis scaling: cost vs system size, on both fabrics.

SNL collects counters "synchronously across a whole system" at 1-60 s
intervals — so the analysis must keep up with the sweep rate at full
machine scale.  We measure congestion-region detection cost as the
dragonfly/torus grows, and verify detection quality is size-independent.
"""

import numpy as np
import pytest

from repro.analysis.congestion import congestion_regions
from repro.cluster.network import Flow, NetworkState
from repro.cluster.topology import build_dragonfly, build_torus


def hot_network(topo, seed=0):
    """Drive one corner of the fabric into congestion."""
    net = NetworkState(topo, seed=seed)
    dst = topo.nodes[-1]
    n_senders = min(48, len(topo.nodes) - 1)
    flows = [Flow(topo.nodes[i], dst, 30e9) for i in range(n_senders)]
    net.step(1.0, flows)
    return net


SIZES = {
    "dragonfly-s": lambda: build_dragonfly(2, 3, 4),     # 96 nodes
    "dragonfly-m": lambda: build_dragonfly(4, 6, 8),     # 768 nodes
    "dragonfly-l": lambda: build_dragonfly(8, 6, 16),    # 3072 nodes
    "torus-m": lambda: build_torus(6, 6, 6),             # 432 nodes
    "torus-l": lambda: build_torus(10, 10, 10),          # 2000 nodes
}


class TestScaling:
    def test_detection_quality_scale_independent(self):
        print("\ncongestion regions across machine sizes:")
        for name, builder in SIZES.items():
            topo = builder()
            net = hot_network(topo)
            regions = congestion_regions(topo, net.link_stall_ratio,
                                         min_level=2)
            assert regions, f"{name}: the hotspot must be found"
            dst_router = topo.node_router[topo.nodes[-1]]
            assert any(dst_router in r.routers for r in regions), \
                f"{name}: region must contain the victim router"
            top = regions[0]
            print(f"  {name:12} {len(topo.nodes):5d} nodes "
                  f"{len(topo.links):6d} links -> {len(regions)} regions, "
                  f"top: {top.size} links, max stall {top.max_stall:.2f}")

    @pytest.mark.parametrize("name", ["dragonfly-m", "dragonfly-l",
                                      "torus-l"])
    def test_bench_region_detection(self, name):
        topo = SIZES[name]()
        net = hot_network(topo)
        regions = congestion_regions(topo, net.link_stall_ratio, 2)
        assert regions

    def test_adaptive_routing_shrinks_victim_impact(self):
        """UGAL-style adaptive routing (the Aries mechanism SNL's
        counters observe) routes bystander traffic around the hotspot."""
        results = {}
        for adaptive in (False, True):
            topo = build_dragonfly(4, 6, 8)
            net = NetworkState(topo, seed=2, adaptive=adaptive)
            hot = [Flow(topo.nodes[i], topo.nodes[-1], 30e9)
                   for i in range(48)]
            # a bystander whose minimal path crosses the hot region
            bystander = Flow(topo.nodes[60], topo.nodes[-2], 5e9)
            for _ in range(4):
                net.step(1.0, hot + [bystander])
            si = net.node_index[bystander.src]
            results[adaptive] = (
                float(net.inject_achieved_Bps[si]),
                net.detours,
            )
        bw_min, _ = results[False]
        bw_ada, detours = results[True]
        print(f"\nbystander through the hotspot: minimal routing "
              f"{bw_min / 1e9:.2f} GB/s, adaptive {bw_ada / 1e9:.2f} GB/s "
              f"({detours} detours)")
        assert detours > 0
        assert bw_ada >= bw_min

    def test_bench_traffic_step_large_dragonfly(self):
        topo = SIZES["dragonfly-l"]()
        net = NetworkState(topo, seed=1)
        rng = np.random.default_rng(2)
        nodes = topo.nodes
        flows = [
            Flow(nodes[i], nodes[j], 1e8)
            for i, j in rng.integers(0, len(nodes), size=(2000, 2))
            if i != j
        ]
        net.step(1.0, flows)     # warm the route cache
        net.step(1.0, flows)
        assert net.cum_traffic_flits.sum() > 0
