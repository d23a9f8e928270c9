"""Envisioned-response ablation: power-aware + congestion-aware scheduling.

Section III-C: "Power-aware scheduling seems likely to become important
with increasing scale" and sites "envision the redirection of power
between platforms ... based on both current and anticipated needs";
"Scheduling and allocation based on application and resource state is
an active area of interest."  Both are measured here:

* the power governor must hold the system under its budget at a
  throughput cost, and downclock-to-fit must buy back some of that cost
  (the power-redirection behaviour);
* congestion-aware placement must spare a communication-sensitive job
  from an existing hot region, measured as achieved injection bandwidth.
"""

import numpy as np

from repro.cluster import (
    Machine,
    PackedPlacement,
    PowerModel,
    build_dragonfly,
)
from repro.cluster.workload import APP_LIBRARY, AppProfile, CommPattern, Job, Phase
from repro.response.governor import CongestionAwarePlacement, PowerGovernor


def power_scenario(budget_frac: float | None, downclock: bool = False,
                   seed: int = 7):
    """A job stream under (optional) power budgeting; returns
    (peak_power, budget, completed_work_seconds)."""
    topo = build_dragonfly(groups=3, chassis_per_group=3,
                           blades_per_chassis=4)
    machine = Machine(topo, placement=PackedPlacement(), seed=seed)
    pm = PowerModel(topo, machine.nodes)
    idle = pm.system_power_w()
    dyn = machine.nodes.max_power_w - machine.nodes.idle_power_w
    full = idle + len(topo.nodes) * dyn
    budget = np.inf
    gov = None
    if budget_frac is not None:
        budget = idle + budget_frac * (full - idle)
        gov = PowerGovernor(machine, budget_w=budget,
                            downclock_to_fit=downclock)
        machine.scheduler.admission_control = gov.admit

    next_submit = 0.0
    k = 0
    peak = 0.0
    while machine.now < 7200.0:
        if machine.now >= next_submit:
            j = Job(APP_LIBRARY["qmc"], 24, machine.now, seed=k)
            j.work_seconds = 1200.0
            machine.scheduler.submit(j, machine.now)
            k += 1
            next_submit = machine.now + 240.0
        machine.step(10.0)
        if gov is not None:
            gov.relax()
        peak = max(peak, pm.system_power_w())
    done_work = sum(
        j.work_seconds for j in machine.scheduler.completed
    )
    return peak, budget, done_work, gov


class TestPowerBudget:
    def test_budget_held_with_throughput_cost(self):
        peak_free, _, work_free, _ = power_scenario(None)
        peak_cap, budget, work_cap, gov = power_scenario(0.5)
        print(f"\npower-aware scheduling (budget = idle + 50% dynamic):")
        print(f"  unbounded : peak {peak_free / 1e3:6.1f} kW, "
              f"completed work {work_free / 3600:.1f} core-h-equiv")
        print(f"  budgeted  : peak {peak_cap / 1e3:6.1f} kW "
              f"(budget {budget / 1e3:.1f} kW), work "
              f"{work_cap / 3600:.1f}, deferrals {gov.deferred}")
        assert peak_cap <= budget * 1.02
        assert peak_free > budget          # the budget actually binds
        assert work_cap < work_free        # and costs throughput
        assert work_cap > 0.3 * work_free  # but work still flows

    def test_downclock_to_fit_buys_back_throughput(self):
        _, _, work_wait, _ = power_scenario(0.5, downclock=False)
        peak_dc, budget, work_dc, gov = power_scenario(0.5, downclock=True)
        print(f"\ndownclock-to-fit: work {work_dc / 3600:.1f} vs "
              f"{work_wait / 3600:.1f} (wait-only), "
              f"downclocks {gov.downclocks}, peak {peak_dc / 1e3:.1f} kW")
        assert peak_dc <= budget * 1.02
        assert work_dc >= work_wait * 0.95   # at worst comparable
        assert gov.downclocks >= 1

    def test_bench_admission_decision(self):
        topo = build_dragonfly(groups=2, chassis_per_group=3,
                               blades_per_chassis=4)
        machine = Machine(topo, seed=1)
        gov = PowerGovernor(machine, budget_w=1e9)
        job = Job(APP_LIBRARY["qmc"], 16, 0.0, seed=1)
        assert gov.admit(job)


VICTIM = AppProfile(
    name="victim_a2a",
    phases=(Phase(1.0, cpu_util=0.9, comm_Bps=5e9),),
    comm_pattern=CommPattern.ALLTOALL,
    work_seconds=3600.0,
    comm_weight=0.6,
    typical_nodes=(16,),
)

AGGRESSOR = AppProfile(
    name="aggressor_a2a",
    phases=(Phase(1.0, cpu_util=0.8, comm_Bps=25e9),),
    comm_pattern=CommPattern.ALLTOALL,
    work_seconds=36000.0,
    comm_weight=0.05,
    typical_nodes=(24,),
)


class _PinnedPlacement:
    """Places the next job on an exact node list (scenario setup)."""

    name = "pinned"

    def __init__(self, nodes):
        self.nodes = list(nodes)

    def place(self, topo, free, n_nodes, rng):
        picks = [n for n in self.nodes if n in set(free)][:n_nodes]
        return picks if len(picks) == n_nodes else None


class TestCongestionAwareScheduling:
    def run_victim(self, placement_factory, seed=11):
        """Aggressor interleaved on half of every group-0 blade (so new
        arrivals in group 0 share routers and links with it); groups
        1/2 mostly filled by a quiet job so plain TAS (most-free-first)
        steers the victim INTO the hot group.  Congestion-aware
        placement must not."""
        topo = build_dragonfly(groups=3, chassis_per_group=3,
                               blades_per_chassis=4)
        machine = Machine(topo, seed=seed)
        g0 = [n for n in topo.nodes if topo.node_group[n] == 0]
        agg_nodes = [n for n in g0
                     if n.endswith("n0") or n.endswith("n1")]
        others = [n for n in topo.nodes if topo.node_group[n] != 0]

        aggressor = Job(AGGRESSOR, 24, 0.0, seed=seed)
        machine.scheduler.placement = _PinnedPlacement(agg_nodes)
        machine.scheduler.submit(aggressor, 0.0)
        machine.scheduler.tick(0.0)
        filler = Job(APP_LIBRARY["qmc"], 80, 0.0, seed=seed + 1)
        machine.scheduler.placement = _PinnedPlacement(others)
        machine.scheduler.submit(filler, 0.0)
        machine.scheduler.tick(0.0)
        machine.run(120.0, dt=10.0)   # let the hot region develop

        machine.scheduler.placement = placement_factory(machine)
        victim = Job(VICTIM, 16, machine.now, seed=seed + 2)
        machine.scheduler.submit(victim, machine.now)
        machine.run(300.0, dt=10.0)
        assert victim.nodes, "victim must have started"
        idxs = machine.nodes.idxs(victim.nodes)
        achieved = machine.network.inject_bw_frac()[idxs].mean()
        groups = {topo.node_group[n] for n in victim.nodes}
        return achieved, groups

    def test_congestion_aware_spares_the_victim(self):
        from repro.cluster.scheduler import TopoAwarePlacement

        # plain TAS is congestion-blind: most free nodes = hot group 0
        tas_bw, tas_groups = self.run_victim(
            lambda m: TopoAwarePlacement()
        )
        ca_bw, ca_groups = self.run_victim(
            lambda m: CongestionAwarePlacement(m.network)
        )
        print(f"\nvictim achieved injection: TAS={tas_bw:.3f} "
              f"(groups {sorted(tas_groups)}), congestion-aware="
              f"{ca_bw:.3f} (groups {sorted(ca_groups)})")
        assert 0 in tas_groups        # TAS walked into the hot region
        assert 0 not in ca_groups     # the aware policy did not
        assert ca_bw > tas_bw * 1.2
