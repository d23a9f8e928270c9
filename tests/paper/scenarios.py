"""Shared scenario builders for the figure/table benches.

Each scenario simulates a monitored machine with the ground-truth
conditions a paper figure shows, returning the pipeline whose stores the
figure is regenerated from.  Scenarios are deterministic (seeded) and
sized to run in seconds so the whole bench suite stays interactive.
"""

from __future__ import annotations

from repro.cluster import (
    LoadImbalance,
    Machine,
    MdsDegradation,
    PackedPlacement,
    ScatteredPlacement,
    SlowOst,
    TopoAwarePlacement,
    build_dragonfly,
    build_torus,
)
from repro.cluster.workload import APP_LIBRARY, AppProfile, CommPattern, Job, Phase
from repro.pipeline import MonitoringPipeline, default_collectors
from repro.sources.counters import InjectionCollector, NetLinkCollector


class OneShotSubmitter:
    """Job source that submits prepared jobs at their submit times."""

    def __init__(self, jobs):
        self._pending = sorted(jobs, key=lambda j: j.submit_time)

    def poll(self, now):
        out = []
        while self._pending and self._pending[0].submit_time <= now:
            out.append(self._pending.pop(0))
        return out


# a communication-heavy app used to load the fabric in the TAS scenario:
# per-node demand at the NIC line rate, so achieved injection is limited
# by path contention — the quantity TAS placement changes
COMM_APP = AppProfile(
    name="halo_heavy",
    phases=(Phase(1.0, cpu_util=0.9, comm_Bps=6e9),),
    comm_pattern=CommPattern.HALO3D,
    work_seconds=7200.0,
    comm_weight=0.6,
    runtime_noise=0.01,
    typical_nodes=(16,),
)


def tas_scenario(tas: bool, seed: int = 3, sim_s: float = 1800.0):
    """Figure 1: a 3D-torus machine saturated with halo-exchange jobs,
    placed either scattered (pre-TAS) or topology-aware (TAS)."""
    topo = build_torus(4, 4, 4, nodes_per_router=2)
    placement = TopoAwarePlacement() if tas else ScatteredPlacement()
    jobs = [
        Job(COMM_APP, 16, submit_time=0.0, seed=seed * 100 + i)
        for i in range(8)    # 8 x 16 = 128 nodes: the whole machine
    ]
    machine = Machine(topo, placement=placement,
                      job_generator=OneShotSubmitter(jobs), seed=seed)
    pipeline = MonitoringPipeline(
        machine,
        collectors=[InjectionCollector(interval_s=60.0),
                    NetLinkCollector(interval_s=60.0)],
    )
    pipeline.run(duration_s=sim_s, dt=10.0)
    return pipeline


def benchmark_tracking_scenario(seed: int = 5):
    """Figure 2: benchmark suite on a machine that develops filesystem
    problems partway through the tracked period."""
    topo = build_dragonfly(groups=2, chassis_per_group=3,
                           blades_per_chassis=4)
    machine = Machine(topo, placement=PackedPlacement(), seed=seed)
    machine.faults.add(SlowOst(start=7200.0, duration=5400.0, ost=0,
                               bw_factor=0.08))
    machine.faults.add(MdsDegradation(start=18000.0, duration=3600.0,
                                      rate_factor=0.1))
    pipeline = MonitoringPipeline(
        machine,
        collectors=default_collectors(machine, metric_interval_s=300.0,
                                      bench_interval_s=600.0, seed=seed),
    )
    pipeline.run(hours=7.0, dt=60.0)
    return pipeline


def power_imbalance_scenario(seed: int = 31):
    """Figure 3: whole-machine job develops load imbalance mid-run."""
    topo = build_dragonfly(groups=4, chassis_per_group=3,
                           blades_per_chassis=4)
    machine = Machine(topo, placement=PackedPlacement(), seed=seed)
    job = Job(APP_LIBRARY["qmc"], len(topo.nodes), 0.0, seed=seed)
    machine.scheduler.submit(job, 0.0)
    machine.faults.add(
        LoadImbalance(start=1200.0, duration=1800.0, frac_busy=0.25,
                      wait_util=0.05)
    )
    pipeline = MonitoringPipeline(
        machine,
        collectors=default_collectors(machine, metric_interval_s=60.0,
                                      seed=seed),
    )
    pipeline.run(hours=1.5, dt=10.0)
    return pipeline, job


def io_spike_scenario(seed: int = 11):
    """Figures 4/5: quiet background + a read-heavy job owning a spike."""
    topo = build_dragonfly(groups=2, chassis_per_group=3,
                           blades_per_chassis=4)
    quiet = Job(APP_LIBRARY["qmc"], 16, 0.0, seed=seed)
    io_heavy = Job(APP_LIBRARY["genomics"], 32, 600.0, seed=seed + 1)
    machine = Machine(topo, placement=PackedPlacement(),
                      job_generator=OneShotSubmitter([io_heavy]),
                      seed=seed)
    machine.scheduler.submit(quiet, 0.0)
    pipeline = MonitoringPipeline(
        machine,
        collectors=default_collectors(machine, metric_interval_s=60.0,
                                      seed=seed),
    )
    pipeline.run(hours=1.2, dt=10.0)
    return pipeline, io_heavy
