"""Health-gating ablation: the CSCS invariant, quantified.

Section II-5's policy goal: "a problem should only be encountered by at
most one batch job."  We run the same GPU-failure workload with and
without the pre/post-job gate and measure per-broken-node job exposure.
"""

import numpy as np

from repro.cluster import Machine, PackedPlacement, build_dragonfly
from repro.cluster.workload import APP_LIBRARY, Job
from repro.sources.health import HealthGate, NodeHealthSuite


def run_scenario(gated: bool, seed: int = 5):
    topo = build_dragonfly(groups=2, chassis_per_group=3,
                           blades_per_chassis=4)
    machine = Machine(topo, placement=PackedPlacement(),
                      gpu_nodes="all", seed=seed,
                      gpu_failure_kills_job=True)
    gate = HealthGate(machine, NodeHealthSuite())
    if gated:
        machine.scheduler.health_gate = gate.gate

    rng = np.random.default_rng(seed)
    fail_times = sorted(rng.uniform(300.0, 5400.0, 6))
    fail_nodes = [str(n) for n in rng.choice(topo.nodes, size=6,
                                             replace=False)]
    gpu_failed_at: dict[str, float] = {}

    jobs: list[Job] = []
    next_submit = 0.0
    fail_i = 0
    finished: set[int] = set()
    while machine.now < 9000.0:
        if machine.now >= next_submit:
            j = Job(APP_LIBRARY["qmc"], 8, machine.now, seed=len(jobs))
            j.work_seconds = 600.0
            machine.scheduler.submit(j, machine.now)
            jobs.append(j)
            next_submit = machine.now + 120.0
        while fail_i < len(fail_times) and machine.now >= fail_times[fail_i]:
            node = fail_nodes[fail_i]
            machine.gpus.health[machine.gpus.index[node]] = 0.0
            gpu_failed_at[node] = machine.now
            fail_i += 1
        machine.step(10.0)
        for j in machine.scheduler.completed:
            if j.id not in finished:
                finished.add(j.id)
                if gated:
                    gate.post_job(j)

    exposure = {}
    for node, tf in gpu_failed_at.items():
        hit = 0
        for j in jobs:
            if j.start_time is None or node not in j.nodes:
                continue
            end = j.end_time if j.end_time is not None else machine.now
            if end > tf:
                hit += 1
        exposure[node] = hit
    return exposure


class TestGatingAblation:
    def test_gate_enforces_at_most_one_job(self):
        ungated = run_scenario(False)
        gated = run_scenario(True)
        worst_ungated = max(ungated.values())
        worst_gated = max(gated.values())
        total_ungated = sum(ungated.values())
        total_gated = sum(gated.values())
        print(f"\njobs exposed to broken GPUs "
              f"(6 failures over 2.5 h of 8-node jobs):")
        print(f"  no gate  : {total_ungated} exposures, worst node hit "
              f"{worst_ungated} jobs")
        print(f"  with gate: {total_gated} exposures, worst node hit "
              f"{worst_gated} jobs")
        assert worst_gated <= 1, "paper invariant: at most one job"
        assert worst_ungated > 1, \
            "without the gate, broken nodes keep taking jobs"
        assert total_gated < total_ungated / 3

    def test_bench_gate_cost_per_node(self):
        topo = build_dragonfly(groups=2, chassis_per_group=3,
                               blades_per_chassis=4)
        machine = Machine(topo, gpu_nodes="all", seed=1)
        gate = HealthGate(machine, NodeHealthSuite())
        node = topo.nodes[0]
        ok = gate.gate(node)
        assert ok
