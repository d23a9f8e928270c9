"""SNL power-sweep ablation: p-state vs energy and performance.

Section II-9: SNL "investigates power profiling, sweeping configuration
parameters such as p-state, power cap, node type, solver algorithm
choice, and memory placement, with the goal of improving application
and system energy efficiency while maintaining performance targets."

We sweep the p-state cap on a compute-bound job and measure runtime and
energy-to-solution.  The classic tradeoff must emerge: full frequency
minimizes runtime; a reduced frequency minimizes energy (static/idle
power amortizes over a longer run, dynamic power falls with f^2); the
"maintain performance targets" policy then picks the lowest-energy
p-state inside a runtime budget.
"""

import numpy as np
import pytest

from repro.cluster import Machine, PackedPlacement, build_dragonfly
from repro.cluster.workload import APP_LIBRARY, Job, JobState

PSTATES = (0.6, 0.7, 0.8, 0.9, 1.0)


def run_at_pstate(pstate: float, seed: int = 9):
    """Run one compute-bound job to completion at a frequency cap;
    returns (runtime_s, energy_J)."""
    topo = build_dragonfly(groups=2, chassis_per_group=3,
                           blades_per_chassis=4)
    machine = Machine(topo, placement=PackedPlacement(), seed=seed)
    machine.nodes.pstate_frac[:] = pstate
    job = Job(APP_LIBRARY["qmc"], 16, 0.0, seed=seed)
    job.work_seconds = 1800.0
    machine.scheduler.submit(job, 0.0)
    machine.step(10.0)
    idxs = machine.nodes.idxs(job.nodes)
    e0 = float(machine.nodes.energy_j[idxs].sum())
    while job.state is JobState.RUNNING and machine.now < 6 * 3600:
        machine.step(10.0)
    assert job.state is JobState.COMPLETED
    e1 = float(machine.nodes.energy_j[idxs].sum())
    return job.runtime, e1 - e0


@pytest.fixture(scope="module")
def sweep():
    return {p: run_at_pstate(p) for p in PSTATES}


class TestPstateSweep:
    def test_tradeoff_shape(self, sweep):
        print("\np-state sweep on a compute-bound 16-node job:")
        for p in PSTATES:
            rt, e = sweep[p]
            print(f"  f={p:.1f}: runtime {rt:7.0f}s  "
                  f"energy {e / 1e6:7.2f} MJ  "
                  f"EDP {rt * e / 1e9:7.2f} GJ*s")
        runtimes = [sweep[p][0] for p in PSTATES]
        energies = [sweep[p][1] for p in PSTATES]
        # performance: runtime strictly improves with frequency
        assert all(b < a for a, b in zip(runtimes, runtimes[1:]))
        # energy: full frequency is NOT the energy-optimal point
        assert min(energies) < energies[-1]

    def test_policy_lowest_energy_within_budget(self, sweep):
        """The 'maintain performance targets' selection."""
        budget_s = sweep[1.0][0] * 1.25   # allow 25% slowdown
        feasible = {p: (rt, e) for p, (rt, e) in sweep.items()
                    if rt <= budget_s}
        assert feasible
        best = min(feasible, key=lambda p: feasible[p][1])
        rt_full, e_full = sweep[1.0]
        rt_best, e_best = sweep[best]
        saving = 1.0 - e_best / e_full
        print(f"\nwithin a 25% runtime budget: run at f={best:.1f} -> "
              f"{100 * saving:.1f}% energy saving for "
              f"{100 * (rt_best / rt_full - 1):.0f}% more runtime")
        assert e_best <= e_full

    def test_bench_single_run(self):
        rt, e = run_at_pstate(0.8)
        assert rt > 0 and e > 0
