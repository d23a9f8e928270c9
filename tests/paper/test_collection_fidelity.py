"""Collection-interval ablation: detection latency vs overhead.

Table I: "We will always need higher fidelity data" but "where access
and transport of data might incur impact, that impact should be well-
documented."  We sweep the collection interval from 10 s to 10 min on
the same hung-node scenario and measure (a) how long the power-sweep
outlier detector takes to see the fault and (b) the samples moved and
collector wall time — the tradeoff a site actually tunes.
"""


from repro.analysis.anomaly import sweep_outliers
from repro.cluster import HungNode, Machine, PackedPlacement, build_dragonfly
from repro.cluster.workload import APP_LIBRARY, Job
from repro.pipeline import MonitoringPipeline
from repro.sources.sedc import SedcCollector

FAULT_T = 1200.0


def run_with_interval(interval_s: float, seed: int = 7):
    topo = build_dragonfly(groups=2, chassis_per_group=3,
                           blades_per_chassis=4)
    machine = Machine(topo, placement=PackedPlacement(), seed=seed)
    job = Job(APP_LIBRARY["qmc"], 8, 0.0, seed=seed, walltime_req=1500.0)
    machine.scheduler.submit(job, 0.0)
    machine.run(600.0, dt=10.0)
    victim = job.nodes[0]
    machine.faults.add(HungNode(start=FAULT_T, node=victim))

    collector = SedcCollector(interval_s=interval_s)
    pipeline = MonitoringPipeline(machine, collectors=[collector])
    pipeline.run(duration_s=3600.0, dt=10.0)

    # replay the stored sweeps: first sweep after the job died (walltime
    # 1500 s) in which the victim is a power outlier
    detect_t = None
    comps = pipeline.tsdb.components("node.power_w")
    series = {c: pipeline.tsdb.query("node.power_w", c) for c in comps}
    times = series[comps[0]].times
    for i, t in enumerate(times):
        if t < 1500.0 + 600.0:
            continue
        from repro.core.metric import SeriesBatch
        sweep = SeriesBatch.sweep(
            "node.power_w", float(t), comps,
            [series[c].values[i] for c in comps],
        )
        dets = sweep_outliers(sweep, z_threshold=4.0)
        if any(d.component == victim for d in dets):
            detect_t = float(t)
            break
    samples = pipeline.tsdb.stats().samples
    wall = collector.collect_wall_s
    return detect_t, samples, wall, victim


class TestFidelityTradeoff:
    def test_sweep_intervals(self):
        print("\ndetection latency vs collection interval "
              "(hung node, power sweeps):")
        rows = []
        for interval in (10.0, 60.0, 300.0, 600.0):
            detect_t, samples, wall, _ = run_with_interval(interval)
            assert detect_t is not None, \
                f"interval {interval}: fault never detected"
            # latency from the earliest possible detection moment (the
            # machine quiesced after walltime kill + power settling)
            latency = detect_t - 2100.0
            rows.append((interval, latency, samples, wall))
            print(f"  interval {interval:6.0f}s -> detected at "
                  f"t={detect_t:6.0f}s (latency {latency:5.0f}s), "
                  f"{samples:6d} samples stored, "
                  f"{1000 * wall:6.1f} ms collector time")
        # finer collection must not detect later than coarser
        latencies = [r[1] for r in rows]
        assert latencies[0] <= latencies[-1]
        # and must cost proportionally more samples
        assert rows[0][2] > 10 * rows[-1][2]

    def test_bench_collection_sweep_cost(self):
        topo = build_dragonfly(groups=2, chassis_per_group=3,
                               blades_per_chassis=4)
        machine = Machine(topo, seed=1)
        collector = SedcCollector(interval_s=60.0)
        out = collector.collect(machine, 60.0)
        assert out.n_samples == 3 * len(topo.nodes)
