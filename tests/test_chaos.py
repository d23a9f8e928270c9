"""Chaos campaign: random fault schedules must never break the stack.

The paper's operational reality is overlapping, unanticipated failures.
We throw randomized fault schedules (types, targets, timings, overlaps)
at the full pipeline and assert the structural invariants that must
survive *any* weather: no exceptions, consistent stores, conserved
scheduler accounting, monotone counters.
"""

import numpy as np
import pytest

from repro.cluster import (
    BerDegradation,
    ConfigDrift,
    HungNode,
    LinkFailure,
    LoadImbalance,
    Machine,
    MdsDegradation,
    MemoryLeak,
    MountLoss,
    PackedPlacement,
    QueueBlockage,
    ServiceDeath,
    SlowOst,
    ThermalExcursion,
    build_dragonfly,
)
from repro.cluster.workload import JobGenerator, JobState
from repro.sites import SiteConfig, build_site


def random_fault(rng, machine, t):
    """One randomly parameterized fault at time ``t``."""
    topo = machine.topo
    node = str(rng.choice(topo.nodes))
    duration = float(rng.uniform(120.0, 1200.0))
    choices = [
        lambda: HungNode(start=t, duration=duration, node=node),
        lambda: ServiceDeath(start=t, duration=duration, node=node,
                             service=str(rng.choice(
                                 ["slurmd", "munge", "ntpd", "lnet"]))),
        lambda: MountLoss(start=t, duration=duration, node=node),
        lambda: MemoryLeak(start=t, duration=duration, node=node,
                           gb_per_s=float(rng.uniform(0.01, 0.5))),
        lambda: ConfigDrift(start=t, duration=duration, node=node),
        lambda: SlowOst(start=t, duration=duration,
                        ost=int(rng.integers(0, machine.fs.n_ost)),
                        bw_factor=float(rng.uniform(0.05, 0.5))),
        lambda: MdsDegradation(start=t, duration=duration,
                               rate_factor=float(rng.uniform(0.05, 0.5))),
        lambda: LinkFailure(start=t, duration=duration,
                            link_index=int(rng.integers(
                                0, len(topo.links)))),
        lambda: BerDegradation(start=t, duration=duration,
                               link_index=int(rng.integers(
                                   0, len(topo.links))),
                               decades_per_day=float(
                                   rng.uniform(0.5, 5.0))),
        lambda: QueueBlockage(start=t, duration=duration),
        lambda: ThermalExcursion(start=t, duration=duration,
                                 delta_c=float(rng.uniform(2.0, 10.0))),
        lambda: LoadImbalance(start=t, duration=duration,
                              frac_busy=float(rng.uniform(0.2, 0.8))),
    ]
    return choices[int(rng.integers(0, len(choices)))]()


@pytest.mark.parametrize("seed", [11, 23, 47])
def test_random_fault_campaign_survives(seed):
    rng = np.random.default_rng(seed)
    topo = build_dragonfly(groups=2, chassis_per_group=3,
                           blades_per_chassis=4)
    machine = Machine(
        topo,
        placement=PackedPlacement(),
        job_generator=JobGenerator(mean_interarrival_s=200,
                                   max_nodes=24, seed=seed),
        gpu_nodes="all",
        seed=seed,
    )
    n_faults = int(rng.integers(5, 12))
    for _ in range(n_faults):
        machine.faults.add(
            random_fault(rng, machine, float(rng.uniform(60.0, 3000.0)))
        )
    pipeline = build_site(SiteConfig(seed=seed), machine=machine)
    pipeline.run(hours=1.2, dt=10.0)   # must not raise

    # -- structural invariants under arbitrary weather --------------------

    # scheduler accounting conserved
    sched = machine.scheduler
    allocated = [n for j in sched.running for n in j.nodes]
    assert len(allocated) == len(set(allocated))
    assert set(allocated) == set(sched.allocated)
    for j in sched.completed:
        assert j.state in (JobState.COMPLETED, JobState.FAILED)
        assert j.end_time is not None

    # cumulative counters are monotone by construction; spot-check totals
    assert (machine.network.cum_traffic_flits >= 0).all()
    assert (machine.network.cum_stall_flits >= 0).all()
    assert (machine.nodes.energy_j >= 0).all()

    # every stored series is time-sorted and self-consistent
    for key in pipeline.tsdb.keys("node.power_w")[:5]:
        series = pipeline.tsdb.query(key.metric, key.component)
        assert (np.diff(series.times) > 0).all()
        assert np.isfinite(series.values).all()

    # job index agrees with the scheduler's view of completed jobs
    done = {j.id for j in sched.completed if j.start_time is not None}
    indexed_done = {
        a.job_id
        for a in pipeline.jobs.jobs_overlapping(-np.inf, np.inf)
        if a.end is not None
    }
    assert indexed_done <= {j.id for j in sched.completed} | {
        j.id for j in sched.running
    }
    assert done <= set(
        a.job_id for a in pipeline.jobs.jobs_overlapping(-np.inf, np.inf)
    )

    # the event plane kept flowing
    assert pipeline.router.events_routed >= n_faults  # faults emit events


# -- monitor-side chaos: breaking the monitoring plane itself -----------------

def random_monitor_fault(rng, t):
    """One randomly parameterized *monitor* fault at time ``t``."""
    from repro.obs.chaos import (
        CollectorHang,
        CollectorRaise,
        ShardOutage,
        TransportDropStorm,
        TransportDuplication,
    )

    duration = float(rng.uniform(300.0, 1500.0))
    target = str(rng.choice(["sedc", "net_links", "fs_probes",
                             "environment", "node_counters"]))
    choices = [
        lambda: CollectorRaise(start=t, duration=duration, target=target),
        lambda: CollectorHang(start=t, duration=duration, target=target,
                              stall_s=0.02),
        lambda: TransportDropStorm(start=t, duration=duration,
                                   drop_every=int(rng.integers(2, 6))),
        lambda: TransportDuplication(start=t, duration=duration,
                                     duplicate_every=int(
                                         rng.integers(2, 6))),
        lambda: ShardOutage(start=t, duration=duration,
                            shard=int(rng.integers(0, 4))),
    ]
    return choices[int(rng.integers(0, len(choices)))]()


@pytest.mark.parametrize("seed", [5, 29])
def test_monitor_fault_campaign_survives(seed):
    """Faults in the monitoring plane itself: the pipeline never raises,
    every supervised component returns to OK after the fault clears, and
    the delivery ledger reconciles exactly."""
    from repro.core.lifecycle import Health
    from repro.obs.chaos import ChaosTransport, MonitorFaultInjector
    from repro.transport.partitioned import PartitionedBus

    rng = np.random.default_rng(seed)
    topo = build_dragonfly(groups=2, chassis_per_group=3,
                           blades_per_chassis=4)
    machine = Machine(
        topo,
        placement=PackedPlacement(),
        job_generator=JobGenerator(mean_interarrival_s=200,
                                   max_nodes=24, seed=seed),
        gpu_nodes="all",
        seed=seed,
    )
    # machine weather AND monitor faults, overlapping
    machine.faults.add(HungNode(start=600.0, duration=900.0,
                                node=topo.nodes[3]))
    pipeline = build_site(
        SiteConfig(seed=seed, shards=4, collector_budget_s=0.01),
        machine=machine,
        overrides={"transport": ChaosTransport(PartitionedBus())},
    )
    total_s = 4000.0
    inj = MonitorFaultInjector([
        random_monitor_fault(rng, float(rng.uniform(60.0, 2000.0)))
        for _ in range(int(rng.integers(3, 6)))
    ])
    # shard outages must clear early enough for the supervised-store
    # hysteresis (two clean selfmon observations) to heal before the end
    for f in inj.faults:
        f.duration = min(f.duration, total_s - f.start - 600.0)

    dt = 10.0
    end = machine.now + total_s
    while machine.now < end - 1e-9:       # must not raise, ever
        inj.step(pipeline, machine.now)
        pipeline.step(dt)
    inj.step(pipeline, machine.now)
    pipeline.bus.flush()

    # every fault was applied and reverted on schedule
    assert inj.all_reverted()

    # every supervised component recovered once its fault cleared
    sup = pipeline.supervisor
    impaired = {name: rec.health for name, rec in sup.components.items()
                if rec.health is not Health.OK}
    assert impaired == {}, sup.timeline()

    # the ledger reconciles exactly: zero silent loss
    report = pipeline.delivery_report()
    assert report.balanced, report.render()
    assert report.pending == 0 and report.in_flight == 0
    assert report.published == report.stored + report.lost
    # any loss is attributed to a known cause
    assert set(report.lost_by_cause) <= {
        "chaos-drop", "partition-overflow", "shard-redo-overflow",
        "store-error",
    }

    # the faults actually bit (the campaign exercised something) and
    # the timeline recorded the impairment episodes
    assert len(sup.transitions) > 0


@pytest.mark.parametrize("seed", [11])
def test_kill_and_recover_campaign_accounts_every_point(seed, tmp_path):
    """Hard-crash the disk-backed store mid-campaign, under transport
    chaos: the pipeline never raises, every component heals, and the
    ledger identity ``published == stored + lost + pending + in_flight``
    holds exactly across the crash — unsynced loss is a named cause,
    never a silence."""
    from repro.core.lifecycle import Health
    from repro.obs.chaos import (
        ChaosTransport,
        CollectorRaise,
        MonitorFaultInjector,
        ShardOutage,
        StoreCrash,
        TransportDropStorm,
    )
    from repro.storage.rollup import DEFAULT_LEVELS
    from repro.storage.sharded import ShardedTimeSeriesStore
    from repro.transport.partitioned import PartitionedBus

    topo = build_dragonfly(groups=2, chassis_per_group=3,
                           blades_per_chassis=4)
    machine = Machine(
        topo,
        placement=PackedPlacement(),
        job_generator=JobGenerator(mean_interarrival_s=200,
                                   max_nodes=24, seed=seed),
        gpu_nodes="all",
        seed=seed,
    )
    # small chunks and a tiny hot budget so the campaign actually
    # seals, spills, and WAL-syncs before the crash lands
    tsdb = ShardedTimeSeriesStore(
        shards=4, chunk_size=24, pyramid_levels=DEFAULT_LEVELS,
        disk_dir=str(tmp_path), hot_bytes=16 << 10,
        sync_every_bytes=64 << 10,
    )
    pipeline = build_site(
        SiteConfig(seed=seed, collector_budget_s=0.01),
        machine=machine,
        overrides={"transport": ChaosTransport(PartitionedBus()),
                   "tsdb": tsdb},
    )
    total_s = 4000.0
    crash = StoreCrash(start=2400.0)
    # the crash lands while shard 1 holds redo state: redo-parked points
    # are not WAL-logged, so they must leave as named loss, not silence
    inj = MonitorFaultInjector([
        CollectorRaise(start=600.0, duration=900.0, target="sedc"),
        TransportDropStorm(start=1200.0, duration=800.0, drop_every=3),
        ShardOutage(start=2300.0, duration=300.0, shard=1),
        crash,
    ])

    dt = 10.0
    end = machine.now + total_s
    snapped = False
    while machine.now < end - 1e-9:       # must not raise, ever
        if not snapped and machine.now >= 1500.0:
            tsdb.snapshot()               # manifest + WAL rotation
            snapped = True
        inj.step(pipeline, machine.now)
        pipeline.step(dt)
    inj.step(pipeline, machine.now)
    pipeline.bus.flush()

    # the crash fired, recovered, and was reverted within its own step
    assert crash.applied and crash.reverted
    assert inj.all_reverted()
    assert crash.recovery is not None
    assert crash.recovery.points > 0

    # every supervised component healed after its fault cleared
    sup = pipeline.supervisor
    impaired = {name: rec.health for name, rec in sup.components.items()
                if rec.health is not Health.OK}
    assert impaired == {}, sup.timeline()

    # the ledger reconciles exactly across the crash: zero silent loss
    report = pipeline.delivery_report()
    assert report.balanced, report.render()
    assert report.unaccounted == 0
    assert report.pending == 0 and report.in_flight == 0
    assert set(report.lost_by_cause) <= {
        "chaos-drop", "partition-overflow", "store-error",
        "crash-unsynced", "crash-redo",
    }
    assert "crash-redo" in report.lost_by_cause
    # crash loss (if any) is a number under its named cause, matching
    # exactly what the fault reported moving
    assert report.lost_by_cause.get("crash-unsynced", 0) \
        == crash.points_accounted

    # the recovered store still answers queries through the front end
    metric = sorted(pipeline.tsdb.points_by_metric())[0]
    comp = pipeline.tsdb.components(metric)[0]
    res = pipeline.frontend.query(metric, comp, 0.0, machine.now)
    assert len(res.times) > 0


@pytest.mark.parametrize("shards", [1, 2])
def test_crash_before_first_snapshot_recovers_the_declared_store(
        tmp_path, shards):
    """With no manifest on disk, recovery still rebuilds the store the
    site declares — chunk size, pyramid levels and all — not a default
    one the planner cannot answer from."""
    from repro.obs.chaos import crash_and_recover
    from repro.sites import site_capabilities
    from repro.storage.rollup import DEFAULT_LEVELS

    p = build_site(SiteConfig(store_dir=str(tmp_path), chunk_size=32,
                              shards=shards))
    for _ in range(60):
        p.step()
    p.tsdb.flush()                        # fsynced, but never snapshotted
    _, recovery = crash_and_recover(p)
    assert recovery.manifest_chunks == 0 and recovery.scanned_chunks > 0
    assert p.tsdb.chunk_size == 32
    assert p.tsdb.pyramid_levels == DEFAULT_LEVELS
    assert site_capabilities(p) == p.site_config.capabilities()

    metric = "node.cpu_util"
    comp = p.tsdb.components(metric)[0]
    answered = p.frontend.stats().pyramid_answers
    got = p.frontend.downsample(metric, comp, 0.0, p.machine.now, 60.0,
                                "mean")
    assert len(got)
    assert p.frontend.stats().pyramid_answers == answered + 1
    p.tsdb.close()


@pytest.mark.parametrize("shards", [None, 2])
def test_reopening_a_directory_restores_it(tmp_path, shards):
    """A site restarted on its own ``store_dir`` finds its history: the
    one assembly path is also the one way back."""
    from repro.core.metric import SeriesBatch

    config = SiteConfig(store_dir=str(tmp_path), chunk_size=16,
                        shards=shards)
    comps = ["a", "b", "c"]
    vals = np.random.default_rng(5).normal(size=(51, 3))

    def write(store, rows):
        for i in rows:
            store.append(SeriesBatch.sweep("m", i * 10.0, comps, vals[i]))

    def check(store, n):
        for j, c in enumerate(comps):
            got = store.query("m", c)
            assert np.array_equal(got.values.view(np.uint64),
                                  vals[:n, j].copy().view(np.uint64))

    store = build_site(config).tsdb
    write(store, range(40))
    store.snapshot()
    write(store, range(40, 50))         # 150 points across the snapshot
    store.close()

    store = build_site(config).tsdb
    assert store.recovery.manifest_chunks > 0
    check(store, 50)
    write(store, [50])
    store.snapshot()
    store.close()

    store = build_site(config).tsdb
    check(store, 51)
    store.close()
