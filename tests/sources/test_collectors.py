"""Unit tests for the collector framework and basic collectors."""

import numpy as np
import pytest

from repro import SiteConfig, build_site
from repro.cluster import Machine, build_dragonfly
from repro.cluster.workload import APP_LIBRARY, Job
from repro.core.registry import default_registry
from repro.pipeline import MonitoringPipeline
from repro.sources import (
    CollectionScheduler,
    Collector,
    CollectorOutput,
    EnvironmentCollector,
    FsProbeCollector,
    InjectionCollector,
    NetLinkCollector,
    NodeCounterCollector,
    NodeHealthSuite,
    OstCounterCollector,
    PowerCollector,
    QueueStatsCollector,
    SedcCollector,
)
from repro.transport import MessageBus


@pytest.fixture()
def machine():
    topo = build_dragonfly(groups=2, chassis_per_group=3,
                           blades_per_chassis=4)
    return Machine(topo, gpu_nodes="all", seed=3)


def run_with_job(machine, seconds=120.0, app="climate", n=16):
    j = Job(APP_LIBRARY[app], n, 0.0, seed=1)
    machine.scheduler.submit(j, 0.0)
    machine.run(seconds, dt=5.0)
    return j


class TestNodeCounterCollector:
    def test_sweep_covers_all_nodes(self, machine):
        out = NodeCounterCollector().collect(machine, 60.0)
        metrics = {b.metric for b in out.batches}
        assert "node.cpu_util" in metrics and "node.clock_offset_s" in metrics
        for b in out.batches:
            assert len(b) == len(machine.topo.nodes)
            assert (b.times == 60.0).all()

    def test_clock_offsets_nonzero(self, machine):
        machine.run(3600.0, dt=60.0)
        out = NodeCounterCollector().collect(machine, machine.now)
        offsets = next(
            b for b in out.batches if b.metric == "node.clock_offset_s"
        )
        assert np.abs(offsets.values).max() > 0


    def test_clock_offsets_are_the_per_clock_errors_bit_for_bit(
            self, machine):
        machine.run(3600.0, dt=60.0)
        node = machine.nodes.names[5]
        machine.node_clocks[node].offset = 5.0      # a fault-injected step
        machine.node_clocks[machine.nodes.names[7]].sync(machine.now)
        out = NodeCounterCollector().collect(machine, machine.now)
        offsets = next(
            b for b in out.batches if b.metric == "node.clock_offset_s"
        )
        want = np.array([machine.node_clocks[n].error_at(machine.now)
                         for n in machine.nodes.names])
        assert offsets.values.tobytes() == want.tobytes()
        assert offsets.values[5] > 4.5
        assert offsets.components is machine.nodes.name_column


class TestSedcCollector:
    def test_gpu_metrics_present_when_gpus(self, machine):
        out = SedcCollector().collect(machine, 0.0)
        metrics = {b.metric for b in out.batches}
        assert "gpu.health" in metrics

    def test_gpu_metrics_absent_without_gpus(self):
        m = Machine(build_dragonfly(groups=2, chassis_per_group=3,
                                    blades_per_chassis=4), seed=1)
        out = SedcCollector().collect(m, 0.0)
        metrics = {b.metric for b in out.batches}
        assert "gpu.health" not in metrics
        assert "node.power_w" in metrics


class TestPowerCollector:
    def test_system_power_equals_cabinet_sum(self, machine):
        run_with_job(machine)
        out = PowerCollector(machine).collect(machine, machine.now)
        by_metric = {b.metric: b for b in out.batches}
        cab = by_metric["cabinet.power_w"]
        sys = by_metric["system.power_w"]
        assert sys.values[0] == pytest.approx(cab.values.sum())


class TestFsCollectors:
    def test_probe_latencies_positive(self, machine):
        out = FsProbeCollector().collect(machine, 0.0)
        for b in out.batches:
            assert (b.values > 0).all()

    def test_ost_counters_and_aggregate_consistent(self, machine):
        run_with_job(machine, app="climate")
        out = OstCounterCollector().collect(machine, machine.now)
        by_metric = {b.metric: b for b in out.batches}
        assert by_metric["fs.write_bps"].values[0] == pytest.approx(
            by_metric["ost.write_bps"].values.sum()
        )


class TestQueueStatsCollector:
    def test_depth_and_backlog(self, machine):
        big = Job(APP_LIBRARY["qmc"], 10_000, 0.0, seed=1,
                  walltime_req=3600.0)
        machine.scheduler.submit(big, 0.0)
        machine.step(5.0)
        out = QueueStatsCollector().collect(machine, machine.now)
        by_metric = {b.metric: b for b in out.batches}
        assert by_metric["queue.depth"].values[0] == 1.0
        assert by_metric["queue.backlog_nodeh"].values[0] == pytest.approx(
            10_000.0
        )

    def test_scheduler_events_surfaced(self, machine):
        run_with_job(machine, seconds=30.0)
        out = QueueStatsCollector().collect(machine, machine.now)
        actions = [e.fields["action"] for e in out.events]
        assert "submit" in actions and "start" in actions


class TestEnvironmentCollector:
    def test_quiet_room_no_events(self, machine):
        out = EnvironmentCollector().collect(machine, 0.0)
        assert out.events == []
        assert len(out.batches) == 4

    def test_ashrae_excursion_emits_once(self, machine):
        machine.room.corrosion_rate = 900.0
        coll = EnvironmentCollector()
        first = coll.collect(machine, 0.0)
        second = coll.collect(machine, 300.0)
        assert len(first.events) == 1
        assert second.events == []          # still over: no re-alert
        machine.room.corrosion_rate = 100.0
        coll.collect(machine, 600.0)
        machine.room.corrosion_rate = 900.0
        again = coll.collect(machine, 900.0)
        assert len(again.events) == 1       # re-crossing re-alerts


class TestNetLinkCollector:
    def test_link_sweep_shapes(self, machine):
        run_with_job(machine, app="cfd_fft", n=32)
        out = NetLinkCollector().collect(machine, machine.now)
        n_links = len(machine.topo.links)
        for b in out.batches:
            assert len(b) == n_links

    def test_counters_cumulative_across_sweeps(self, machine):
        # run past the app's setup phase into its all-to-all phase
        run_with_job(machine, app="cfd_fft", n=32, seconds=400.0)
        c = NetLinkCollector()
        first = c.collect(machine, machine.now)
        machine.run(60.0, dt=5.0)
        second = c.collect(machine, machine.now)
        t1 = next(b for b in first.batches
                  if b.metric == "link.traffic_flits").values
        t2 = next(b for b in second.batches
                  if b.metric == "link.traffic_flits").values
        assert (t2 >= t1).all()
        assert t2.sum() > t1.sum()


class TestComponentColumnsArePublishedOnce:
    """Fleet sweeps hand every batch the fleet's one name column, so the
    identity memos downstream of the bus hit from the second tick on."""

    def test_fleet_collectors_publish_the_owners_column(self, machine):
        columns = {"node": machine.nodes.name_column,
                   "gpu": machine.gpus.name_column,
                   "link": machine.network.link_names()}
        assert columns["node"].tolist() == machine.nodes.names
        assert columns["gpu"].tolist() == machine.gpus.names
        assert machine.network.link_names() is columns["link"]
        for col in columns.values():
            assert col.dtype == object and not col.flags.writeable
        collectors = [NodeCounterCollector(), InjectionCollector(),
                      NetLinkCollector(), SedcCollector(), NodeHealthSuite()]
        for c in collectors:
            for b in c.collect(machine, 0.0).batches:
                fleet = "node" if b.metric.startswith("health.") \
                    else b.metric.split(".")[0]
                assert b.components is columns[fleet], b.metric

    def test_facility_collectors_republish_one_column(self, machine):
        """Room, filesystem and power sweeps hand every sweep the same
        column object, not a fresh list (per-job I/O rows come and go
        with the jobs, so that sweep's column is built each time)."""
        run_with_job(machine)
        for c in [EnvironmentCollector(), FsProbeCollector(),
                  OstCounterCollector(), PowerCollector(machine)]:
            first, second = (
                {b.metric: b.components
                 for b in c.collect(machine, t).batches
                 if b.metric != "job.io_bps"}
                for t in (0.0, 60.0))
            assert first, type(c).__name__
            for metric, col in first.items():
                assert second[metric] is col, metric
                assert col.dtype == object and not col.flags.writeable

    def test_the_store_sees_one_object_and_the_row_memo_hits(self):
        p = build_site(SiteConfig(groups=1, chassis_per_group=3,
                                  blades_per_chassis=4, tick_s=60.0,
                                  metric_interval_s=60.0, seed=2))
        seen = []
        append = p.tsdb.append

        def spy(batch):
            if batch.metric == "node.power_w":
                seen.append(batch.components)
            return append(batch)

        p.tsdb.append = spy
        for _ in range(3):
            p.step()
        assert len(seen) == 3
        assert seen[0] is seen[1] is seen[2] is p.machine.nodes.name_column
        table = p.tsdb._blocks["node.power_w"].table
        index, table.index = table.index, None  # the memo never consults it
        assert table.rows(seen[-1])[1]
        table.index = index     # the store's series index: reads need it
        assert len(p.tsdb.query("node.power_w", seen[0][0])) == 3


class TestScheduler:
    def test_interval_respected(self, machine):
        bus = MessageBus()
        sched = CollectionScheduler(bus, registry=default_registry())
        c = sched.add(NodeCounterCollector(interval_s=60.0))
        for t in range(0, 180, 10):
            machine_now = float(t)
            sched.poll(machine, machine_now)
        # due at 0, 60, 120 -> 3 sweeps
        assert c.sweeps == 3

    def test_missed_slots_skipped_not_replayed(self, machine):
        bus = MessageBus()
        sched = CollectionScheduler(bus)
        c = sched.add(NodeCounterCollector(interval_s=60.0))
        sched.poll(machine, 0.0)
        sched.poll(machine, 600.0)   # long gap: one sweep, not ten
        assert c.sweeps == 2

    def test_catchup_resumes_on_the_original_grid(self, machine):
        """After a stall, the next due time lands on the interval grid
        strictly in the future — missed slots are never replayed and
        the schedule does not phase-shift to the stall's end."""
        bus = MessageBus()
        sched = CollectionScheduler(bus)
        c = sched.add(NodeCounterCollector(interval_s=60.0))
        sched.poll(machine, 0.0)               # sweep 1 (t=0)
        sched.poll(machine, 250.0)             # stall: slots 60/120/180/240
        assert c.sweeps == 2                   # ... collapse to one sweep
        # grid-aligned resume: not due again until t=300, not t=310
        sched.poll(machine, 299.0)
        assert c.sweeps == 2
        sched.poll(machine, 300.0)
        assert c.sweeps == 3

    def test_catchup_when_poll_lands_exactly_on_a_slot(self, machine):
        bus = MessageBus()
        sched = CollectionScheduler(bus)
        c = sched.add(NodeCounterCollector(interval_s=60.0))
        sched.poll(machine, 0.0)
        sched.poll(machine, 180.0)             # exactly on the 3rd slot
        assert c.sweeps == 2
        sched.poll(machine, 240.0)             # very next slot still fires
        assert c.sweeps == 3

    def test_sweep_latency_histograms_populated(self, machine):
        sched = CollectionScheduler(MessageBus())
        c = sched.add(NodeCounterCollector(interval_s=60.0))
        for t in (0.0, 60.0, 120.0):
            sched.poll(machine, t)
        hist = sched.latency[c.name]
        assert len(hist) == 3
        s = hist.summary()
        assert 0.0 <= s["p50_s"] <= s["p95_s"] <= s["max_s"]

    def test_tracer_spans_per_collector(self, machine):
        from repro.obs.trace import Tracer

        tracer = Tracer()
        sched = CollectionScheduler(MessageBus(), tracer=tracer)
        sched.add(NodeCounterCollector(interval_s=60.0))
        sched.poll(machine, 0.0)
        spans = tracer.spans("collect")
        assert len(spans) == 1
        assert spans[0].attrs == {"collector": "node_counters"}

    def test_publishes_to_bus_topics(self, machine):
        bus = MessageBus()
        sub = bus.subscribe("metrics.node.cpu_util")
        sched = CollectionScheduler(bus)
        sched.add(NodeCounterCollector(interval_s=60.0))
        sched.poll(machine, 0.0)
        assert len(sub.drain()) == 1

    def test_unregistered_metric_rejected(self, machine):
        class Rogue(Collector):
            metrics = ("not.registered",)

            def __init__(self):
                super().__init__("rogue", 60.0)

            def collect(self, machine, now):
                return CollectorOutput()

        sched = CollectionScheduler(MessageBus(),
                                    registry=default_registry())
        with pytest.raises(KeyError, match="documented meaning"):
            sched.add(Rogue())

    def test_overhead_report(self, machine):
        # per-collector cost is the health report's collectors section
        p = MonitoringPipeline(
            machine, collectors=[NodeCounterCollector(interval_s=60.0)])
        p.step(10.0)
        rep = p.introspect().report().sections["collectors"]
        assert rep["node_counters"]["sweeps"] == 1
        assert rep["node_counters"]["samples"] > 0
        assert rep["node_counters"]["wall_per_sweep_ms"] > 0.0

    def test_bad_interval_rejected(self):
        with pytest.raises(ValueError):
            NodeCounterCollector(interval_s=0.0)

    def test_injection_collector_unit_range(self, machine):
        run_with_job(machine, app="cfd_fft", n=32)
        out = InjectionCollector().collect(machine, machine.now)
        vals = out.batches[0].values
        assert (vals >= 0).all() and (vals <= 1.0 + 1e-9).all()


class Boom(Collector):
    """Collector that raises on every sweep."""

    metrics = ()

    def __init__(self, interval_s=60.0):
        super().__init__("boom", interval_s)

    def collect(self, machine, now):
        raise RuntimeError("kaboom")


class TestSchedulerFaultIsolation:
    def test_raising_collector_does_not_abort_the_sweep(self, machine):
        """The regression this PR fixes: one bad collector used to kill
        the whole poll, starving every collector after it in the list."""
        sched = CollectionScheduler(MessageBus())
        boom = sched.add(Boom())
        healthy = sched.add(NodeCounterCollector(interval_s=60.0))
        for t in (0.0, 60.0, 120.0):
            sched.poll(machine, t)       # must not raise
        assert healthy.sweeps == 3       # ran despite boom preceding it
        assert boom.sweeps == 0
        assert boom.errors == 3
        assert isinstance(boom.last_error, RuntimeError)

    def test_raising_collector_keeps_its_schedule(self, machine):
        """Failures advance the schedule: no catch-up burst on heal."""
        sched = CollectionScheduler(MessageBus())
        boom = sched.add(Boom())
        sched.poll(machine, 0.0)
        sched.poll(machine, 10.0)        # not due: no extra attempt
        assert boom.errors == 1
        sched.poll(machine, 60.0)
        assert boom.errors == 2

    def test_supervisor_quarantines_repeat_offender(self, machine):
        from repro.core.lifecycle import BackoffSchedule, Health, Supervisor

        # backoff longer than the interval, so the next due slot lands
        # inside the quarantine window (not on a half-open probe)
        sup = Supervisor(trip_after=3,
                         backoff=BackoffSchedule(base_s=600.0))
        sched = CollectionScheduler(MessageBus(), supervisor=sup)
        boom = sched.add(Boom())
        for t in (0.0, 60.0, 120.0):     # three strikes
            sched.poll(machine, t)
        assert sup.health("collector:boom") is Health.FAILED
        skips_before = sched.quarantine_skips
        sched.poll(machine, 180.0)       # quarantined: skipped, no error
        assert boom.errors == 3
        assert sched.quarantine_skips == skips_before + 1

    def test_half_open_probe_recovers_healed_collector(self, machine):
        from repro.core.lifecycle import BackoffSchedule, Health, Supervisor

        sup = Supervisor(trip_after=1,
                         backoff=BackoffSchedule(base_s=60.0))
        sched = CollectionScheduler(MessageBus(), supervisor=sup)
        boom = sched.add(Boom())
        sched.poll(machine, 0.0)         # trips immediately
        assert sup.health("collector:boom") is Health.FAILED
        boom.collect = lambda machine, now: CollectorOutput()  # heal it
        sched.poll(machine, 60.0)        # backoff elapsed: probe runs
        assert sup.health("collector:boom") is Health.OK
        assert boom.sweeps == 1

    def test_over_budget_sweep_is_a_supervised_failure(self, machine):
        import time

        from repro.core.lifecycle import Supervisor

        class Slow(Collector):
            metrics = ()

            def __init__(self):
                super().__init__("slow", 60.0)

            def collect(self, machine, now):
                time.sleep(0.005)
                return CollectorOutput()

        sup = Supervisor()
        sched = CollectionScheduler(MessageBus(), supervisor=sup,
                                    budget_s=0.001)
        slow = sched.add(Slow())
        sched.poll(machine, 0.0)
        assert slow.sweeps == 1          # the results still count...
        assert slow.errors == 1          # ...but the overrun is recorded
        rec = sup.report()["collector:slow"]
        assert rec["state"] == "degraded"
        assert "over budget" in rec["reason"]
