"""Unit tests for action execution, alerts, and the default policy."""

import numpy as np
import pytest

from repro.analysis.anomaly import (
    CusumDetector,
    EwmaDetector,
    ThresholdDetector,
    sweep_outliers,
)
from repro.analysis.streaming import (
    StreamingOutlierDetector,
    StreamingRateWatch,
    StreamingStats,
)
from repro.cluster import Machine, build_dragonfly
from repro.cluster.workload import APP_LIBRARY, Job, JobState
from repro.core.events import EventKind, Severity
from repro.core.metric import SeriesBatch
from repro.response.actions import ActionEngine, AlertManager
from repro.response.policy import default_sec_engine
from repro.response.sec import ActionRequest
from repro.sites import SiteConfig, build_site
from repro.stages import AnalysisHooksStage
from repro.sources.counters import NodeCounterCollector
from repro.sources.sedc import SedcCollector


@pytest.fixture()
def machine():
    return Machine(build_dragonfly(groups=2, chassis_per_group=3,
                                   blades_per_chassis=4), seed=1)


def req(action, comp, rule="test_rule", t=0.0, fields=None):
    return ActionRequest(t, rule, action, comp, Severity.WARNING,
                         "msg", fields or {})


class TestAlertManager:
    def test_dedup_within_renotify(self):
        am = AlertManager(renotify_s=600.0)
        assert am.raise_alert(0.0, Severity.ERROR, "n0", "r", "m")
        assert am.raise_alert(100.0, Severity.ERROR, "n0", "r", "m") is None
        assert am.suppressed == 1

    def test_renotify_after_interval(self):
        am = AlertManager(renotify_s=600.0)
        am.raise_alert(0.0, Severity.ERROR, "n0", "r", "m")
        assert am.raise_alert(700.0, Severity.ERROR, "n0", "r", "m")

    def test_different_components_independent(self):
        am = AlertManager()
        assert am.raise_alert(0.0, Severity.ERROR, "n0", "r", "m")
        assert am.raise_alert(0.0, Severity.ERROR, "n1", "r", "m")

    def test_active_severity_floor(self):
        am = AlertManager()
        am.raise_alert(0.0, Severity.INFO, "n0", "r1", "m")
        am.raise_alert(0.0, Severity.CRITICAL, "n1", "r2", "m")
        assert len(am.active(Severity.ERROR)) == 1


class TestActionEngine:
    def test_drain_and_return(self, machine):
        eng = ActionEngine(machine)
        node = machine.topo.nodes[0]
        eng.execute([req("drain_node", node)])
        assert node in machine.scheduler.unavailable
        eng.execute([req("return_node", node)])
        assert node not in machine.scheduler.unavailable

    def test_kill_jobs(self, machine):
        j = Job(APP_LIBRARY["qmc"], 4, 0.0, seed=1)
        machine.scheduler.submit(j, 0.0)
        machine.step(5.0)
        eng = ActionEngine(machine)
        eng.execute([req("kill_jobs", j.nodes[0])])
        assert j.state is JobState.FAILED

    def test_downclock(self, machine):
        eng = ActionEngine(machine)
        node = machine.topo.nodes[3]
        eng.execute([req("downclock", node,
                         fields={"pstate_frac": 0.5})])
        assert machine.nodes.pstate_frac[3] == 0.5

    def test_unknown_action_audited_not_crash(self, machine):
        eng = ActionEngine(machine)
        (rec,) = eng.execute([req("launch_rockets", "n0")])
        assert "unknown action" in rec.outcome

    def test_non_node_component_safe(self, machine):
        eng = ActionEngine(machine)
        (rec,) = eng.execute([req("drain_node", "scheduler")])
        assert "not a node" in rec.outcome

    def test_actions_become_events(self, machine):
        eng = ActionEngine(machine)
        eng.execute([req("drain_node", machine.topo.nodes[0])])
        evs = machine.drain_events()
        assert any(e.kind is EventKind.ACTION for e in evs)

    def test_custom_handler_registration(self, machine):
        eng = ActionEngine(machine)
        calls = []
        eng.register("redirect_power", lambda r: calls.append(r) or "ok")
        eng.execute([req("redirect_power", "system")])
        assert len(calls) == 1

    def test_audit_grows(self, machine):
        eng = ActionEngine(machine)
        eng.execute([req("alert", "n0"), req("alert", "n1")])
        assert len(eng.audit) == 2
        assert eng.executed == 2

    def test_audit_is_a_bounded_ring_and_the_count_is_not(self, machine):
        eng = ActionEngine(machine)
        eng.execute([req("alert", f"n{i}", t=float(i))
                     for i in range(5000)])
        assert eng.executed == 5000
        assert len(eng.audit) == 4096
        # the newest records are the ones kept
        assert [r.time for r in eng.audit] == [
            float(i) for i in range(5000 - 4096, 5000)]


class TestDefaultPolicy:
    def test_rules_compile_and_cover_faults(self):
        eng = default_sec_engine()
        names = (
            [r.name for r in eng.singles]
            + [r.name for r in eng.pairs]
            + [r.name for r in eng.thresholds]
        )
        for expected in ("soft_lockup", "gpu_falloff_drain",
                         "link_recovery_watch", "hwerr_storm",
                         "queue_blocked", "bench_degraded"):
            assert expected in names

    def test_hook_batches_alert_under_stat_rules(self, machine):
        """An analysis hook's batches of every detail format raise
        warning alerts under ``stat.<metric>.<kind>``, with the messages
        the per-hit path printed; a repeat inside ``renotify_s`` is
        executed and suppressed, and builds no alert or audit record."""
        names = [f"n{i}" for i in range(8)]
        t = np.arange(60) * 60.0
        low_high = np.r_[np.full(30, 10.0), np.full(30, 20.0)]
        watch = StreamingRateWatch("node.energy_j", max_rate_per_s=1.0)
        watch.observe(SeriesBatch.sweep("node.energy_j", 0.0, names[:2],
                                        [0.0, 0.0]))
        watch.observe(SeriesBatch.sweep("node.energy_j", 10.0, names[:2],
                                        [5.0, 125.0]))
        found = [
            sweep_outliers(SeriesBatch.sweep(
                "node.power_w", 0.0, names, [250.0] * 7 + [330.0])),
            *watch.drain(),
            ThresholdDetector("node.temp_c", 80.0).check(SeriesBatch.sweep(
                "node.temp_c", 0.0, names[:2], [50.0, 85.5])),
            EwmaDetector().detect(
                SeriesBatch.for_component("bench.fom", "dgemm", t, low_high)),
            CusumDetector().detect(SeriesBatch.for_component(
                "bench.stream", "triad", t, low_high[::-1])),
        ]
        stage = AnalysisHooksStage()
        stage.add(60.0, lambda pipeline, now: found)
        eng = ActionEngine(machine)
        audited = eng.execute(stage.run(None, 0.0))
        assert [(a.time, a.severity, a.component, a.rule, a.message)
                for a in eng.alerts.alerts] == [
            (0.0, Severity.WARNING, "n7", "stat.node.power_w.outlier",
             "node.power_w outlier on n7: value=330 z=6.4"),
            (10.0, Severity.WARNING, "n1", "stat.node.energy_j.threshold",
             "node.energy_j threshold on n1: rate 12.5/s exceeds 1/s"),
            (0.0, Severity.WARNING, "n1", "stat.node.temp_c.threshold",
             "node.temp_c threshold on n1: value=85.5 threshold=80"),
            (1800.0, Severity.WARNING, "dgemm", "stat.bench.fom.shift",
             "bench.fom shift on dgemm: resid=10 sigma=1e-12"),
            (1860.0, Severity.WARNING, "triad",
             "stat.bench.stream.changepoint",
             "bench.stream changepoint on triad: direction=down"),
        ]
        # the changepoint batch's two later hits repeat its first
        hits = sum(map(len, found))
        assert (eng.executed, eng.alerts.suppressed) == (hits, hits - 5)
        assert [(r.rule, r.outcome) for r in audited] == [
            (a.rule, "alert raised") for a in eng.alerts.alerts]
        # the hook's next slot, inside renotify_s: counted, not raised
        assert eng.execute(stage.run(None, 60.0)) == []
        assert len(eng.alerts.alerts) == len(eng.audit) == 5
        assert (eng.executed, eng.alerts.suppressed) == (2 * hits,
                                                         2 * hits - 5)


class TestStreamingAlertsAtFleetScale:
    def test_sweep_stack_alert_totals_are_pinned(self):
        """The bench's sweep stack at its 96-node smoke shape: the
        streaming stage's batches, deduplicated as columns, raise and
        suppress exactly what one request per hit did (the totals are
        those of the per-hit path), and only raised alerts are audited."""
        cfg = SiteConfig(groups=1, chassis_per_group=3, blades_per_chassis=8,
                         nodes_per_router=4, metric_interval_s=60.0,
                         tick_s=60.0, with_health_gate=False, seed=0)
        p = build_site(cfg, overrides={"collectors": [
            NodeCounterCollector(60.0), SedcCollector(60.0)]})
        p.add_streaming(StreamingStats())
        p.add_streaming(StreamingOutlierDetector(
            ("node.power_w", "node.temp_c", "node.cpu_util")))
        p.add_streaming(StreamingRateWatch("node.energy_j",
                                           max_rate_per_s=1e9))
        for _ in range(180):
            p.step()
        alerts = p.alerts.alerts
        assert len(alerts) == 192
        assert p.actions.executed == 2952
        assert p.alerts.suppressed == 2760
        assert len(p.actions.audit) == 192
        assert {a.rule for a in alerts} == {
            "stream.node.power_w.outlier", "stream.node.temp_c.outlier",
            "stream.node.cpu_util.outlier"}
