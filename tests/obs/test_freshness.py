"""Unit tests for the freshness plane: trace contexts, histograms,
SLO burn-rate tracking, exemplar linking, and the exact waterfall."""

import pytest

from repro.core.metric import SeriesBatch, merge_batches
from repro.core.tracectx import (
    HOP_COLLECT,
    HOP_INGEST,
    HOP_PUBLISH,
    MAX_HOPS,
    TraceContext,
)
from repro.obs.freshness import (
    FreshnessSLO,
    FreshnessTracker,
    default_slos,
)
from repro.response.policy import default_rules
from repro.response.sec import SecEngine


def traced_batch(metric="node.power_w", hops=None, tick=0):
    """One-sample batch carrying a hand-built hop vector."""
    b = SeriesBatch(metric, ["n0"], [0.0], [1.0])
    if hops is not None:
        ctx = TraceContext.start(hops[0][1], tick=tick, hop=hops[0][0])
        for hop, t in hops[1:]:
            ctx.stamp(hop, t)
        b.trace = ctx
    return b


class TestTraceContext:
    def test_start_then_stamp_builds_the_path(self):
        ctx = TraceContext.start(100.0, tick=7)
        ctx.stamp(HOP_PUBLISH, 100.0)
        ctx.stamp(HOP_INGEST, 110.0)
        assert ctx.path() == "collect->publish->ingest"
        assert ctx.origin_tick == 7
        assert ctx.end_to_end() == 10.0

    def test_hop_latencies_telescope_exactly(self):
        ctx = TraceContext.start(600.0)
        ctx.stamp("enqueue", 600.0)
        ctx.stamp("pump", 620.0)
        ctx.stamp(HOP_INGEST, 630.0)
        deltas = ctx.hop_latencies()
        assert sum(d for _, d in deltas) == ctx.end_to_end()
        assert deltas == [("enqueue", 0.0), ("pump", 20.0),
                          ("ingest", 10.0)]
        assert ctx.worst_hop() == ("pump", 20.0)

    def test_restamping_trailing_hop_widens_not_appends(self):
        ctx = TraceContext.start(0.0)
        ctx.stamp(HOP_PUBLISH, 10.0)
        ctx.stamp(HOP_PUBLISH, 30.0)   # duplicate delivery
        ctx.stamp(HOP_PUBLISH, 5.0)
        assert len(ctx.hops) == 2
        assert ctx.hops[-1][1] == 5.0   # t_min widened down
        assert ctx.hops[-1][2] == 30.0  # t_max widened up

    def test_vector_is_bounded_and_counts_truncation(self):
        ctx = TraceContext.start(0.0)
        for i in range(MAX_HOPS + 3):
            ctx.stamp(f"hop{i}", float(i))
        assert len(ctx.hops) == MAX_HOPS
        assert ctx.truncated == 4   # hops MAX_HOPS..MAX_HOPS+2 plus one

    def test_merged_brackets_every_parent(self):
        a = TraceContext.start(0.0, tick=1)
        a.stamp("leaf", 10.0)
        b = TraceContext.start(20.0, tick=2)
        b.stamp("leaf", 30.0)
        m = TraceContext.merged([a, b, None])
        assert m.origin_tick == 1
        assert m.hops == [["collect", 0.0, 20.0, 2],
                          ["leaf", 10.0, 30.0, 2]]
        assert TraceContext.merged([None, None]) is None

    def test_wire_round_trip(self):
        ctx = TraceContext.start(50.0, tick=3)
        ctx.stamp("pump", 60.0)
        assert TraceContext.from_obj(ctx.to_obj()) == ctx
        assert TraceContext.from_obj(None) is None

    def test_monotone_detection(self):
        good = TraceContext.start(0.0)
        good.stamp("a", 5.0)
        assert good.is_monotone()
        bad = TraceContext(hops=[["collect", 10.0, 10.0, 1],
                                 ["a", 5.0, 5.0, 1]])
        assert not bad.is_monotone()


class TestSloBurnRate:
    def test_burn_is_over_fraction_divided_by_budget(self):
        slo = FreshnessSLO("s", max_latency_s=10.0, quantile=0.9,
                           window=10, min_count=4)
        tracker = FreshnessTracker([slo])
        track = tracker._tracks[0]
        for lat in (1.0, 1.0, 1.0, 20.0):   # 1/4 over, budget 0.1
            track.observe(lat)
        assert track.burn_rate() == pytest.approx(2.5)

    def test_breach_is_edge_triggered_and_rearms(self):
        slo = FreshnessSLO("s", max_latency_s=10.0, quantile=0.9,
                           window=8, min_count=2)
        tracker = FreshnessTracker([slo], tier="flat")
        track = tracker._tracks[0]
        track.observe(50.0)
        track.observe(50.0)
        (breach,) = tracker.evaluate(now=100.0)
        assert breach.burn_rate > 1.0
        assert tracker.evaluate(now=110.0) == []      # still breaching
        for _ in range(8):
            track.observe(1.0)                        # recover
        assert tracker.evaluate(now=120.0) == []
        track.observe(50.0)
        for _ in range(3):
            track.observe(50.0)
        (again,) = tracker.evaluate(now=130.0)        # re-armed
        assert again.slo.name == "s"
        assert tracker.breach_count() == 2

    def test_cold_window_never_alarms(self):
        slo = FreshnessSLO("s", max_latency_s=1.0, min_count=16)
        tracker = FreshnessTracker([slo])
        tracker._tracks[0].observe(99.0)
        assert tracker.evaluate(now=0.0) == []

    def test_default_slo_scales_with_tick(self):
        (slo,) = default_slos(tick_s=30.0)
        assert slo.max_latency_s == 60.0


class TestFreshnessTracker:
    def flat_hops(self, t0, ingest_delta):
        return [(HOP_COLLECT, t0), (HOP_PUBLISH, t0),
                (HOP_INGEST, t0 + ingest_delta)]

    def test_waterfall_telescopes_exactly(self):
        tracker = FreshnessTracker(tier="flat")
        for i in range(50):
            tracker.record(traced_batch(
                hops=self.flat_hops(10.0 * i, 10.0), tick=i))
        assert tracker.batches == 50
        assert tracker.waterfall_exact()
        assert tracker.hop_total() == tracker.e2e_total() == 500.0
        rows = {r["hop"]: r for r in tracker.waterfall()}
        assert rows["publish"]["total_s"] == 0.0
        assert rows["ingest"]["total_s"] == 500.0
        assert rows["ingest"]["share"] == 1.0

    def test_untraced_and_unfinished_batches_are_skipped(self):
        tracker = FreshnessTracker()
        tracker.record(traced_batch())                     # no context
        tracker.record(traced_batch(hops=[(HOP_COLLECT, 0.0)]))
        assert tracker.batches == 0

    def test_breach_fields_carry_the_offending_hop(self):
        slo = FreshnessSLO("s", max_latency_s=5.0, window=8, min_count=1)
        tracker = FreshnessTracker([slo], tier="flat")
        tracker.record(traced_batch(hops=self.flat_hops(0.0, 40.0)),
                       span="tick")
        (breach,) = tracker.evaluate(now=40.0)
        fields = breach.fields()
        assert fields["slo"] == "s"
        assert fields["worst_hop"] == "ingest"
        assert fields["worst_hop_s"] == 40.0
        assert fields["exemplar_latency_s"] == 40.0
        assert breach.exemplar.span == "tick"
        assert "worst hop ingest" in breach.describe()

    def test_breach_exemplar_is_the_excursions_worst(self):
        slo = FreshnessSLO("s", max_latency_s=5.0, window=8, min_count=1)
        tracker = FreshnessTracker([slo], tier="flat")
        track = tracker._tracks[0]
        tracker.record(traced_batch(hops=self.flat_hops(0.0, 1.0)))
        assert track.worst is None            # under threshold: no exemplar
        for lat in (30.0, 50.0, 40.0):
            tracker.record(traced_batch(hops=self.flat_hops(0.0, lat)))
        assert track.worst.latency_s == 50.0
        (breach,) = tracker.evaluate(now=50.0)
        assert breach.exemplar.latency_s == 50.0
        assert track.worst is None            # the next excursion's own


class TestBreachEscalation:
    def test_sec_rule_matches_and_forwards_exemplar_fields(self):
        """The breach message triggers ``freshness_slo_breach`` and the
        rule's ``forward_fields`` copies the structured exemplar payload
        onto the emitted action request."""
        slo = FreshnessSLO("ingest-p99", max_latency_s=5.0,
                           window=8, min_count=1)
        tracker = FreshnessTracker([slo], tier="flat")
        tracker.record(traced_batch(
            hops=[(HOP_COLLECT, 0.0), (HOP_PUBLISH, 0.0),
                  (HOP_INGEST, 40.0)]))
        (breach,) = tracker.evaluate(now=40.0)

        from repro.core.events import Event, EventKind, Severity
        sec = SecEngine(default_rules())
        out = sec.feed([Event(
            time=breach.time, component="flat",
            kind=EventKind.ALERT, severity=Severity.ALERT,
            message=breach.describe(), fields=breach.fields(),
        )])
        reqs = [r for r in out if r.rule == "freshness_slo_breach"]
        assert len(reqs) == 1
        assert reqs[0].fields["worst_hop"] == "ingest"
        assert "worst hop ingest" in reqs[0].message


class TestMergedBatchFreshness:
    def test_merge_aggregates_contexts_and_stays_exact(self):
        parts = []
        for i in range(3):
            b = SeriesBatch("m.x", [f"n{i}"], [float(i)], [1.0])
            ctx = TraceContext.start(10.0 * i, tick=i)
            ctx.stamp("leaf", 10.0 * i)
            parts.append(b)
            b.trace = ctx
        merged = merge_batches(parts)
        merged.trace.stamp("merge", 120.0)
        merged.trace.stamp(HOP_INGEST, 120.0)
        tracker = FreshnessTracker(tier="tree")
        tracker.record(merged)
        assert tracker.waterfall_exact()
        # oldest-path journey: collected at t=0, queryable at t=120
        assert tracker.e2e_total() == 120.0
        assert merged.trace.hops[0][3] == 3   # three contexts merged


def _summary(p50, p99, w_max, count, mean):
    return {"p50_s": p50, "p99_s": p99, "max_s": w_max,
            "count": float(count), "mean_s": mean}


def _row(hop, count, total, mean, p99, w_max, share):
    return {"hop": hop, "count": count, "total_s": total, "mean_s": mean,
            "p99_s": p99, "max_s": w_max, "share": share}


class TestPublishedReadings:
    """The exact values ``VITALS`` publishes from the tracker — the
    ``freshness`` and ``freshness_hops`` sections behind
    ``selfmon.freshness.*`` — and the ``slo`` waterfall rows, for
    hand-built journeys on each tier (the tree's includes a merged
    batch)."""

    JOURNEYS = {
        "flat": [
            [(HOP_COLLECT, 0.0), (HOP_PUBLISH, 0.0), (HOP_INGEST, 10.0)],
            [(HOP_COLLECT, 10.0), (HOP_PUBLISH, 10.0), (HOP_INGEST, 20.0)],
            [(HOP_COLLECT, 20.0), (HOP_PUBLISH, 30.0), (HOP_INGEST, 60.0)],
            [(HOP_COLLECT, 60.0), (HOP_PUBLISH, 60.0), (HOP_INGEST, 60.0)],
        ],
        "partitioned": [
            [(HOP_COLLECT, 0.0), ("enqueue", 0.0), ("pump", 20.0),
             (HOP_INGEST, 20.0)],
            [(HOP_COLLECT, 0.0), ("enqueue", 0.0), ("pump", 10.0),
             (HOP_INGEST, 30.0)],
            [(HOP_COLLECT, 100.0), ("enqueue", 100.0), ("pump", 150.0),
             (HOP_INGEST, 150.0)],
        ],
    }

    EXPECTED = {
        "flat": (
            {**_summary(10.0, 39.099999999999994, 40.0, 4, 15.0),
             "batches": 4, "exact": True},
            {"publish": _summary(0.0, 9.699999999999998, 10.0, 4, 2.5),
             "ingest": _summary(10.0, 29.4, 30.0, 4, 12.5)},
            [_row("publish", 4, 10.0, 2.5, 9.699999999999998, 10.0,
                  0.16666666666666666),
             _row("ingest", 4, 50.0, 12.5, 29.4, 30.0,
                  0.8333333333333334)],
        ),
        "partitioned": (
            {**_summary(30.0, 49.6, 50.0, 3, 33.333333333333336),
             "batches": 3, "exact": True},
            {"enqueue": _summary(0.0, 0.0, 0.0, 3, 0.0),
             "pump": _summary(20.0, 49.4, 50.0, 3, 26.666666666666668),
             "ingest": _summary(0.0, 19.6, 20.0, 3, 6.666666666666667)},
            [_row("enqueue", 3, 0.0, 0.0, 0.0, 0.0, 0.0),
             _row("pump", 3, 80.0, 26.666666666666668, 49.4, 50.0, 0.8),
             _row("ingest", 3, 20.0, 6.666666666666667, 19.6, 20.0, 0.2)],
        ),
        "tree": (
            {**_summary(25.0, 29.9, 30.0, 2, 25.0),
             "batches": 2, "exact": True},
            {"leaf": _summary(0.0, 0.0, 0.0, 2, 0.0),
             "merge": _summary(20.0, 29.8, 30.0, 2, 20.0),
             "root": _summary(0.0, 0.0, 0.0, 2, 0.0),
             "ingest": _summary(5.0, 9.9, 10.0, 2, 5.0)},
            [_row("leaf", 2, 0.0, 0.0, 0.0, 0.0, 0.0),
             _row("merge", 2, 40.0, 20.0, 29.8, 30.0, 0.8),
             _row("root", 2, 0.0, 0.0, 0.0, 0.0, 0.0),
             _row("ingest", 2, 10.0, 5.0, 9.9, 10.0, 0.2)],
        ),
    }

    def batches(self, tier):
        if tier != "tree":
            return [traced_batch(hops=j, tick=i)
                    for i, j in enumerate(self.JOURNEYS[tier])]
        parts = []
        for i in range(3):      # collected and buffered at 0, 10, 20
            b = SeriesBatch("node.power_w", [f"n{i}"], [10.0 * i], [1.0])
            b.trace = TraceContext.start(10.0 * i, tick=i)
            b.trace.stamp("leaf", 10.0 * i)
            parts.append(b)
        merged = merge_batches(parts)
        for hop in ("merge", "root", HOP_INGEST):
            merged.trace.stamp(hop, 30.0)
        return [merged, traced_batch(
            hops=[(HOP_COLLECT, 40.0), ("leaf", 40.0), ("merge", 50.0),
                  ("root", 50.0), (HOP_INGEST, 60.0)], tick=4)]

    @pytest.mark.parametrize("tier", ["flat", "partitioned", "tree"])
    def test_readings_are_exact(self, tier):
        from types import SimpleNamespace

        from repro.obs.selfmetrics import VITALS

        tracker = FreshnessTracker(default_slos(), tier=tier)
        for b in self.batches(tier):
            tracker.record(b)
        read = {name: fn for name, fn, _ in VITALS}
        p = SimpleNamespace(freshness=tracker)
        e2e, hops, rows = self.EXPECTED[tier]
        assert read["freshness"](p) == e2e
        assert read["freshness_hops"](p) == hops
        assert tracker.hop_summaries() == hops
        assert tracker.waterfall() == rows


class TestWindowedTreeWaterfall:
    """An aggregator tree with a coalescing window holds every metric
    batch for the window, so the merge hop carries the whole
    ingest-to-queryable latency.  Sites declare no window (their trees
    merge within the tick), so this is pinned on a standalone tree."""

    WINDOW_S = 120.0

    @pytest.fixture(scope="class")
    def run(self):
        """One simulated hour through the tree: the tracker, and the
        breaches evaluated before the end-of-run flush."""
        from repro.transport.aggtree import AggregatorTree

        now = [0.0]
        tree = AggregatorTree(window_s=self.WINDOW_S)
        tree.clock = lambda: now[0]
        tracker = FreshnessTracker(slos=default_slos(10.0), tier=tree.tier)

        def ingest(env):
            env.payload.trace.stamp(HOP_INGEST, now[0])
            tracker.record(env.payload)

        tree.subscribe("metrics.*", callback=ingest)
        for tick in range(360):              # one hour of 10 s ticks
            t = now[0] = 10.0 * tick
            for src, every in (("sedc", 60), ("probes", 60),
                               ("counters", 10)):
                if tick % (every // 10) == 0:
                    b = SeriesBatch(f"node.{src}", ["n0", "n1"], [t, t],
                                    [1.0, 2.0])
                    b.trace = TraceContext.start(t, tick=tick)
                    tree.publish(f"metrics.{src}", b, source=src)
            tree.pump(t)
        breaches = tracker.evaluate(now[0])
        tree.flush()                         # the tail lands early
        return tracker, breaches

    def test_merge_hop_carries_the_latency(self, run):
        tracker, _ = run
        rows = {r["hop"]: r for r in tracker.waterfall()}
        assert list(rows) == ["leaf", "merge", "root", "ingest"]
        merge = rows.pop("merge")
        assert merge["share"] == 1.0
        assert merge["p99_s"] == merge["max_s"] == self.WINDOW_S
        # the flushed tail waited less than a window
        assert 100.0 < merge["mean_s"] < self.WINDOW_S
        assert all(r["total_s"] == 0.0 for r in rows.values())

    def test_waterfall_is_exact(self, run):
        tracker, _ = run
        assert tracker.waterfall_exact()
        assert tracker.e2e_total() > 0.0

    def test_default_ingest_slo_breaches(self, run):
        tracker, breaches = run
        (breach,) = breaches
        assert breach.slo.name == "ingest-p99"
        assert breach.tier == "tree"
        assert breach.burn_rate > 1.0
        assert tracker.breach_count() == 1
