"""Unit tests for the span tracer."""

import time

from repro.obs.trace import Tracer


class TestSpans:
    def test_span_times_the_region(self):
        tracer = Tracer()
        with tracer.span("work"):
            time.sleep(0.002)
        (span,) = tracer.spans()
        assert span.name == "work"
        assert span.duration_s >= 0.002

    def test_nesting_records_parent_and_depth(self):
        tracer = Tracer()
        with tracer.span("tick"):
            with tracer.span("stage"):
                with tracer.span("collect", collector="power"):
                    pass
        by_name = {s.name: s for s in tracer.spans()}
        assert by_name["tick"].parent_name is None
        assert by_name["tick"].depth == 0
        assert by_name["stage"].parent_name == "tick"
        assert by_name["stage"].depth == 1
        assert by_name["collect"].parent_name == "stage"
        assert by_name["collect"].depth == 2
        assert by_name["collect"].attrs == {"collector": "power"}

    def test_children_finish_before_parent(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        names = [s.name for s in tracer.spans()]
        assert names == ["inner", "outer"]

    def test_sibling_spans_share_parent(self):
        tracer = Tracer()
        with tracer.span("tick"):
            with tracer.span("a"):
                pass
            with tracer.span("b"):
                pass
        by_name = {s.name: s for s in tracer.spans()}
        assert by_name["a"].parent_name == "tick"
        assert by_name["b"].parent_name == "tick"

    def test_span_closes_even_when_body_raises(self):
        tracer = Tracer()
        try:
            with tracer.span("tick"):
                with tracer.span("boom"):
                    raise RuntimeError("stage failed")
        except RuntimeError:
            pass
        assert [s.name for s in tracer.spans()] == ["boom", "tick"]
        # the stack unwound fully: a new root span nests at depth 0
        with tracer.span("next") as s:
            assert s.depth == 0


class TestRingBuffer:
    def test_ring_is_bounded(self):
        tracer = Tracer(maxlen=10)
        for i in range(25):
            with tracer.span(f"s{i}"):
                pass
        spans = tracer.spans()
        assert len(spans) == 10
        assert spans[0].name == "s15"          # oldest survivors only
        assert spans[-1].name == "s24"

    def test_aggregate_outlives_the_ring(self):
        tracer = Tracer(maxlen=4)
        for _ in range(100):
            with tracer.span("tick"):
                pass
        assert len(tracer.spans()) == 4
        assert tracer.aggregate()["tick"]["count"] == 100

    def test_slowest_ranks_by_duration(self):
        tracer = Tracer()
        for delay in (0.0, 0.003, 0.001):
            with tracer.span("s"):
                time.sleep(delay)
        top = tracer.slowest(2)
        assert len(top) == 2
        assert top[0].duration_s >= top[1].duration_s

    def test_clear_resets_everything(self):
        tracer = Tracer()
        with tracer.span("s"):
            pass
        tracer.clear()
        assert tracer.spans() == []
        assert tracer.aggregate() == {}


class TestAggregates:
    def test_aggregate_totals(self):
        tracer = Tracer()
        for _ in range(3):
            with tracer.span("stage"):
                pass
        agg = tracer.aggregate()["stage"]
        assert agg["count"] == 3
        assert agg["total_s"] >= 0.0
        assert agg["max_s"] <= agg["total_s"] + 1e-12
        assert agg["mean_ms"] >= 0.0

    def test_snapshot_counts_deltas(self):
        tracer = Tracer()
        with tracer.span("tick"):
            pass
        c0, t0 = tracer.snapshot_counts()["tick"]
        with tracer.span("tick"):
            pass
        c1, t1 = tracer.snapshot_counts()["tick"]
        assert c1 - c0 == 1
        assert t1 >= t0
