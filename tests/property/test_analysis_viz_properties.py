"""Property-based tests: analysis and viz invariants."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.analysis.correlate import cluster_events, order_accuracy
from repro.analysis.stats import mad, robust_zscores
from repro.core.events import Event, EventKind, Severity
from repro.core.metric import SeriesBatch
from repro.response.sec import SecEngine, ThresholdRule
from repro.viz.render import from_csv, to_csv
from repro.viz.series import condense, resample

finite = st.floats(allow_nan=False, allow_infinity=False,
                   min_value=-1e12, max_value=1e12)


class TestStatsProperties:
    # quantized values: exactly representable before and after the shift,
    # so the invariance is about the algorithm, not float rounding
    quantized = st.integers(-10**9, 10**9).map(lambda n: n * 1e-3)

    @given(st.lists(quantized, min_size=1, max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_robust_z_shift_invariant(self, values):
        x = np.asarray(values)
        z1 = robust_zscores(x)
        z2 = robust_zscores(x + 1024.0)
        assert np.allclose(z1, z2, rtol=1e-6, atol=1e-6)

    # power-of-two scales: float multiplication is exact, so the
    # invariance is about the algorithm, not rounding of x * scale
    # (arbitrary scales perturb near-cancelling spreads, e.g. two
    # values at 1e12 differing by ~1 ulp-of-spread)
    pow2 = st.integers(-8, 8).map(lambda k: 2.0 ** k)

    @given(st.lists(finite, min_size=2, max_size=200), pow2)
    @settings(max_examples=200, deadline=None)
    def test_robust_z_scale_invariant(self, values, scale):
        x = np.asarray(values)
        y = x * scale
        # what the comment above claims: x * scale is exact, and no
        # nonzero magnitude on either side is subnormal
        assume(np.array_equal(y / scale, x))
        nonzero = np.abs(np.concatenate([x[x != 0], y[y != 0]]))
        assume(bool(np.all(nonzero >= np.finfo(float).tiny)))
        z1 = robust_zscores(x)
        z2 = robust_zscores(y)
        assert np.allclose(z1, z2, atol=1e-6)

    @given(st.lists(finite, min_size=1, max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_mad_nonnegative(self, values):
        assert mad(np.asarray(values)) >= 0.0


event_times = st.lists(st.integers(0, 10**6), min_size=1, max_size=80)


def make_events(times_ms):
    return [
        Event(t / 1000.0, "n0", EventKind.CONSOLE, Severity.INFO, "x")
        for t in sorted(times_ms)
    ]


class TestClusteringProperties:
    @given(event_times, st.floats(min_value=0.001, max_value=100.0))
    @settings(max_examples=200, deadline=None)
    def test_partition_property(self, times_ms, gap):
        events = make_events(times_ms)
        incidents = cluster_events(events, gap_s=gap)
        # every event in exactly one incident
        total = sum(i.size for i in incidents)
        assert total == len(events)
        # incidents time-ordered and separated by more than gap
        for a, b in zip(incidents, incidents[1:]):
            assert b.t_start - a.t_end > gap

    @given(event_times)
    @settings(max_examples=100, deadline=None)
    def test_zero_drift_order_accuracy_is_one(self, times_ms):
        events = make_events(times_ms)
        assert order_accuracy(events, events) == 1.0


class TestResampleCondenseProperties:
    @given(
        st.lists(st.tuples(st.integers(0, 999), finite),
                 min_size=1, max_size=100),
        st.integers(1, 50),
    )
    @settings(max_examples=100, deadline=None)
    def test_resample_sum_conserves_total(self, pts, step):
        b = SeriesBatch.for_component(
            "m", "c", [t for t, _ in pts], [v for _, v in pts]
        )
        r = resample(b, 0.0, 1000.0, float(step), agg="sum")
        total = np.nansum(r.values)
        assert np.isclose(total, sum(v for _, v in pts),
                          rtol=1e-9, atol=1e-6)

    @given(
        st.dictionaries(
            st.sampled_from(["a", "b", "c", "d"]),
            st.lists(st.tuples(st.integers(0, 999), finite),
                     min_size=1, max_size=30),
            min_size=1,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_condense_sum_matches_manual_recomputation(self, data):
        per = {
            k: SeriesBatch.for_component("m", k, [t for t, _ in pts],
                                         [v for _, v in pts])
            for k, pts in data.items()
        }
        c = condense(per, 0.0, 1000.0, 100.0, agg="sum")
        # oracle: per bucket, sum over components of the mean of that
        # component's samples falling in the bucket (absent -> skipped)
        for bi in range(10):
            lo, hi = bi * 100.0, (bi + 1) * 100.0
            expected = 0.0
            any_present = False
            for pts in data.values():
                in_bucket = [v for t, v in pts if lo <= t < hi]
                if in_bucket:
                    any_present = True
                    expected += float(np.mean(in_bucket))
            if any_present:
                assert np.isclose(c.values[bi], expected,
                                  rtol=1e-9, atol=1e-6)
            else:
                assert np.isnan(c.values[bi])


class TestCsvProperties:
    @given(
        st.lists(
            st.tuples(st.integers(0, 10**6), finite),
            min_size=1, max_size=50,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_round_trip(self, pts):
        b = SeriesBatch.for_component(
            "metric.x", "comp-1",
            [t / 1000.0 for t, _ in pts], [v for _, v in pts],
        )
        back = from_csv(to_csv({"s": b}))
        out = back["metric.x@comp-1"]
        assert np.allclose(out.times, b.times)
        assert np.allclose(out.values, b.values)


class TestSecProperties:
    @given(
        n_events=st.integers(0, 60),
        count=st.integers(1, 10),
        window_ds=st.integers(1, 100),
    )
    @settings(max_examples=200, deadline=None)
    def test_threshold_rule_fire_count(self, n_events, count, window_ds):
        """Events arrive 1 s apart; a (count, window) rule fires exactly
        floor-wise per re-armed group when the window covers them."""
        window = float(window_ds)
        eng = SecEngine(
            [ThresholdRule("r", r"x", count, window, "alert")]
        )
        events = [
            Event(float(i), "n0", EventKind.CONSOLE, Severity.INFO, "x")
            for i in range(n_events)
        ]
        fired = eng.feed(events)
        if window >= count - 1:
            # every `count` consecutive events fire once, then re-arm
            assert len(fired) == n_events // count
        else:
            # window too small to ever hold `count` events 1 s apart
            assert fired == []
