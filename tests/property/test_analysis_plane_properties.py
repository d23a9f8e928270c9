"""Property-based tests: columnar detector kernels == scalar references.

The streaming analysis plane consumes whole sweeps through numpy
kernels over struct-of-arrays state; the original per-sample
implementations are retained (``Scalar*`` classes, ``*_slow``
functions) precisely so hypothesis can hold the two equivalent over
adversarial inputs — NaN/±inf values, duplicate components,
out-of-order times, single-sample batches — the same discipline PR 3
applied to the storage codec.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.anomaly import (
    CusumDetector,
    EwmaDetector,
    ThresholdDetector,
    _sweep_outliers_slow,
    sweep_outliers,
)
from repro.analysis.stats import (
    _ewma_slow,
    _rolling_mean_slow,
    ewma,
    rolling_mean,
)
from repro.analysis.streaming import (
    ScalarStreamingRateWatch,
    ScalarStreamingStats,
    StreamingRateWatch,
    StreamingStats,
)
from repro.core.metric import SeriesBatch

# small component pool => plenty of duplicate components within a batch
comp_pool = [f"n{i}" for i in range(12)]


def _float_eq(a: float, b: float) -> bool:
    return a == b or (np.isnan(a) and np.isnan(b))


def same_detections(xs, ys) -> bool:
    """Detection-list equality with NaN-aware float fields.

    Dataclass ``==`` uses raw float equality, so two *identical*
    detections carrying a NaN time compare unequal; this is the
    equality the equivalence properties actually mean."""
    if len(xs) != len(ys):
        return False
    return all(
        (x.metric, x.component, x.kind, x.detail)
        == (y.metric, y.component, y.kind, y.detail)
        and _float_eq(x.time, y.time)
        and _float_eq(x.score, y.score)
        for x, y in zip(xs, ys)
    )

finite_vals = st.floats(allow_nan=False, allow_infinity=False,
                        min_value=-1e6, max_value=1e6)
# adversarial values: finite bulk laced with NaN and both infinities
adversarial_vals = st.one_of(
    finite_vals,
    st.just(float("nan")),
    st.just(float("inf")),
    st.just(float("-inf")),
)
# times may be out of order, repeated, or NaN
adversarial_times = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False,
              min_value=0.0, max_value=1e6),
    st.just(float("nan")),
)


@st.composite
def batches(draw, metric="m", min_size=1, max_size=24,
            values=adversarial_vals, times=adversarial_times,
            unique_comps=False):
    n = draw(st.integers(min_size, max_size))
    if unique_comps:
        comps = draw(st.lists(st.sampled_from(comp_pool), min_size=n,
                              max_size=n, unique=True))
    else:
        comps = draw(st.lists(st.sampled_from(comp_pool),
                              min_size=n, max_size=n))
    t = draw(st.lists(times, min_size=n, max_size=n))
    v = draw(st.lists(values, min_size=n, max_size=n))
    return SeriesBatch(metric, np.array(comps, dtype=object),
                       np.array(t), np.array(v))


def _m2_tol(values: list[float]) -> float:
    """Absolute tolerance for comparing m2 accumulated two ways.

    Welford-sequential vs grouped two-pass agree to a few ulps of the
    *magnitude flowing through the sum*, not of the final m2 (which
    cancellation can make arbitrarily small)."""
    finite = [abs(x) for x in values if np.isfinite(x)]
    scale = max(finite, default=1.0) or 1.0
    # floor: near the subnormal range the scaled tolerance underflows
    # below one ulp, so a last-bit difference would spuriously fail
    return max(1e-9 * max(1.0, len(finite)) * scale * scale, 1e-300)


class TestStreamingStatsEquivalence:
    @given(bs=st.lists(batches(), min_size=1, max_size=5))
    @settings(max_examples=150, deadline=None)
    def test_moments_match_scalar(self, bs):
        fast, slow = StreamingStats(), ScalarStreamingStats()
        seen_values: dict[tuple[str, str], list[float]] = {}
        for b in bs:
            fast.observe(b)
            slow.observe(b)
            for c, v in zip(b.components.tolist(), b.values.tolist()):
                seen_values.setdefault((b.metric, str(c)), []).append(v)
        assert fast.batches_seen == slow.batches_seen
        assert fast.series_count() == slow.series_count()
        for key, ref in slow._moments.items():
            got = fast.get(key.metric, key.component)
            assert got is not None
            vals = seen_values[(key.metric, key.component)]
            assert got.n == ref.n
            assert np.isclose(got.mean, ref.mean, rtol=1e-9,
                              atol=1e-9 * max(1.0, abs(ref.mean)))
            assert np.isclose(got.m2, ref.m2, rtol=1e-7,
                              atol=_m2_tol(vals))
            assert got.minimum == ref.minimum
            assert got.maximum == ref.maximum

    @given(b=batches(values=st.sampled_from(
        [float("nan"), float("inf"), float("-inf")])))
    @settings(max_examples=50, deadline=None)
    def test_nonfinite_only_batches_register_but_never_poison(self, b):
        fast = StreamingStats()
        fast.observe(b)
        # every component exists; none accumulated a sample
        for c in set(b.components.tolist()):
            m = fast.get(b.metric, str(c))
            assert m is not None and m.n == 0 and m.m2 == 0.0
        # a later finite batch lands on clean state
        comps = np.array(sorted(set(b.components.tolist())), dtype=object)
        fast.observe(SeriesBatch(b.metric, comps,
                                 np.zeros(len(comps)),
                                 np.full(len(comps), 5.0)))
        for c in comps.tolist():
            m = fast.get(b.metric, str(c))
            assert m.n == 1 and m.mean == 5.0 and m.m2 == 0.0


class TestSweepOutliersEquivalence:
    @given(b=batches(min_size=1, max_size=40),
           z=st.floats(min_value=0.5, max_value=8.0))
    @settings(max_examples=200, deadline=None)
    def test_exact_detection_equality(self, b, z):
        assert same_detections(sweep_outliers(b, z_threshold=z),
                               _sweep_outliers_slow(b, z_threshold=z))

    def test_titan_scale_sweep_flags_exactly_the_planted(self):
        """One 27,648-row synchronized sweep (the paper's largest
        machine) with five readings planted 400 W above a 250 +/- 15 W
        bulk: both kernels name those five and nothing else."""
        n = 27_648
        rng = np.random.default_rng(7)
        power = rng.normal(250.0, 15.0, n)
        planted = rng.choice(n, 5, replace=False)
        power[planted] += 400.0
        comps = np.array([f"c{i:05d}" for i in range(n)], dtype=object)
        sweep = SeriesBatch.sweep("node.power_w", 0.0, comps, power)
        fast = sweep_outliers(sweep, 6.0)
        assert {d.component for d in fast} == set(comps[planted])
        assert len(fast) == 5
        assert same_detections(fast, _sweep_outliers_slow(sweep, 6.0))
        stats, ref = StreamingStats(), ScalarStreamingStats()
        stats.observe(sweep)
        ref.observe(sweep)
        assert stats.series_count() == ref.series_count() == n
        got, want = (s.get("node.power_w", "c00000") for s in (stats, ref))
        assert got.n == want.n == 1 and got.mean == want.mean == power[0]


class TestRateWatchEquivalence:
    @given(bs=st.lists(batches(metric="ctr", max_size=16),
                       min_size=1, max_size=5),
           max_rate=st.floats(min_value=1e-3, max_value=1e3))
    @settings(max_examples=150, deadline=None)
    def test_exact_detection_equality(self, bs, max_rate):
        fast = StreamingRateWatch("ctr", max_rate)
        slow = ScalarStreamingRateWatch("ctr", max_rate)
        for b in bs:
            fast.observe(b)
            slow.observe(b)
        assert same_detections(fast.drain(), slow.drain())
        assert fast.detections_total == slow.detections_total


class TestThresholdDetectorEquivalence:
    @given(bs=st.lists(batches(max_size=16), min_size=1, max_size=4),
           threshold=st.floats(min_value=-100.0, max_value=100.0),
           above=st.booleans(),
           clear_fraction=st.floats(min_value=0.5, max_value=1.2))
    @settings(max_examples=150, deadline=None)
    def test_exact_detection_equality(self, bs, threshold, above,
                                      clear_fraction):
        fast = ThresholdDetector("m", threshold, above=above,
                                 clear_fraction=clear_fraction)
        slow = ThresholdDetector("m", threshold, above=above,
                                 clear_fraction=clear_fraction)
        fast._check_slow = None     # the reference is not a product path
        for b in bs:
            assert same_detections(fast.check(b), slow._check_slow(b))
            assert fast._firing == slow._firing


# series detectors look at one component's history: unique times not
# required, but a single repeated component name is the realistic shape
@st.composite
def series_batches(draw, values, min_size=1, max_size=64):
    n = draw(st.integers(min_size, max_size))
    v = draw(st.lists(values, min_size=n, max_size=n))
    return SeriesBatch("m", np.array(["c"] * n, dtype=object),
                       np.arange(float(n)), np.array(v))


class TestEwmaDetectorEquivalence:
    @given(b=series_batches(values=adversarial_vals),
           alpha=st.floats(min_value=0.05, max_value=1.0),
           warmup=st.integers(0, 12))
    @settings(max_examples=150, deadline=None)
    def test_exact_detection_equality(self, b, alpha, warmup):
        det = EwmaDetector(alpha=alpha, warmup=warmup)
        assert same_detections(det.detect(b), det._detect_slow(b))


class TestCusumEquivalence:
    # coarse value grid: the reflected-walk cumsum and the sequential
    # clamped recurrence agree to ~ulps, so values are kept on a lattice
    # where threshold crossings cannot flip on the last bit
    coarse = st.one_of(
        st.integers(-512, 512).map(lambda i: i / 16.0),
        st.just(float("nan")),
    )

    @given(b=series_batches(values=coarse, max_size=96),
           k=st.floats(min_value=0.1, max_value=1.0),
           h=st.floats(min_value=1.0, max_value=8.0),
           warmup=st.integers(2, 12))
    @settings(max_examples=200, deadline=None)
    def test_detections_match_scalar(self, b, k, h, warmup):
        det = CusumDetector(k=k, h=h, warmup=warmup)
        fast, slow = det.detect(b), det._detect_slow(b)
        assert len(fast) == len(slow)
        for f, s in zip(fast, slow):
            assert f.time == s.time
            assert f.kind == s.kind
            assert f.detail == s.detail
            assert np.isclose(f.score, s.score, rtol=1e-9, atol=1e-9)


class TestStatsKernels:
    @given(v=st.lists(finite_vals, min_size=0, max_size=300),
           alpha=st.floats(min_value=0.01, max_value=1.0))
    @settings(max_examples=150, deadline=None)
    def test_ewma_matches_scalar(self, v, alpha):
        x = np.array(v)
        assert np.allclose(ewma(x, alpha), _ewma_slow(x, alpha),
                           rtol=1e-9, atol=1e-9, equal_nan=True)

    @given(v=st.lists(st.one_of(finite_vals, st.just(float("nan"))),
                      min_size=1, max_size=200),
           alpha=st.floats(min_value=0.01, max_value=1.0))
    @settings(max_examples=100, deadline=None)
    def test_ewma_nan_propagation_matches_scalar(self, v, alpha):
        x = np.array(v)
        a, b = ewma(x, alpha), _ewma_slow(x, alpha)
        assert np.array_equal(np.isnan(a), np.isnan(b))
        m = ~np.isnan(a)
        assert np.allclose(a[m], b[m], rtol=1e-9, atol=1e-9)

    @given(v=st.lists(finite_vals, min_size=0, max_size=300),
           window=st.integers(1, 50))
    @settings(max_examples=150, deadline=None)
    def test_rolling_mean_matches_scalar(self, v, window):
        x = np.array(v)
        assert np.allclose(rolling_mean(x, window),
                           _rolling_mean_slow(x, window),
                           rtol=1e-12, atol=1e-12, equal_nan=True)
