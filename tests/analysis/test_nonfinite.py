"""Non-finite telemetry must never turn into phantom anomalies.

Real collectors emit NaN (sensor not ready), +/-inf (division by a
zero dt upstream), and occasionally whole sweeps of NaN (a cabinet
controller rebooting).  Section III-C's lesson is that the monitoring
system has to survive its own inputs: these tests pin down that the
analysis plane neither emits spurious detections for non-finite
samples nor lets them poison running state.
"""

import numpy as np
import pytest

from repro.analysis.anomaly import (
    CusumDetector,
    EwmaDetector,
    _sweep_outliers_slow,
    iqr_outliers,
    sweep_outliers,
)
from repro.analysis.stats import mad, robust_zscores
from repro.analysis.streaming import (
    StreamingOutlierDetector,
    StreamingRateWatch,
    StreamingStats,
)
from repro.core.metric import SeriesBatch

NAN, INF = float("nan"), float("inf")


def batch(values, metric="m", comp=None, times=None):
    v = np.asarray(values, dtype=float)
    n = len(v)
    comps = np.array([comp or "c"] * n if isinstance(comp or "c", str)
                     else comp, dtype=object)
    t = np.arange(float(n)) if times is None else np.asarray(times, float)
    return SeriesBatch(metric, comps, t, v)


class TestRobustStats:
    def test_mad_ignores_nonfinite(self):
        assert mad([1.0, 2.0, NAN, 3.0, INF, -INF]) == mad([1.0, 2.0, 3.0])

    def test_mad_all_nan_is_nan(self):
        assert np.isnan(mad([NAN, NAN, NAN]))

    def test_robust_zscores_all_nan_is_all_zero(self):
        z = robust_zscores(np.full(8, NAN))
        assert np.array_equal(z, np.zeros(8))

    def test_robust_zscores_finite_positions_unpoisoned(self):
        x = np.array([10.0, 11.0, NAN, 9.0, INF, 10.5, 30.0])
        z = robust_zscores(x)
        finite = np.isfinite(x)
        ref = robust_zscores(x[finite])
        assert np.allclose(z[finite], ref)
        # the genuine outlier still stands out
        assert abs(z[6]) > 3.0

    def test_iqr_never_flags_nan(self):
        v = np.array([1.0, 2.0, NAN, 3.0, 4.0, NAN, 100.0])
        flagged = iqr_outliers(v)
        assert not flagged[2] and not flagged[5]
        assert flagged[6]

    def test_iqr_all_nan_flags_nothing(self):
        assert not iqr_outliers(np.full(10, NAN)).any()

    def test_iqr_inf_does_not_widen_fences(self):
        base = np.array([10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 50.0])
        with_inf = np.concatenate([base, [INF, -INF]])
        # the finite outlier is still caught with infinities present
        assert iqr_outliers(with_inf)[6]


class TestSweepOutliers:
    def test_nonfinite_samples_never_detected(self):
        comps = np.array([f"n{i}" for i in range(12)], dtype=object)
        v = np.array([10.0, 11.0, 9.0, 10.5, 9.5, 10.2,
                      NAN, INF, -INF, 10.1, 9.9, 60.0])
        b = SeriesBatch.sweep("node.power_w", 0.0, comps, v)
        out = sweep_outliers(b, z_threshold=4.0).detections()
        assert [d.component for d in out] == ["n11"]

    def test_all_nan_sweep_is_quiet(self):
        comps = np.array([f"n{i}" for i in range(8)], dtype=object)
        b = SeriesBatch.sweep("node.power_w", 0.0, comps, np.full(8, NAN))
        assert sweep_outliers(b, z_threshold=1.0).detections() == []

    @pytest.mark.parametrize("big", [1e6, 1e300])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_extreme_finite_reading_is_the_outlier(self, big):
        """A finite reading whose score overflows to inf is still a
        reading: only a non-finite *sample* is exempt."""
        comps = np.array([f"c{i}" for i in range(5)], dtype=object)
        b = SeriesBatch("m", comps, np.zeros(5),
                        np.array([big, 1e-300, 2e-300, 3e-300, 0.0]))
        assert robust_zscores(b.values)[0] > 1e300
        det = StreamingOutlierDetector(("m",), min_sweep=4)
        det.observe(b)
        (drained,) = det.drain()
        for found in (sweep_outliers(b).detections(), _sweep_outliers_slow(b),
                      drained.detections()):
            assert [d.component for d in found] == ["c0"]
        # field for field, the formatted detail included (z=inf at 1e300)
        fast = sweep_outliers(b).detections()
        assert fast == _sweep_outliers_slow(b)
        assert fast[0].detail.startswith(f"value={big:.4g} z=")


class TestStreamingStateIsNotPoisoned:
    def test_welford_skips_nonfinite_samples(self):
        s = StreamingStats()
        s.observe(batch([1.0, INF, 2.0, NAN, 3.0, -INF]))
        m = s.get("m", "c")
        assert m.n == 3
        assert m.mean == 2.0
        assert m.minimum == 1.0 and m.maximum == 3.0
        assert np.isfinite(m.m2)

    def test_all_nan_registers_but_accumulates_nothing(self):
        s = StreamingStats()
        s.observe(batch([NAN, NAN, NAN]))
        m = s.get("m", "c")
        assert m is not None and m.n == 0 and m.m2 == 0.0
        # clean state: a later finite sample lands normally
        s.observe(batch([7.0]))
        m = s.get("m", "c")
        assert m.n == 1 and m.mean == 7.0

    def test_ratewatch_nan_emits_nothing_and_recovers(self):
        w = StreamingRateWatch("ctr", max_rate_per_s=0.1)
        w.observe(batch([0.0], metric="ctr", times=[0.0]))
        w.observe(batch([NAN], metric="ctr", times=[60.0]))
        w.observe(batch([INF], metric="ctr", times=[120.0]))
        assert w.drain() == []
        assert w.detections_total == 0
        # a real counter jump after the gap still fires
        w.observe(batch([1e9], metric="ctr", times=[180.0]))
        w.observe(batch([2e9], metric="ctr", times=[240.0]))
        assert any(d.component == "c"
                   for found in w.drain() for d in found.detections())

    def test_outlier_detector_quiet_on_all_nan(self):
        det = StreamingOutlierDetector(("node.power_w",), z_threshold=3.0)
        comps = np.array([f"n{i}" for i in range(16)], dtype=object)
        det.observe(SeriesBatch.sweep("node.power_w", 0.0, comps,
                                      np.full(16, NAN)))
        assert det.drain() == []
        assert det.detections_total == 0


class TestSeriesDetectorsOnNonfinite:
    def test_ewma_all_nan_is_quiet(self):
        det = EwmaDetector(alpha=0.3, warmup=4)
        assert len(det.detect(batch(np.full(32, NAN)))) == 0

    def test_ewma_nan_laced_shift_no_nan_detection(self):
        v = np.r_[np.full(20, 10.0), [NAN], np.full(20, 10.0)]
        det = EwmaDetector(alpha=0.3, warmup=8)
        assert np.isfinite(det.detect(batch(v)).scores).all()

    def test_cusum_all_nan_is_quiet(self):
        det = CusumDetector(k=0.5, h=4.0, warmup=8)
        assert len(det.detect(batch(np.full(64, NAN)))) == 0

    def test_cusum_nan_resets_but_real_shift_still_trips(self):
        rng = np.random.default_rng(3)
        v = np.r_[rng.normal(0.0, 1.0, 40), [NAN],
                  rng.normal(8.0, 1.0, 40)]
        det = CusumDetector(k=0.5, h=4.0, warmup=16)
        out = det.detect(batch(v))
        assert len(out) >= 1
        assert np.isfinite(out.scores).all()
