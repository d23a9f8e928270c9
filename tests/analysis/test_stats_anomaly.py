"""Unit tests for robust statistics and anomaly detectors."""

import numpy as np
import pytest

from repro.analysis.anomaly import (
    CusumDetector,
    EwmaDetector,
    ThresholdDetector,
    iqr_outliers,
    sweep_outliers,
)
from repro.analysis.stats import (
    coefficient_of_variation,
    ewma,
    mad,
    robust_zscores,
    rolling_mean,
)
from repro.core.metric import SeriesBatch


class TestStats:
    def test_mad_of_normal_estimates_sigma(self):
        x = np.random.default_rng(0).normal(10, 2.0, 5000)
        assert mad(x) == pytest.approx(2.0, rel=0.1)

    def test_mad_ignores_nan(self):
        assert np.isfinite(mad(np.array([1.0, 2.0, np.nan, 3.0])))

    def test_mad_empty_nan(self):
        assert np.isnan(mad(np.array([])))

    def test_robust_z_flags_outlier_against_constant_bulk(self):
        # the hung-node-in-idle-sweep case: MAD degenerates to 0 and the
        # mean-absolute-deviation fallback must still flag the outlier
        x = np.ones(100)
        x[0] = 1000.0
        z = robust_zscores(x)
        assert abs(z[0]) > 10
        assert np.abs(z[1:]).max() < 1

    def test_robust_z_constant_input_all_zero(self):
        assert (robust_zscores(np.full(50, 7.0)) == 0).all()

    def test_robust_z_flags_single_outlier(self):
        rng = np.random.default_rng(1)
        x = rng.normal(0, 1, 500)
        x[42] = 25.0
        z = robust_zscores(x)
        assert np.argmax(np.abs(z)) == 42
        assert abs(z[42]) > 10

    def test_constant_series_zero_z(self):
        assert (robust_zscores(np.full(10, 3.0)) == 0).all()

    def test_robust_z_of_a_subnormal_spread_is_scale_free(self):
        # median and MAD of [0, 5e-324] round in the subnormal range
        # unless the sample is lifted first
        assert np.array_equal(robust_zscores([0.0, 5e-324]),
                              robust_zscores([0.0, 1.0]))

    def test_ewma_converges(self):
        x = np.concatenate([np.zeros(5), np.full(200, 10.0)])
        sm = ewma(x, alpha=0.2)
        assert sm[-1] == pytest.approx(10.0, abs=0.01)

    def test_ewma_alpha_validated(self):
        with pytest.raises(ValueError):
            ewma(np.ones(3), alpha=0.0)

    def test_rolling_mean_matches_numpy(self):
        x = np.arange(10, dtype=float)
        rm = rolling_mean(x, 3)
        assert rm[0] == 0.0
        assert rm[1] == 0.5
        assert rm[5] == pytest.approx(np.mean([3, 4, 5]))

    def test_rolling_window_validated(self):
        with pytest.raises(ValueError):
            rolling_mean(np.ones(3), 0)

    def test_cov(self):
        assert coefficient_of_variation(np.array([10.0, 10.0])) == 0.0
        assert coefficient_of_variation(
            np.array([5.0, 15.0])
        ) == pytest.approx(np.std([5, 15], ddof=1) / 10.0)
        assert np.isnan(coefficient_of_variation(np.array([1.0])))


class TestSweepOutliers:
    def sweep(self, values):
        comps = [f"n{i}" for i in range(len(values))]
        return SeriesBatch.sweep("node.power_w", 100.0, comps, values)

    def test_flags_the_hung_node(self):
        rng = np.random.default_rng(2)
        values = rng.normal(95, 2, 100)
        values[13] = 330.0   # hung at busy power while others idle
        dets = sweep_outliers(self.sweep(values)).detections()
        assert dets[0].component == "n13"
        assert dets[0].kind == "outlier"

    def test_clean_sweep_no_detections(self):
        rng = np.random.default_rng(3)
        assert sweep_outliers(self.sweep(rng.normal(95, 2, 100))).detections() == []

    def test_tiny_sweep_skipped(self):
        assert sweep_outliers(self.sweep([1.0, 2.0])).detections() == []

    def test_detections_sorted_by_magnitude(self):
        values = np.full(50, 10.0) + np.random.default_rng(4).normal(0, 0.1, 50)
        values[5] = 20.0
        values[7] = 50.0
        dets = sweep_outliers(self.sweep(values)).detections()
        assert dets[0].component == "n7"


class TestThresholdDetector:
    def sweep(self, t, values):
        comps = [f"n{i}" for i in range(len(values))]
        return SeriesBatch.sweep("node.temp_c", t, comps, values)

    def test_fires_once_per_episode(self):
        det = ThresholdDetector("node.temp_c", 80.0)
        first = det.check(self.sweep(0.0, [85.0, 50.0]))
        again = det.check(self.sweep(60.0, [86.0, 50.0]))
        assert len(first) == 1 and len(again) == 0

    def test_rearm_after_clear(self):
        det = ThresholdDetector("node.temp_c", 80.0, clear_fraction=0.9)
        det.check(self.sweep(0.0, [85.0]))
        det.check(self.sweep(60.0, [60.0]))   # cleared (< 72)
        refire = det.check(self.sweep(120.0, [90.0]))
        assert len(refire) == 1

    def test_below_threshold_mode(self):
        det = ThresholdDetector("node.temp_c", 10.0, above=False)
        out = det.check(self.sweep(0.0, [5.0, 20.0])).detections()
        assert len(out) == 1 and out[0].component == "n0"

    def test_wrong_metric_ignored(self):
        det = ThresholdDetector("other.metric", 1.0)
        assert len(det.check(self.sweep(0.0, [100.0]))) == 0


class TestIqrOutliers:
    def test_flags_extremes(self):
        x = np.concatenate([np.random.default_rng(5).normal(0, 1, 100),
                            [40.0]])
        mask = iqr_outliers(x)
        assert mask[-1]
        assert mask.sum() < 10

    def test_small_input_no_flags(self):
        assert not iqr_outliers(np.array([1.0, 100.0])).any()


NAN, INF = float("nan"), float("inf")


class TestDetectorParameters:
    """A parameter that would give a wrong answer (a negative warmup
    fires late or not at all) or fail deep inside the first call is
    refused when the detector is built."""

    @pytest.mark.parametrize("make, kwargs", [
        (EwmaDetector, {"warmup": -3}),
        (CusumDetector, {"warmup": -3}),
        (EwmaDetector, {"alpha": 0.0}),
        (EwmaDetector, {"alpha": 1.5}),
        (EwmaDetector, {"alpha": NAN}),
        (EwmaDetector, {"band_sigmas": 0.0}),
        (EwmaDetector, {"band_sigmas": -4.0}),
        (EwmaDetector, {"band_sigmas": INF}),
        (EwmaDetector, {"band_sigmas": NAN}),
        (CusumDetector, {"h": 0.0}),
        (CusumDetector, {"h": -5.0}),
        (CusumDetector, {"h": INF}),
        (CusumDetector, {"h": NAN}),
        (CusumDetector, {"k": -0.5}),
        (CusumDetector, {"k": INF}),
        (CusumDetector, {"k": NAN}),
        (ThresholdDetector, {"metric": "m", "threshold": NAN}),
        (ThresholdDetector, {"metric": "m", "threshold": INF}),
        (ThresholdDetector, {"metric": "m", "threshold": -INF}),
        # too short for a sigma (EWMA: a MAD of differences) or a median
        # (CUSUM): built, they would never fire
        (EwmaDetector, {"warmup": 0}),
        (EwmaDetector, {"warmup": 1}),
        (CusumDetector, {"warmup": 0}),
    ])
    def test_refused_at_construction(self, make, kwargs):
        (name,) = kwargs.keys() - {"metric"}
        with pytest.raises(ValueError, match=name):
            make(**kwargs)

    def test_the_closed_ends_of_each_range_are_accepted(self):
        EwmaDetector(alpha=1.0)
        CusumDetector(k=0.0)
        ThresholdDetector("m", -1e308)

    def test_the_shortest_warmups_accepted_fire_on_a_clean_step(self):
        step = series(np.r_[np.full(20, 10.0), np.full(20, 20.0)])
        assert len(EwmaDetector(warmup=2).detect(step).at) == 1
        assert len(CusumDetector(warmup=1).detect(step).at) == 1


def series(values, dt=60.0):
    t = np.arange(len(values)) * dt
    return SeriesBatch.for_component("bench.fom", "dgemm", t, values)


class TestEwmaDetector:
    def test_detects_level_shift(self):
        rng = np.random.default_rng(6)
        v = np.concatenate([rng.normal(100, 1, 30), rng.normal(70, 1, 30)])
        dets = EwmaDetector().detect(series(v)).detections()
        assert dets
        assert 29 * 60 <= dets[0].time <= 33 * 60

    def test_quiet_series_silent(self):
        rng = np.random.default_rng(7)
        assert len(EwmaDetector().detect(series(rng.normal(100, 1, 60)))) == 0

    def test_short_series_skipped(self):
        assert len(EwmaDetector().detect(series(np.ones(5)))) == 0


class TestCusumDetector:
    def test_detects_sustained_drift(self):
        rng = np.random.default_rng(8)
        v = np.concatenate(
            [rng.normal(100, 1, 40), rng.normal(97, 1, 60)]  # subtle shift
        )
        dets = CusumDetector().detect(series(v)).detections()
        assert dets
        assert dets[0].detail == "direction=down"
        assert dets[0].time >= 40 * 60

    def test_single_spike_not_changepoint(self):
        rng = np.random.default_rng(9)
        v = rng.normal(100, 1, 80)
        v[40] = 120.0
        assert len(CusumDetector().detect(series(v))) == 0

    def test_upward_shift_direction(self):
        rng = np.random.default_rng(10)
        v = np.concatenate([rng.normal(10, 0.5, 30), rng.normal(14, 0.5, 30)])
        dets = CusumDetector().detect(series(v)).detections()
        assert dets and dets[0].detail == "direction=up"
