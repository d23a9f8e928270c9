"""Unit tests for simulation time and clock drift."""

import pytest

import numpy as np

from repro.core.clock import ClockFleet, DriftingClock, DriftModel, SimClock


class TestSimClock:
    def test_advance_accumulates(self):
        c = SimClock()
        c.advance(5.0)
        c.advance(2.5)
        assert c.now == 7.5

    def test_non_positive_advance_rejected(self):
        c = SimClock()
        with pytest.raises(ValueError):
            c.advance(0.0)
        with pytest.raises(ValueError):
            c.advance(-1.0)

    def test_custom_start(self):
        assert SimClock(100.0).now == 100.0


class TestDriftingClock:
    def test_zero_drift_is_identity(self):
        c = DriftingClock()
        assert c.local_time(1234.5) == 1234.5

    def test_rate_accumulates_linearly(self):
        c = DriftingClock(rate_ppm=100.0)  # gains 100 us per second
        assert c.error_at(10_000.0) == pytest.approx(1.0)

    def test_offset_applies_immediately(self):
        c = DriftingClock(offset=0.25)
        assert c.error_at(0.0) == pytest.approx(0.25)

    def test_sync_collapses_offset_not_rate(self):
        c = DriftingClock(rate_ppm=50.0, offset=1.0)
        c.sync(1000.0)
        assert c.error_at(1000.0) == pytest.approx(0.0)
        # rate keeps accumulating from the sync epoch
        assert c.error_at(1000.0 + 20_000.0) == pytest.approx(1.0)


    def test_a_clock_built_alone_owns_its_state(self):
        a, b = DriftingClock(rate_ppm=7.0, offset=0.5), DriftingClock()
        a.offset, a.rate_ppm = 2.0, -3.0
        assert (a.offset, a.rate_ppm) == (2.0, -3.0)
        assert (b.offset, b.rate_ppm) == (0.0, 0.0)
        assert type(a.offset) is float and type(a.error_at(10.0)) is float


class TestClockFleet:
    def test_a_fleets_clock_is_a_view_both_ways(self):
        fleet = ClockFleet([10.0, -20.0, 30.0], [0.1, 0.2, 0.3])
        clocks = fleet.clocks()
        assert [c.rate_ppm for c in clocks] == [10.0, -20.0, 30.0]
        clocks[1].offset = 5.0              # through the view ...
        clocks[2].rate_ppm = 0.0
        assert fleet.offset.tolist() == [0.1, 5.0, 0.3]
        assert fleet.rate_ppm.tolist() == [10.0, -20.0, 0.0]
        fleet.offset[0] = -1.0              # ... and through the column
        assert clocks[0].offset == -1.0
        assert clocks[0].error_at(0.0) == -1.0

    def test_sync_through_a_view_moves_the_columns(self):
        fleet = ClockFleet([50.0, 50.0], [1.0, 1.0])
        fleet.clocks()[0].sync(1000.0)
        assert fleet.offset.tolist() == [0.0, 1.0]
        assert fleet.epoch.tolist() == [1000.0, 0.0]
        errs = fleet.errors_at(1000.0 + 20_000.0)
        assert errs[0] == pytest.approx(1.0) and errs[1] == pytest.approx(2.05)

    def test_errors_at_is_every_clocks_error_bit_for_bit(self):
        fleet = DriftModel(seed=5).make_fleet(64)
        clocks = fleet.clocks()
        clocks[3].sync(1234.5)
        clocks[9].offset = 5.0
        for now in (0.0, 60.0, 86_400.0 * 30 + 0.001):
            want = np.array([c.error_at(now) for c in clocks])
            assert fleet.errors_at(now).tobytes() == want.tobytes()

    def test_an_empty_fleet(self):
        fleet = DriftModel().make_fleet(0)
        assert len(fleet) == 0 and fleet.clocks() == []
        assert fleet.errors_at(60.0).shape == (0,)


class TestDriftModel:
    def test_deterministic_with_seed(self):
        a = DriftModel(seed=42).make_clock()
        b = DriftModel(seed=42).make_clock()
        assert a.rate_ppm == b.rate_ppm
        assert a.offset == b.offset

    def test_population_spread(self):
        clocks = DriftModel(rate_sigma_ppm=20, seed=1).make_clocks(200)
        rates = [c.rate_ppm for c in clocks]
        assert min(rates) < -5 and max(rates) > 5  # genuine spread

    def test_offsets_bounded(self):
        model = DriftModel(initial_offset_s=0.05, seed=3)
        for c in model.make_clocks(100):
            assert abs(c.offset) <= 0.05

    def test_a_fleet_draws_what_make_clock_draws(self):
        one = DriftModel(seed=11)
        alone = [one.make_clock() for _ in range(20)]
        fleet = DriftModel(seed=11).make_fleet(20)
        assert fleet.rate_ppm.tolist() == [c.rate_ppm for c in alone]
        assert fleet.offset.tolist() == [c.offset for c in alone]
