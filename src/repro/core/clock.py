"""Simulation time base and per-node clock drift.

Section III-B: "Associating numerical or log events over components and
time is particularly tricky when a single global timestamp is unavailable
as local clock drift can result in erroneous associations."  The machine
keeps one authoritative :class:`SimClock`; every node additionally owns a
:class:`DriftingClock` that converts true time to the node's *local* view.
Collectors can stamp telemetry with either, letting the correlation
analysis (and the clock-drift ablation bench) quantify exactly how much
association accuracy a global timebase buys.
"""

from __future__ import annotations

import numpy as np

__all__ = ["SimClock", "ClockFleet", "DriftingClock", "DriftModel"]


class SimClock:
    """The authoritative, monotonically advancing simulation clock."""

    __slots__ = ("_now",)

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    @property
    def now(self) -> float:
        return self._now

    def advance(self, dt: float) -> float:
        """Advance by ``dt`` seconds (must be positive) and return new time."""
        if dt <= 0:
            raise ValueError(f"clock must advance forward, got dt={dt}")
        self._now += dt
        return self._now


class ClockFleet:
    """The drifting clocks of a fleet as ``rate_ppm / offset / epoch``
    float64 columns: the whole fleet's error is one expression
    (:meth:`errors_at`), and a :class:`DriftingClock` is a view of one
    entry — what is set through either is seen by both."""

    __slots__ = ("rate_ppm", "offset", "epoch")

    def __init__(self, rate_ppm, offset) -> None:
        self.rate_ppm = np.array(rate_ppm, dtype=np.float64, ndmin=1)
        self.offset = np.array(offset, dtype=np.float64, ndmin=1)
        self.epoch = np.zeros(len(self.rate_ppm))

    def __len__(self) -> int:
        return len(self.rate_ppm)

    def clocks(self) -> list[DriftingClock]:
        """One view per entry, in column order."""
        return [DriftingClock._view(self, i) for i in range(len(self))]

    def errors_at(self, true_time: float) -> np.ndarray:
        """``[c.error_at(true_time) for c in self.clocks()]`` as one
        column, bit for bit: the scalar expression's association order."""
        local = ((true_time + self.offset)
                 + ((true_time - self.epoch) * self.rate_ppm) * 1e-6)
        return local - true_time


class DriftingClock:
    """A local clock that drifts linearly away from the global timebase.

    ``rate_ppm`` is the frequency error in parts per million: a node at
    +50 ppm gains 50 microseconds per second of true time.  ``offset``
    is the accumulated error at epoch.  ``sync()`` models an NTP-style
    resynchronization that collapses the offset (but not the rate).
    The state is entry ``_i`` of a :class:`ClockFleet` — its own
    one-entry fleet when the clock is built alone.
    """

    __slots__ = ("_fleet", "_i")

    def __init__(self, rate_ppm: float = 0.0, offset: float = 0.0) -> None:
        self._fleet = ClockFleet(rate_ppm, offset)
        self._i = 0

    @classmethod
    def _view(cls, fleet: ClockFleet, i: int) -> DriftingClock:
        clock = cls.__new__(cls)
        clock._fleet, clock._i = fleet, i
        return clock

    @property
    def rate_ppm(self) -> float:
        return self._fleet.rate_ppm.item(self._i)

    @rate_ppm.setter
    def rate_ppm(self, value: float) -> None:
        self._fleet.rate_ppm[self._i] = value

    @property
    def offset(self) -> float:
        return self._fleet.offset.item(self._i)

    @offset.setter
    def offset(self, value: float) -> None:
        self._fleet.offset[self._i] = value

    def local_time(self, true_time: float) -> float:
        """The node's local timestamp at global time ``true_time``."""
        f, i = self._fleet, self._i
        elapsed = true_time - f.epoch.item(i)
        return (true_time + f.offset.item(i)
                + elapsed * f.rate_ppm.item(i) * 1e-6)

    def error_at(self, true_time: float) -> float:
        """Absolute clock error (local - true) at ``true_time``."""
        return self.local_time(true_time) - true_time

    def sync(self, true_time: float) -> None:
        """Resynchronize: zero the accumulated offset at ``true_time``."""
        self.offset = 0.0
        self._fleet.epoch[self._i] = true_time


class DriftModel:
    """Factory for a population of drifting clocks with realistic spread.

    Commodity oscillators sit within tens of ppm of nominal; we draw each
    node's rate from a normal distribution and the initial offset from a
    uniform window, both seeded for reproducibility.
    """

    def __init__(
        self,
        rate_sigma_ppm: float = 20.0,
        initial_offset_s: float = 0.05,
        seed: int = 0,
    ) -> None:
        self.rate_sigma_ppm = float(rate_sigma_ppm)
        self.initial_offset_s = float(initial_offset_s)
        self._rng = np.random.default_rng(seed)

    def make_clock(self) -> DriftingClock:
        return self.make_fleet(1).clocks()[0]

    def make_fleet(self, n: int) -> ClockFleet:
        """``n`` clocks as one fleet, drawn clock by clock (rate, then
        offset): ``n`` :meth:`make_clock` calls draw the same ones."""
        rate, offset = np.empty(n), np.empty(n)
        for i in range(n):
            rate[i] = self._rng.normal(0.0, self.rate_sigma_ppm)
            offset[i] = self._rng.uniform(
                -self.initial_offset_s, self.initial_offset_s
            )
        return ClockFleet(rate, offset)

    def make_clocks(self, n: int) -> list[DriftingClock]:
        return self.make_fleet(n).clocks()
