"""Supervised-component lifecycle: the monitoring plane's own reliability.

Table I demands that "monitoring should continue to function as the
system degrades" — the monitoring system must be *more* reliable than
the machine it watches, and its failures must be visible, bounded, and
self-healing rather than silent.  Every plane of the pipeline (sources,
transport, storage, stages, response) threads through the same small
vocabulary defined here:

``Health``
    the three-state component condition: OK, DEGRADED (producing but
    impaired — e.g. a transport that dropped envelopes this tick),
    FAILED (isolated/quarantined, not trusted to run).

``Supervised``
    the protocol a component satisfies to be supervised: it reports a
    :class:`Health` and accepts explicit ``heal()`` / ``fail()``
    transitions (fault injection and recovery drive these directly).

``BackoffSchedule``
    deterministic exponential backoff — *no jitter*, because the whole
    stack is a reproducible simulation and retry times must be exact
    under a fixed seed.

``CircuitBreaker``
    trip after N consecutive failures, then quarantine: closed → open
    (after the trip) → half-open (one probe once the backoff elapses) →
    closed on probe success, re-open with a longer backoff on probe
    failure.

``Supervisor``
    the registry of supervised components.  Planes ask ``should_run``
    before exercising a component and ``record`` the outcome after;
    observation-driven planes (transport, storage) instead ``observe``
    a health directly.  Every state change is kept as a
    :class:`Transition` — the health timeline ``python -m repro chaos``
    prints, and the event stream the SEC escalation rule watches.

All times are *simulation* seconds (the pipeline's single global
timebase), so supervision behaves identically run to run.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

__all__ = [
    "Health",
    "Supervised",
    "Transition",
    "BackoffSchedule",
    "CircuitBreaker",
    "ComponentRecord",
    "Supervisor",
]


class Health(enum.Enum):
    """Three-state component condition (ordered by badness)."""

    OK = "ok"
    DEGRADED = "degraded"
    FAILED = "failed"

    @property
    def code(self) -> int:
        """Numeric encoding for the ``selfmon.health.state`` gauge."""
        return {"ok": 0, "degraded": 1, "failed": 2}[self.value]


@runtime_checkable
class Supervised(Protocol):
    """What a component exposes to participate in supervision."""

    def health(self) -> Health:
        """Current condition of this component."""
        ...

    def heal(self) -> None:
        """Explicit recovery transition (fault cleared)."""
        ...

    def fail(self, reason: str = "") -> None:
        """Explicit failure transition (fault injected / detected)."""
        ...


@dataclass(frozen=True, slots=True)
class Transition:
    """One health-state change of one supervised component."""

    time: float
    component: str
    old: Health
    new: Health
    reason: str = ""

    def describe(self) -> str:
        """The log/SEC line format the escalation rule matches."""
        tail = f": {self.reason}" if self.reason else ""
        return (
            f"monitor component {self.component} "
            f"{self.old.value.upper()} -> {self.new.value.upper()}{tail}"
        )


@dataclass(frozen=True, slots=True)
class BackoffSchedule:
    """Deterministic (jitter-free) exponential backoff.

    ``delay(k)`` is the quarantine length after the k-th consecutive
    breaker trip: ``base_s * factor**k`` capped at ``max_s``.  No jitter
    on purpose — retry times must be bit-reproducible under a seed.
    """

    base_s: float = 60.0
    factor: float = 2.0
    max_s: float = 3600.0

    def delay(self, trips: int) -> float:
        if trips < 0:
            raise ValueError("trips must be >= 0")
        try:
            d = self.base_s * (self.factor ** trips)
        except OverflowError:
            # factor**k overflows a float near k ~ 1024; everything that
            # far out clamps to the cap anyway
            return self.max_s
        return min(d, self.max_s)


class CircuitBreaker:
    """Trip after N consecutive failures; half-open probes on a backoff.

    States: *closed* (normal operation), *open* (quarantined — calls
    refused until ``retry_at``), *half-open* (exactly one probe allowed;
    its outcome closes or re-opens the breaker with a longer backoff).
    """

    __slots__ = ("trip_after", "backoff", "streak", "trips", "state",
                 "retry_at", "failures", "successes")

    CLOSED, OPEN, HALF_OPEN = "closed", "open", "half-open"

    def __init__(
        self,
        trip_after: int = 3,
        backoff: BackoffSchedule | None = None,
    ) -> None:
        if trip_after < 1:
            raise ValueError("trip_after must be >= 1")
        self.trip_after = int(trip_after)
        self.backoff = backoff if backoff is not None else BackoffSchedule()
        self.streak = 0          # consecutive failures
        self.trips = 0           # cumulative open transitions
        self.state = self.CLOSED
        self.retry_at = float("-inf")
        self.failures = 0
        self.successes = 0

    def allow(self, now: float) -> bool:
        """May the component run at ``now``?  An open breaker whose
        backoff has elapsed admits exactly one half-open probe."""
        if self.state == self.OPEN and now + 1e-9 >= self.retry_at:
            self.state = self.HALF_OPEN
        return self.state != self.OPEN

    def record_success(self, now: float) -> None:
        self.successes += 1
        self.streak = 0
        self.state = self.CLOSED
        self.retry_at = float("-inf")

    def record_failure(self, now: float) -> None:
        self.failures += 1
        self.streak += 1
        if self.state == self.HALF_OPEN or self.streak >= self.trip_after:
            # probe failed, or the streak reached the trip threshold:
            # (re)open with the next backoff step
            self.state = self.OPEN
            self.retry_at = now + self.backoff.delay(self.trips)
            self.trips += 1

    @property
    def quarantined(self) -> bool:
        return self.state != self.CLOSED


@dataclass
class ComponentRecord:
    """Supervisor-side state of one supervised component."""

    name: str
    health: Health = Health.OK
    breaker: CircuitBreaker = field(default_factory=CircuitBreaker)
    last_reason: str = ""
    clean_streak: int = 0    # consecutive clean observations (hysteresis)

    def summary(self) -> dict[str, float | str]:
        return {
            "state": self.health.value,
            "failures": float(self.breaker.failures),
            "successes": float(self.breaker.successes),
            "trips": float(self.breaker.trips),
            "quarantined": float(self.breaker.quarantined),
            "reason": self.last_reason,
        }


class Supervisor:
    """Registry of supervised components with retry/backoff/quarantine.

    Two usage styles, matching the two kinds of plane:

    * *call-driven* (collectors, stages): ask :meth:`should_run` before
      exercising the component, :meth:`record` the outcome after.  The
      per-component circuit breaker converts failure streaks into
      quarantine with deterministic exponential backoff and half-open
      probes.
    * *observation-driven* (transport, storage): derive a
      :class:`Health` from the component's own stats surface each tick
      and :meth:`observe` it; ``heal_after`` consecutive clean
      observations are required before a degraded component returns to
      OK (hysteresis against flapping).

    Every state change lands in :attr:`transitions` — the health
    timeline.
    """

    def __init__(
        self,
        trip_after: int = 3,
        backoff: BackoffSchedule | None = None,
        heal_after: int = 2,
    ) -> None:
        self.trip_after = int(trip_after)
        self.backoff = backoff if backoff is not None else BackoffSchedule()
        self.heal_after = int(heal_after)
        self.components: dict[str, ComponentRecord] = {}
        self.transitions: list[Transition] = []

    # -- registry -----------------------------------------------------------

    def register(self, name: str) -> ComponentRecord:
        rec = self.components.get(name)
        if rec is None:
            rec = ComponentRecord(
                name, breaker=CircuitBreaker(self.trip_after, self.backoff))
            self.components[name] = rec
        return rec

    def health(self, name: str) -> Health:
        rec = self.components.get(name)
        return rec.health if rec is not None else Health.OK

    def _set_health(self, rec: ComponentRecord, new: Health, now: float,
                    reason: str = "") -> None:
        if rec.health is new:
            return
        self.transitions.append(
            Transition(now, rec.name, rec.health, new, reason)
        )
        rec.health = new
        rec.last_reason = reason

    # -- call-driven supervision --------------------------------------------

    def should_run(self, name: str, now: float) -> bool:
        """True when the component may run (not quarantined, or due a
        half-open probe)."""
        return self.register(name).breaker.allow(now)

    def record(self, name: str, ok: bool, now: float,
               reason: str = "") -> None:
        """Record one call outcome; drives the breaker and the health."""
        rec = self.register(name)
        br = rec.breaker
        if ok:
            # fast path: a healthy component succeeding changes nothing
            # beyond its success counter
            if br.streak == 0 and rec.health is Health.OK:
                br.successes += 1
                return
            br.record_success(now)
            self._set_health(rec, Health.OK, now, reason or "recovered")
            return
        br.record_failure(now)
        self._set_health(rec, Health.FAILED if br.quarantined
                         else Health.DEGRADED, now, reason)

    # -- observation-driven supervision -------------------------------------

    def observe(self, name: str, health: Health, now: float,
                reason: str = "") -> None:
        """Set health from an external observation, with heal hysteresis:
        an impaired component must look clean ``heal_after`` consecutive
        times before it transitions back to OK."""
        rec = self.register(name)
        if health is Health.OK:
            if rec.health is Health.OK:
                return
            rec.clean_streak += 1
            if rec.clean_streak >= self.heal_after:
                self._set_health(rec, Health.OK, now, reason or "recovered")
                rec.clean_streak = 0
            return
        rec.clean_streak = 0
        self._set_health(rec, health, now, reason)

    # -- explicit transitions (fault injection / recovery) -------------------

    def fail(self, name: str, now: float, reason: str = "") -> None:
        rec = self.register(name)
        rec.clean_streak = 0
        self._set_health(rec, Health.FAILED, now, reason)

    def heal(self, name: str, now: float, reason: str = "") -> None:
        rec = self.register(name)
        rec.breaker.record_success(now)
        rec.clean_streak = 0
        self._set_health(rec, Health.OK, now, reason or "healed")

    # -- reporting ----------------------------------------------------------

    def report(self) -> dict[str, dict[str, float | str]]:
        """Per-component summary (the introspector / selfmon surface)."""
        return {
            name: rec.summary() for name, rec in sorted(self.components.items())
        }

    def all_ok(self) -> bool:
        return all(
            rec.health is Health.OK for rec in self.components.values()
        )

    def worst(self) -> Health:
        worst = Health.OK
        for rec in self.components.values():
            if rec.health.code > worst.code:
                worst = rec.health
        return worst

    def timeline(self) -> str:
        """Human-readable health timeline (the chaos-scenario output)."""
        if not self.transitions:
            return "(no health transitions)"
        return "\n".join(
            f"t={tr.time:8.0f}s  {tr.describe()}" for tr in self.transitions
        )
