"""Thread-safety of the supervised lifecycle under concurrent callers.

A tick runs in one thread, but a Supervisor is a shared object: the
Supervisor and its per-component CircuitBreakers take one lock per
mutating entry point so the counters stay exact and the transition
timeline uncorrupted whichever threads report into them.  These tests
hammer those entry points from many threads and assert the exact totals
a serial run would produce.
"""

import threading

from repro.core.lifecycle import CircuitBreaker, Health, Supervisor


def _hammer(n_threads, fn):
    """Run ``fn(thread_index)`` on N threads, all released together."""
    start = threading.Barrier(n_threads)
    errors = []

    def run(i):
        start.wait()
        try:
            fn(i)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(i,))
               for i in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []


class TestSupervisorConcurrency:
    N_THREADS = 8
    N_CALLS = 400

    def test_record_totals_are_exact(self):
        sup = Supervisor(trip_after=10 ** 9)   # never quarantine
        per_thread_failures = 5

        def work(i):
            for k in range(self.N_CALLS):
                ok = k >= per_thread_failures
                sup.record("plane", ok, now=float(k),
                           reason="" if ok else "injected")

        _hammer(self.N_THREADS, work)
        br = sup.components["plane"].breaker
        assert br.successes + br.failures == self.N_THREADS * self.N_CALLS
        assert br.failures == self.N_THREADS * per_thread_failures

    def test_concurrent_registration_is_single(self):
        sup = Supervisor()

        def work(i):
            for k in range(self.N_CALLS):
                sup.record(f"comp-{k % 7}", True, now=float(k))

        _hammer(self.N_THREADS, work)
        assert len(sup.components) == 7
        total = sum(r.breaker.successes for r in sup.components.values())
        assert total == self.N_THREADS * self.N_CALLS

    def test_observe_timeline_stays_consistent(self):
        sup = Supervisor(heal_after=1)

        def work(i):
            for k in range(self.N_CALLS):
                health = Health.DEGRADED if k % 2 else Health.OK
                sup.observe("store", health, now=float(k))

        _hammer(self.N_THREADS, work)
        # every transition recorded flips state; a torn timeline would
        # show two consecutive transitions to the same health
        states = [t.new for t in sup.transitions]
        assert all(a != b for a, b in zip(states, states[1:]))

    def test_fail_heal_from_many_threads(self):
        sup = Supervisor(heal_after=1)

        def work(i):
            for k in range(50):
                if i % 2:
                    sup.fail("shard-1", now=float(k), reason="outage")
                else:
                    sup.heal("shard-1", now=float(k))

        _hammer(self.N_THREADS, work)
        assert sup.health("shard-1") in (Health.OK, Health.FAILED)
        states = [t.new for t in sup.transitions]
        assert all(a != b for a, b in zip(states, states[1:]))


class TestCircuitBreakerConcurrency:
    def test_counter_totals_are_exact(self):
        br = CircuitBreaker(trip_after=10 ** 9)

        def work(i):
            for k in range(500):
                if k % 10 == 0:
                    br.record_failure(float(k))
                else:
                    br.record_success(float(k))

        _hammer(8, work)
        assert br.successes + br.failures == 8 * 500
        assert br.failures == 8 * 50

    def test_trip_is_not_torn(self):
        # all threads slam failures; the breaker must end OPEN with a
        # coherent (streak, trips) pair, never a half-written state
        br = CircuitBreaker(trip_after=3)

        def work(i):
            for k in range(200):
                br.record_failure(1000.0)

        _hammer(8, work)
        assert br.state == CircuitBreaker.OPEN
        assert br.failures == 8 * 200
        assert br.trips >= 1

    def test_half_open_admits_probes_single_threadedly(self):
        br = CircuitBreaker(trip_after=1)
        br.record_failure(0.0)          # trip; retry_at = backoff step
        assert br.state == CircuitBreaker.OPEN
        now = br.retry_at + 1.0
        admitted = []
        lock = threading.Lock()

        def work(i):
            if br.allow(now):
                with lock:
                    admitted.append(i)

        _hammer(8, work)
        # every admit happened in HALF_OPEN (single transition), and the
        # probe outcome decides the state exactly once
        assert br.state == CircuitBreaker.HALF_OPEN
        assert admitted, "backoff elapsed: at least one probe admitted"
        br.record_failure(now)
        assert br.state == CircuitBreaker.OPEN
        assert br.retry_at > now
