"""Timers, budgets, the host canary and the oracles the workloads share.

Everything here measures from outside the program: the only thing the
harness ever interposes on (beyond the traced run's spans) is one
always-on timer on each ``machine.step``, so that "tick time" can mean
**monitor time** — ``pipeline.step()`` wall minus the simulator's share.

Reported times are **host-speed-normalised** (:class:`Canary`): this
2-vCPU VM flips between two CPU speed modes about 18% apart every ten
seconds or so, which is several times the effects the benchmark exists to
resolve, so every timed unit is scaled by a fixed canary kernel timed next
to it.
"""

from __future__ import annotations

import gc
import os
import resource
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

__all__ = [
    "Budget",
    "Canary",
    "Ops",
    "Requests",
    "TickLog",
    "check_delivery",
    "counters",
    "dir_bytes",
    "median",
    "peak_rss_mb",
    "same_answer",
    "src_lines",
    "tail_percentile",
]

clock = time.perf_counter


def median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def tail_percentile(values, q: float) -> float:
    """``q``-th percentile, or 0.0 when fewer than ten samples lie beyond
    it (a tail read off a handful of samples is noise, not a metric)."""
    n = len(values)
    if n * (100.0 - q) / 100.0 < 10.0:
        return 0.0
    return float(np.percentile(values, q))


class Canary:
    """A fixed pure-Python kernel timed alongside the measurement.

    The kernel and the program are both interpreter-bound, so when the
    host's CPU speed changes they slow down together: a unit of work
    timed at ``wall`` next to a canary reading ``c`` is reported as
    ``wall * REF_S / c`` — its time on a reference host where the kernel
    takes exactly ``REF_S``.  (Measured here on ``sweep-27k``: raw median
    ticks of four back-to-back runs spread 22%, normalised ones 4.5%.)
    ``host.calib_ms`` reports the raw canary, so ``value * host.calib_ms /
    (1e3 * REF_S)`` converts any reported time back to this host's wall.
    """

    REF_S = 1e-3
    #: a reading is at most this stale when work is timed against it
    EVERY_S = 0.1
    #: readings this close to a timed unit are pooled for its factor
    NEAR_S = 0.5

    def __init__(self) -> None:
        self.at: list[float] = []        # when each reading was taken
        self.took: list[float] = []      # median of three kernel runs

    @staticmethod
    def _kernel() -> float:
        t0 = clock()
        acc = 0
        for i in range(15_000):
            acc += (i * i) % 7
        return clock() - t0

    def sample(self) -> None:
        runs = sorted(self._kernel() for _ in range(3))
        self.at.append(clock())
        self.took.append(runs[1])

    def maybe(self) -> None:
        """Take a reading unless a fresh one exists; called between
        timed units, never inside one."""
        if not self.at or clock() - self.at[-1] >= self.EVERY_S:
            self.sample()

    def scale(self, t0, t1) -> np.ndarray:
        """Per-unit factor ``REF_S / c`` for units spanning ``[t0, t1]``:
        ``c`` is the median reading from ``NEAR_S`` before the unit to
        ``NEAR_S`` after it, and always includes the last reading before
        it and the first after it.  The host holds a speed for seconds, so
        the neighbourhood averages the kernel's own jitter away without
        blurring a mode change."""
        at, took = np.asarray(self.at), np.asarray(self.took)
        last = len(at) - 1
        lo = np.minimum(np.searchsorted(at, t0 - self.NEAR_S, "left"),
                        np.searchsorted(at, t0, "right") - 1)
        hi = np.maximum(np.searchsorted(at, t1 + self.NEAR_S, "right") - 1,
                        np.searchsorted(at, t1, "left"))
        lo, hi = np.clip(lo, 0, last), np.clip(hi, 0, last)
        c = np.fromiter((np.median(took[a:b + 1]) for a, b in zip(lo, hi)),
                        dtype=float, count=len(lo))
        return self.REF_S / c

    def scale_over(self, t0: float, t1: float) -> float:
        """One factor for a long stretch: ``REF_S`` over the median
        reading taken within it."""
        at = np.asarray(self.at)
        inside = np.asarray(self.took)[(at >= t0) & (at <= t1)]
        return self.REF_S / float(np.median(inside)) if len(inside) else 1.0


class Budget:
    """How long a measured loop runs: a time box, or a fixed unit count.

    A unit is one iteration of the workload's loop (a tick, a seal cycle,
    a tick-plus-wave round, a federation step).  Fixed units make every
    count repeat exactly for a seed; the time box is what the driver uses,
    so faster code measures more work instead of a shorter window.

    Size-dependent figures (resident memory, bytes per point) must not
    grow just because faster code got further in the box, so ``on_mark``
    fires once at a **fixed amount of work**: after the ``at_least`` units
    every time-boxed window runs, or after the last of a fixed count.
    """

    def __init__(self, seconds: float | None = None,
                 units: int | None = None) -> None:
        if (seconds is None) == (units is None):
            raise ValueError("pass exactly one of seconds or units")
        self.seconds = seconds
        self.units = units
        self.on_mark = None
        self._t0 = clock()

    def start(self) -> None:
        self._t0 = clock()

    def more(self, done: int, at_least: int = 1) -> bool:
        """Run another unit?  The time box closes at the unit boundary
        nearest to it, so long units (seal cycles) stay whole."""
        if done == (at_least if self.units is None else self.units):
            mark, self.on_mark = self.on_mark, None
            if mark is not None:
                mark()
        if self.units is not None:
            return done < self.units
        if done < at_least:
            return True
        elapsed = clock() - self._t0
        return elapsed + 0.5 * elapsed / done < self.seconds


class TickLog:
    """Per-tick whole wall and simulator wall, from one harness timer."""

    def __init__(self, pipelines, canary: Canary) -> None:
        self.whole: list[float] = []
        self.sim: list[float] = []
        self.began: list[float] = []
        self._canary = canary
        self._n = len(pipelines)
        self._calls = 0
        self._wall = 0.0
        for p in pipelines:
            self._interpose(p.machine)

    def _interpose(self, machine) -> None:
        step = machine.step

        def timed_step(dt):
            t0 = clock()
            try:
                return step(dt)
            finally:
                self._wall += clock() - t0
                self._calls += 1

        machine.step = timed_step

    def tick(self, step) -> None:
        """Run one tick through ``step()`` and log it."""
        self._canary.maybe()
        calls, wall = self._calls, self._wall
        t0 = clock()
        step()
        t1 = clock()
        if self._calls - calls != self._n:
            raise RuntimeError(
                f"machine.step fired {self._calls - calls} times in one "
                f"tick over {self._n} site(s); monitor time is undefined"
            )
        self.began.append(t0)
        self.whole.append(t1 - t0)
        self.sim.append(self._wall - wall)

    def monitor(self, n: int) -> np.ndarray:
        """Host-normalised monitor time of the first ``n`` ticks."""
        whole, began = np.asarray(self.whole[:n]), np.asarray(self.began[:n])
        return ((whole - np.asarray(self.sim[:n]))
                * self._canary.scale(began, began + whole))


class Ops:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def fail(self, what: str, n: int = 1) -> None:
        if n > 0:
            self.failed += n
            self.failures.append(f"{what} (x{n})" if n > 1 else what)

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.fail(what)


def same_answer(a, b) -> bool:
    """Bit-equality of two query answers (batches, or dicts of batches)."""
    if isinstance(a, dict) or isinstance(b, dict):
        return (isinstance(a, dict) and isinstance(b, dict)
                and list(a) == list(b)
                and all(same_answer(a[k], b[k]) for k in a))
    if a is None or b is None:
        return False
    return (np.array_equal(a.times, b.times)
            and np.array_equal(a.values, b.values, equal_nan=True))


class Requests:
    """Harness-issued read requests: per-class timings, per-wave totals,
    and every tenth answer of each class kept for its oracle.

    Oracles are evaluated after the measured window.  That is sound
    because every request bounds its window at ``t1 <= now`` and later
    ticks only add samples stamped after ``now``: the raw store path
    must still give the identical answer.
    """

    def __init__(self, canary: Canary) -> None:
        self.by_class: dict[str, list[float]] = defaultdict(list)
        self.waves: list[tuple[int, float, float]] = []   # (requests, t0, t1)
        self.raised = 0
        self._canary = canary
        self._kept: list[tuple[str, object, object]] = []
        self._wave_n = 0
        self._wave_t0 = 0.0

    def begin_wave(self) -> None:
        self._canary.maybe()
        self._wave_n = 0
        self._wave_t0 = clock()

    def end_wave(self) -> None:
        self.waves.append((self._wave_n, self._wave_t0, clock()))

    def issue(self, kind: str, call, oracle=None):
        t0 = clock()
        try:
            answer = call()
        except Exception:      # a raising request is a failed operation
            answer = None
            self.raised += 1
        times = self.by_class[kind]
        times.append(clock() - t0)
        self._wave_n += 1
        if oracle is not None and len(times) % 10 == 1:
            self._kept.append((kind, answer, oracle))
        return answer

    @property
    def issued(self) -> int:
        return sum(len(v) for v in self.by_class.values())

    def all_times(self) -> list[float]:
        return [t for v in self.by_class.values() for t in v]

    def wave_walls(self) -> np.ndarray:
        """Host-normalised wall of every wave."""
        if not self.waves:
            return np.empty(0)
        _n, t0, t1 = (np.asarray(col, dtype=float)
                      for col in zip(*self.waves))
        return (t1 - t0) * self._canary.scale(t0, t1)

    def verify(self, ops: Ops) -> int:
        """Re-answer every kept request by its oracle; returns how many
        were checked."""
        ops.fail("read request raised", self.raised)
        for kind, answer, oracle in self._kept:
            ops.check(same_answer(answer, oracle()),
                      f"{kind} answer differs from the raw store path")
        return len(self._kept)


def check_delivery(ops: Ops, label: str, pipeline) -> None:
    """The ledger identity and its agreement with the store, after a
    flush."""
    pipeline.bus.flush()
    rep = pipeline.delivery_report()
    ops.fail(f"{label}: points unaccounted in the ledger",
             abs(rep.unaccounted))
    ops.check(rep.pending == 0 and rep.in_flight == 0,
              f"{label}: points still pending or in flight after flush")
    # every stored point is on a tracked topic, so the two counts agree
    # from the first tick on — and again after a crash re-baselines both
    samples = pipeline.tsdb.stats().samples
    ops.check(rep.stored == samples,
              f"{label}: ledger stored {rep.stored} != store samples "
              f"{samples}")
    ops.fail(f"{label}: collector failures",
             sum(c.errors for c in pipeline.scheduler.collectors))
    impaired = impaired_components(pipeline)
    ops.fail(f"{label}: impaired or tripped: {', '.join(impaired)}",
             len(impaired))


def impaired_components(pipeline) -> list[str]:
    return [name for name, s in pipeline.health_report().items()
            if s["state"] != "ok" or s["trips"] > 0]


def counters(pipelines) -> dict[str, float]:
    """Every count the metrics need, summed over the stacks, read only
    from public stats surfaces.  Window figures are differences of two
    of these snapshots."""
    c: dict[str, float] = defaultdict(float)
    for p in pipelines:
        c["published"] += p.ledger.published_total()
        c["stored"] += p.ledger.stored_total()
        bus = p.bus.stats()
        c["batches"] += bus.published
        c["dropped"] += bus.dropped
        store = p.tsdb.stats()
        c["series"] += store.series
        c["samples"] += store.samples
        c["sealed_chunks"] += store.sealed_chunks
        c["compressed_bytes"] += store.compressed_bytes
        disk = p.tsdb.disk_stats()
        if disk is not None:
            c["spills"] += disk.spills
            c["disk_loads"] += disk.loads
            c["wal_bytes"] += disk.wal_bytes
            c["wal_syncs"] += disk.wal_syncs
        cache = p.tsdb.cache_stats()
        c["cache_hits"] += cache.hits
        c["cache_misses"] += cache.misses
        c["cache_evictions"] += cache.evictions
        serve = p.frontend.stats()
        c["rejected"] += serve.rejected
        c["pyramid_answers"] += serve.pyramid_answers
        c["raw_answers"] += serve.raw_answers
        c["result_hits"] += serve.cache.hits
        c["result_misses"] += serve.cache.misses
        for det in p.stage("streaming").detectors:
            c["observed"] += det.samples_observed
            c["detections"] += det.detections_total
        if p.selfmon is not None:
            c["selfmon_emits"] += p.selfmon.emissions
        c["log_events"] += len(p.logs)
        c["barrier_wait_ms"] += p.executor.snapshot()["barrier_wait_ms"]
    c["gc_gen2"] = gc.get_stats()[2]["collections"]
    return c


# -- host and process ----------------------------------------------------


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def dir_bytes(root) -> int:
    total = 0
    for base, _dirs, files in os.walk(root):
        for name in files:
            total += os.path.getsize(os.path.join(base, name))
    return total


def src_lines(src: Path) -> int:
    """Line count of the program's source tree (the ROADMAP trajectory)."""
    return sum(p.read_bytes().count(b"\n") for p in src.rglob("*.py"))
