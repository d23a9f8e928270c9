"""Parallel-runtime scaling: the threaded executor must actually pay.

The tentpole claim of the multi-worker execution model is that a
monitored step loop dominated by remote round-trips — every collector
sweep one scrape RTT away, every store shard one write RTT away — runs
at least ``MIN_SPEEDUP``x faster on ``WORKERS`` workers than serially,
on the full 27,648-component synchronized sweep.  The speedup comes
from latency hiding (the RTTs release the GIL), so it holds on a
single-core host; a regression here means a barrier got serialized or
a plane stopped fanning out.

Methodology mirrors the other overhead benches: GC held quiescent,
paired trials with arm order alternated so host drift cancels, median
ratio per attempt, best of ``ATTEMPTS`` attempts (timing noise is
one-sided — interruptions only slow arms down).

A pytest-benchmark fixture records the 4-worker step loop; the tracked
figures are ``bench/``'s ``runtime.barrier_wait_ms_per_tick`` and
``runtime.worker_busy_ms_per_tick`` (see ``bench/README.md``).
"""

import gc
import time

from repro.runtime.scaling import build_scaling_pipeline

N_STEPS = 8
TRIALS = 5
ATTEMPTS = 3
WORKERS = 4
MIN_SPEEDUP = 2.0


def one_step_loop(workers: int) -> float:
    """Wall time of one N_STEPS step loop on a fresh pipeline.

    Wall time — not process time — is the quantity under test: the
    speedup is latency hiding, which only wall clocks can see.  The
    first (untimed) step warms the routing memo and the worker pool so
    both arms measure steady state.
    """
    pipeline = build_scaling_pipeline(workers)
    gc.collect()
    gc.disable()
    try:
        pipeline.step()
        t0 = time.perf_counter()
        for _ in range(N_STEPS):
            pipeline.step()
        return time.perf_counter() - t0
    finally:
        gc.enable()
        pipeline.executor.shutdown()


def measure_speedup() -> tuple[float, float, float]:
    """Median of paired serial/parallel ratios, arm order alternated.

    Returns (speedup, best_serial, best_parallel)."""
    ratios = []
    serial_best = parallel_best = float("inf")
    for i in range(TRIALS):
        if i % 2 == 0:
            s = one_step_loop(1)
            p = one_step_loop(WORKERS)
        else:
            p = one_step_loop(WORKERS)
            s = one_step_loop(1)
        ratios.append(s / p)
        serial_best = min(serial_best, s)
        parallel_best = min(parallel_best, p)
    ratios.sort()
    return ratios[len(ratios) // 2], serial_best, parallel_best


class TestParallelScaling:
    def test_threaded_step_loop_beats_the_floor(self):
        best = 0.0
        for attempt in range(ATTEMPTS):
            speedup, serial_s, parallel_s = measure_speedup()
            best = max(best, speedup)
            print(f"\nstep loop ({N_STEPS} steps, 27,648 components): "
                  f"serial {serial_s:.3f}s, {WORKERS} workers "
                  f"{parallel_s:.3f}s ({speedup:.2f}x median paired "
                  f"speedup, attempt {attempt + 1})")
            if best >= MIN_SPEEDUP:
                break
        assert best >= MIN_SPEEDUP, (
            f"{WORKERS}-worker speedup {best:.2f}x under the "
            f"{MIN_SPEEDUP:.1f}x floor in {ATTEMPTS} attempts"
        )

    def test_parallel_arm_monitored_the_same_data(self):
        serial = build_scaling_pipeline(1)
        threaded = build_scaling_pipeline(WORKERS)
        try:
            for _ in range(4):
                serial.step()
                threaded.step()
        finally:
            threaded.executor.shutdown()
        assert serial.tsdb.stats().samples == 4 * 27_648
        assert serial.tsdb.stats() == threaded.tsdb.stats()
        a, b = serial.delivery_report(), threaded.delivery_report()
        assert a == b and a.balanced

    def test_bench_threaded_step_loop(self, benchmark):
        pipeline = build_scaling_pipeline(WORKERS)
        pipeline.step()                 # warm pool + routing memo

        def run_steps():
            for _ in range(4):
                pipeline.step()

        try:
            benchmark(run_steps)
        finally:
            pipeline.executor.shutdown()
        benchmark.extra_info["steps_per_s"] = (
            4 / benchmark.stats.stats.mean
        )
