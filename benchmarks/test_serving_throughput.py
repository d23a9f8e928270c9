"""Concurrent dashboard reads: the serving plane must actually pay.

The tentpole claim of the serving plane is that dashboard-shaped reads
— cross-component aggregates plus per-node drill-downs on a one-minute
grid, fanned out by concurrent readers — run at least ``MIN_SPEEDUP``x
faster through the query front end than against the store's raw
decompress path, *while ingest keeps invalidating the result cache*.
The warm arm's wins come from two layers: the result cache absorbs
repeats between ingest ticks, and rollup-pyramid rows absorb the
re-asks after each invalidation (no chunk decompression either way).
The raw arm answers the identical query set with ``prune=False``
downsampling and raw cross-component aggregation.

Methodology mirrors the other overhead benches: GC held quiescent,
paired trials with arm order alternated so host drift cancels, median
ratio per attempt, best of ``ATTEMPTS`` attempts (timing noise is
one-sided — interruptions only slow arms down).  Both arms fan their
wave through the same 4-worker :class:`ThreadedExecutor`; a small
append lands between warm waves so every wave re-validates against a
moved epoch — the honest steady state, not an infinitely-cacheable one.
Answers are asserted equal before any timing is trusted.

A pytest-benchmark fixture records the warm wave; the tracked figures
are ``bench/``'s ``queries_per_s`` and ``serve.wave_p50_ms`` on
``dash-wave`` (see ``bench/README.md``).
"""

import gc
import time

import numpy as np

from repro.core.metric import SeriesBatch
from repro.runtime.executor import ThreadedExecutor
from repro.serve.frontend import QueryFrontend
from repro.storage.rollup import DEFAULT_LEVELS
from repro.storage.tsdb import TimeSeriesStore

METRIC = "node.power_w"
COMPS = [f"node{i}" for i in range(16)]
N_SAMPLES = 20_000          # 1 Hz per node: ~5.5 h of history
WAVES = 4                   # dashboard refreshes per timed trial
TRIALS = 3
ATTEMPTS = 3
WORKERS = 4
MIN_SPEEDUP = 10.0


def build_store() -> tuple[TimeSeriesStore, float]:
    rng = np.random.default_rng(42)
    store = TimeSeriesStore(pyramid_levels=DEFAULT_LEVELS)
    t = np.arange(N_SAMPLES, dtype=np.float64)
    for c in COMPS:
        store.append(SeriesBatch.for_component(
            METRIC, c, t, rng.normal(300.0, 30.0, N_SAMPLES)))
    return store, float(t[-1]) + 1.0


def wave_fns(answer_agg, answer_ds, t1):
    """One dashboard refresh: 2 fleet aggregates + 4 drill-downs."""
    fns = [
        lambda: answer_agg(60.0, "mean", t1),
        lambda: answer_agg(600.0, "max", t1),
    ]
    for c in COMPS[:4]:
        fns.append(lambda c=c: answer_ds(c, 60.0, "mean", t1))
    return fns


def run_arm(store, fe, ex, t1, ingest_at) -> float:
    """Wall time of WAVES dashboard refreshes through one arm.

    ``fe`` is the front end for the warm arm or None for the raw arm;
    a one-sample append lands before each wave (at distinct times
    ``ingest_at``) so the warm arm's result cache is invalidated and
    must re-answer from pyramid rows — both arms see identical stores.
    """
    if fe is not None:
        def agg(step, a, t1):
            return fe.aggregate_across(METRIC, None, 0.0, t1, step, a)

        def ds(c, step, a, t1):
            return fe.downsample(METRIC, c, 0.0, t1, step, a)
    else:
        def agg(step, a, t1):
            return store.aggregate_across(METRIC, None, 0.0, t1, step, a)

        def ds(c, step, a, t1):
            return store.downsample(METRIC, c, 0.0, t1, step, a,
                                    prune=False)

    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for w in range(WAVES):
            store.append(SeriesBatch.for_component(
                METRIC, COMPS[0], [ingest_at + w], [300.0]))
            for out in ex.map_ordered(wave_fns(agg, ds, t1)):
                assert len(out)
        return time.perf_counter() - t0
    finally:
        gc.enable()


def measure_speedup() -> tuple[float, float, float]:
    """Median of paired raw/warm ratios, arm order alternated.

    Returns (speedup, best_warm, best_raw)."""
    store, t1 = build_store()
    fe = QueryFrontend(store)
    ex = ThreadedExecutor(workers=WORKERS)
    try:
        # warm both arms once (chunk seal, pool spin-up, first answers)
        run_arm(store, fe, ex, t1, ingest_at=float(N_SAMPLES) + 1e6)
        run_arm(store, None, ex, t1, ingest_at=float(N_SAMPLES) + 2e6)
        ratios = []
        warm_best = raw_best = float("inf")
        for i in range(TRIALS):
            base = float(N_SAMPLES) + 3e6 + 100.0 * i
            if i % 2 == 0:
                w = run_arm(store, fe, ex, t1, base)
                r = run_arm(store, None, ex, t1, base + 50.0)
            else:
                r = run_arm(store, None, ex, t1, base + 50.0)
                w = run_arm(store, fe, ex, t1, base)
            ratios.append(r / w)
            warm_best = min(warm_best, w)
            raw_best = min(raw_best, r)
        ratios.sort()
        return ratios[len(ratios) // 2], warm_best, raw_best
    finally:
        ex.shutdown()


class TestServingThroughput:
    def test_served_answers_match_raw_before_timing(self):
        store, t1 = build_store()
        fe = QueryFrontend(store)
        for step, agg in ((60.0, "mean"), (600.0, "max")):
            got = fe.aggregate_across(METRIC, None, 0.0, t1, step, agg)
            want = store.aggregate_across(METRIC, None, 0.0, t1, step,
                                          agg)
            assert np.array_equal(got.times, want.times)
            if agg == "mean":
                assert np.allclose(got.values, want.values, rtol=1e-9)
            else:
                assert np.array_equal(got.values, want.values)
        for c in COMPS[:4]:
            got = fe.downsample(METRIC, c, 0.0, t1, 60.0, "mean")
            want = store.downsample(METRIC, c, 0.0, t1, 60.0, "mean",
                                    prune=False)
            assert np.array_equal(got.times, want.times)
            assert np.allclose(got.values, want.values, rtol=1e-9)
        assert fe.stats().pyramid_answers > 0

    def test_warm_dashboard_waves_beat_the_floor(self):
        best = 0.0
        for attempt in range(ATTEMPTS):
            speedup, warm_s, raw_s = measure_speedup()
            best = max(best, speedup)
            print(f"\ndashboard waves ({WAVES} refreshes x "
                  f"{2 + 4} queries, {len(COMPS)} nodes x "
                  f"{N_SAMPLES} samples, ingest between waves): "
                  f"raw {raw_s:.3f}s, served {warm_s:.4f}s "
                  f"({speedup:.1f}x median paired speedup, "
                  f"attempt {attempt + 1})")
            if best >= MIN_SPEEDUP:
                break
        assert best >= MIN_SPEEDUP, (
            f"serving-plane speedup {best:.1f}x under the "
            f"{MIN_SPEEDUP:.0f}x floor in {ATTEMPTS} attempts"
        )

    def test_bench_warm_dashboard_wave(self, benchmark):
        store, t1 = build_store()
        fe = QueryFrontend(store)
        ex = ThreadedExecutor(workers=WORKERS)
        tick = iter(range(10**9))

        def one_wave():
            # move the epoch first: every wave re-answers, none free-ride
            store.append(SeriesBatch.for_component(
                METRIC, COMPS[0],
                [float(N_SAMPLES + next(tick))], [300.0]))
            def agg(step, a, t1):
                return fe.aggregate_across(METRIC, None, 0.0, t1,
                                           step, a)
            def ds(c, step, a, t1):
                return fe.downsample(METRIC, c, 0.0, t1, step, a)
            ex.map_ordered(wave_fns(agg, ds, t1))

        try:
            one_wave()              # warm pool + pyramids
            benchmark(one_wave)
        finally:
            ex.shutdown()
        benchmark.extra_info["queries_per_s"] = (
            6 / benchmark.stats.stats.mean
        )
