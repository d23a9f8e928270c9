"""Out-of-core storage: the disk tier must be close to free.

Three gates, one per claim the tier makes:

* **ingest** — appending through the WAL + segment write path costs at
  most ``MAX_INGEST_OVERHEAD`` over the identical in-memory ingest.
  The WAL is fsync-batched (``sync_every_bytes``), so the steady-state
  cost is an encode + buffered write, not a disk round-trip per batch;
* **residency** — across a campaign that seals at least
  ``SPILL_FACTOR``x the hot budget, resident sealed bytes never exceed
  ``hot_bytes`` (checked after *every* append, not just at the end);
* **reads** — a full-range forced-decompress downsample over spilled
  chunks, decoding straight from the established mmap, costs at most
  ``MAX_READ_RATIO``x the all-in-memory store answering the same
  queries (chunk cache cleared before each pass on both arms, so both
  decode every chunk — the ratio isolates the mmap read itself).

Methodology mirrors the other overhead benches: GC held quiescent,
paired trials with arm order alternated so host drift cancels, and the
per-attempt ratio is min-over-trials of each arm (timing noise is
one-sided — interruptions only ever slow an arm down, so the minimum
is the best estimate of the true cost); best of ``ATTEMPTS`` attempts.
Answers are asserted equal before any timing is trusted.

A pytest-benchmark fixture records the warm mmap downsample pass; the
tracked figures are ``bench/``'s ``storage.wal_us_per_point`` and
``storage.diskload_us_per_chunk`` (see ``bench/README.md``).
"""

import gc
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.core.metric import SeriesBatch
from repro.storage.diskier import DiskTier
from repro.storage.tsdb import TimeSeriesStore

CHUNK = 512                       # the store's default chunk size
N_SERIES = 48
N_CHUNKS = 8                      # sealed chunks per series
HOT_BYTES = 128 << 10
SPILL_FACTOR = 10
TRIALS = 7
ATTEMPTS = 3
MAX_INGEST_OVERHEAD = 0.15        # disk ingest <= 1.15x in-memory
MAX_READ_RATIO = 2.0              # warm mmap downsample <= 2x memory
METRIC = "node.power_w"
COMPS = [f"node{i}" for i in range(N_SERIES)]


def workload():
    """Per-series (times, values) arrays; random values compress to
    roughly 9 B/sample, so the campaign seals well past the budget."""
    rng = np.random.default_rng(42)
    n = CHUNK * N_CHUNKS
    times = np.arange(n, dtype=np.float64) * 10.0
    return [(times, rng.normal(loc=100.0, scale=10.0, size=n))
            for _ in COMPS]


def ingest(store, data, check_budget=False):
    """Append the whole campaign chunk-sized; optionally assert the
    hot-tier bound after every single append."""
    for comp, (times, values) in zip(COMPS, data):
        for i in range(0, len(times), CHUNK):
            store.append(SeriesBatch.for_component(
                METRIC, comp, times[i:i + CHUNK], values[i:i + CHUNK]))
            if check_budget:
                d = store.disk_stats()
                assert d.hot_bytes <= HOT_BYTES, (
                    f"hot tier {d.hot_bytes} B over the "
                    f"{HOT_BYTES} B budget mid-campaign"
                )


def timed_ingest(data, root=None) -> tuple[float, "TimeSeriesStore"]:
    disk = (DiskTier(root, hot_bytes=HOT_BYTES) if root is not None
            else None)
    store = TimeSeriesStore(chunk_size=CHUNK, disk=disk)
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        ingest(store, data)
        store.flush()
        return time.perf_counter() - t0, store
    finally:
        gc.enable()


def timed_downsample_pass(store) -> float:
    """One forced-decompress full-range downsample over every series,
    chunk cache cleared first so every chunk is decoded this pass."""
    store.cache.clear()
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for comp in COMPS:
            store.downsample(METRIC, comp, 0.0, CHUNK * N_CHUNKS * 10.0,
                             600.0, prune=False)
        return time.perf_counter() - t0
    finally:
        gc.enable()


def best_ratio(arm_a, arm_b) -> float:
    """min-over-trials(a) / min-over-trials(b), arm order alternated;
    one warm-up pair runs first so allocator/page-cache state is
    steady.  Minima estimate the true cost under one-sided noise."""
    arm_a(), arm_b()
    a_times, b_times = [], []
    for i in range(TRIALS):
        if i % 2 == 0:
            a, b = arm_a(), arm_b()
        else:
            b, a = arm_b(), arm_a()
        a_times.append(a)
        b_times.append(b)
    return min(a_times) / min(b_times)


class TestOutOfCoreOverhead:
    def test_ingest_overhead_under_cap(self):
        data = workload()
        best = float("inf")
        for attempt in range(ATTEMPTS):
            with tempfile.TemporaryDirectory() as d:
                droot = Path(d)
                runs = [0]

                def disk_arm():
                    # fresh dir per run; close immediately (outside the
                    # timed window) so tiers never accumulate and the
                    # two arms see the same heap pressure
                    sub = droot / f"t{runs[0]}"
                    runs[0] += 1
                    dt, store = timed_ingest(data, root=sub)
                    store.disk.close()
                    return dt

                def mem_arm():
                    dt, _ = timed_ingest(data)
                    return dt

                ratio = best_ratio(disk_arm, mem_arm)
            best = min(best, ratio)
            print(f"\ningest {N_SERIES * CHUNK * N_CHUNKS} samples: "
                  f"disk/memory ratio {ratio:.3f} "
                  f"(attempt {attempt + 1})")
            if best <= 1.0 + MAX_INGEST_OVERHEAD:
                break
        assert best <= 1.0 + MAX_INGEST_OVERHEAD, (
            f"WAL+segment ingest {best:.2f}x in-memory, over the "
            f"{1.0 + MAX_INGEST_OVERHEAD:.2f}x cap in {ATTEMPTS} "
            f"attempts"
        )

    def test_hot_tier_holds_budget_at_10x_sealed(self):
        data = workload()
        with tempfile.TemporaryDirectory() as d:
            store = TimeSeriesStore(
                chunk_size=CHUNK, disk=DiskTier(Path(d),
                                                hot_bytes=HOT_BYTES))
            ingest(store, data, check_budget=True)
            store.flush()
            d_ = store.disk_stats()
            sealed_on_disk = d_.disk_bytes - d_.wal_bytes
            # the campaign was genuinely out-of-core: sealed segment
            # bytes dwarf the budget, and the bound held per-append
            assert sealed_on_disk >= SPILL_FACTOR * HOT_BYTES, (
                f"campaign sealed only {sealed_on_disk} B, under "
                f"{SPILL_FACTOR}x the {HOT_BYTES} B budget — resize "
                f"the workload"
            )
            assert d_.hot_bytes <= HOT_BYTES
            assert d_.spills > 0
            store.disk.close()

    def test_warm_mmap_read_within_ratio(self):
        data = workload()
        best = float("inf")
        for attempt in range(ATTEMPTS):
            with tempfile.TemporaryDirectory() as d:
                _, spilled = timed_ingest(data, root=Path(d))
                _, memory = timed_ingest(data)
                # answers must match bit-exactly before timing counts
                for comp in (COMPS[0], COMPS[-1]):
                    g = spilled.query(METRIC, comp)
                    w = memory.query(METRIC, comp)
                    assert np.array_equal(g.times, w.times)
                    assert np.array_equal(
                        g.values.view(np.uint64),
                        w.values.view(np.uint64))
                timed_downsample_pass(spilled)   # establish the maps
                ratio = best_ratio(
                    lambda: timed_downsample_pass(spilled),
                    lambda: timed_downsample_pass(memory),
                )
                spilled.disk.close()
            best = min(best, ratio)
            print(f"\nwarm mmap downsample: spilled/memory ratio "
                  f"{ratio:.3f} (attempt {attempt + 1})")
            if best <= MAX_READ_RATIO:
                break
        assert best <= MAX_READ_RATIO, (
            f"mmap-backed downsample {best:.2f}x the in-memory store, "
            f"over the {MAX_READ_RATIO:.1f}x cap in {ATTEMPTS} attempts"
        )

    def test_bench_warm_mmap_downsample(self, benchmark):
        data = workload()
        with tempfile.TemporaryDirectory() as d:
            _, spilled = timed_ingest(data, root=Path(d))
            timed_downsample_pass(spilled)       # establish the maps
            benchmark(timed_downsample_pass, spilled)
            samples = N_SERIES * CHUNK * N_CHUNKS
            benchmark.extra_info["samples_per_s"] = (
                samples / benchmark.stats.stats.mean
            )
            spilled.disk.close()
