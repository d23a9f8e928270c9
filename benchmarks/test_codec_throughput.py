"""Throughput of the vectorized storage data plane vs its references.

Three surfaces, each with a pytest-benchmark fixture (trends are
tracked by ``bench/``'s ``storage.compress_us_per_chunk`` and
``storage.decode_us_per_chunk``) plus hard speedup floors measured against the retained scalar codec:

* seal (compress) MB/s and decompress MB/s on noisy-power chunks,
* the combined seal+decompress path, asserted >= 10x the ``_slow``
  scalar reference,
* a summary-served warm ``downsample`` vs the cold decompress path at
  chunk_size=512 over 100 sealed chunks, asserted >= 5x.
"""

import time

import numpy as np
import pytest

from repro.core.metric import SeriesBatch
from repro.storage.chunkcache import ChunkCache
from repro.storage.tsdb import (
    TimeSeriesStore,
    _compress_chunk_slow,
    _decompress_chunk_slow,
    _xor_token_lens,
    compress_chunk,
    decompress_chunk,
)

N = 4096                       # production-sized chunk for codec floors
TIMES = np.arange(N) * 60.0
VALUES = np.random.default_rng(5).normal(250.0, 15.0, N)
BLOB = compress_chunk(TIMES, VALUES)
HINT = _xor_token_lens(VALUES)
RAW_MB = N * 16 / 1e6          # float64 time + float64 value per sample


def best_of(fn, repeats=7):
    """Minimum wall time over several runs (noise-robust point estimate)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


class TestCodecThroughput:
    def test_bench_seal(self, benchmark):
        blob = benchmark(compress_chunk, TIMES, VALUES)
        assert blob == BLOB
        benchmark.extra_info["MB_per_s"] = RAW_MB / benchmark.stats.stats.mean

    def test_bench_decompress(self, benchmark):
        t, v = benchmark(decompress_chunk, BLOB, HINT)
        assert np.array_equal(v, VALUES)
        benchmark.extra_info["MB_per_s"] = RAW_MB / benchmark.stats.stats.mean

    def test_vectorized_beats_slow_by_10x(self):
        slow = (best_of(lambda: _compress_chunk_slow(TIMES, VALUES))
                + best_of(lambda: _decompress_chunk_slow(BLOB)))
        fast = (best_of(lambda: compress_chunk(TIMES, VALUES))
                + best_of(lambda: decompress_chunk(BLOB, HINT)))
        speedup = slow / fast
        print(f"\nseal+decompress {N}-sample chunk: scalar {slow * 1e3:.2f} ms"
              f" -> vectorized {fast * 1e3:.3f} ms ({speedup:.1f}x)")
        assert speedup >= 10.0


def make_store(chunk_size=512, chunks=100):
    """A store with ``chunks`` sealed chunks of noisy telemetry and the
    read cache disabled, so prune=False really decompresses every time."""
    store = TimeSeriesStore(chunk_size=chunk_size,
                            cache=ChunkCache(max_bytes=0))
    n = chunk_size * chunks
    t = np.arange(n) * 60.0
    v = np.random.default_rng(9).normal(250.0, 15.0, n)
    comps = np.full(n, "node0")
    store.append(SeriesBatch("node.power_w", comps, t, v))
    store.flush()
    return store, float(n * 60.0)


class TestDownsamplePruning:
    # bucket step = 2 chunk spans, so almost every chunk is answered
    # from its seal-time summary on the warm path
    STEP = 512 * 60.0 * 2

    def test_bench_downsample_cold(self, benchmark):
        store, span = make_store()
        out = benchmark(store.downsample, "node.power_w", "node0",
                        0.0, span, self.STEP, "mean", False)
        assert len(out)

    def test_bench_downsample_warm(self, benchmark):
        store, span = make_store()
        out = benchmark(store.downsample, "node.power_w", "node0",
                        0.0, span, self.STEP, "mean", True)
        assert len(out)

    def test_warm_beats_cold_by_5x(self):
        store, span = make_store()
        cold = best_of(lambda: store.downsample(
            "node.power_w", "node0", 0.0, span, self.STEP, "mean",
            prune=False))
        warm = best_of(lambda: store.downsample(
            "node.power_w", "node0", 0.0, span, self.STEP, "mean",
            prune=True))
        speedup = cold / warm
        print(f"\ndownsample 100x512-sample chunks: cold {cold * 1e3:.2f} ms"
              f" -> warm {warm * 1e3:.3f} ms ({speedup:.1f}x)")
        assert speedup >= 5.0
        # and both paths agree on the answer
        a = store.downsample("node.power_w", "node0", 0.0, span, self.STEP,
                             "mean", prune=False)
        b = store.downsample("node.power_w", "node0", 0.0, span, self.STEP,
                             "mean", prune=True)
        assert np.array_equal(a.times, b.times)
        assert np.allclose(a.values, b.values, rtol=1e-9)


class TestColumnarIngest:
    def test_bench_ingest_sweep(self, benchmark):
        """One 4096-component sweep per iteration (columnar append)."""
        t = [0.0]

        def ingest(store):
            t[0] += 60.0
            store.append(SeriesBatch.sweep(
                "node.power_w", t[0],
                [f"n{i}" for i in range(4096)],
                np.random.default_rng(1).normal(250.0, 15.0, 4096),
            ))

        store = TimeSeriesStore(chunk_size=512)
        benchmark(ingest, store)
        assert store.stats().samples > 0


if __name__ == "__main__":
    pytest.main([__file__, "-v", "-s"])
