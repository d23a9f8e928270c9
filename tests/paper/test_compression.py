"""TSDB compression characterization on realistic telemetry shapes.

ALCF "chose InfluxDB for its superior data compression ... for
high-volume time series data".  We measure the Gorilla-style codec's
ratio (its speed is ``bench/``'s ``storage.compress_us_per_chunk``) on
the telemetry shapes the stack actually produces:
constant gauges, slowly drifting temperatures, noisy power, step
functions, and cumulative counters.
"""

import numpy as np
import pytest

from repro.storage.tsdb import compress_chunk, decompress_chunk

N = 512
TIMES = np.arange(N) * 60.0    # synchronized one-minute sweeps

SHAPES = {
    "constant gauge": np.full(N, 230.0),
    "drifting temp": 35.0 + np.cumsum(
        np.random.default_rng(0).normal(0, 0.02, N)),
    "noisy power": np.random.default_rng(1).normal(250.0, 15.0, N),
    "step function": np.where(np.arange(N) < N // 2, 95.0, 330.0),
    "cumulative counter": np.cumsum(
        np.random.default_rng(2).integers(1000, 1100, N)).astype(float),
}


class TestCompressionRatios:
    def test_report_ratios_per_shape(self):
        print(f"\ncodec ratios on {N}-sample one-minute chunks "
              f"(raw = 16 B/sample):")
        ratios = {}
        for name, values in SHAPES.items():
            blob = compress_chunk(TIMES, values)
            ratio = (N * 16) / len(blob)
            ratios[name] = ratio
            print(f"  {name:20} {len(blob):6d} B  "
                  f"({len(blob) / N:5.2f} B/sample, {ratio:5.1f}x)")
        # regular timestamps + repeated values compress hardest
        assert ratios["constant gauge"] > 6.0
        # even the worst realistic shape must not expand
        assert min(ratios.values()) >= 1.0

    @pytest.mark.parametrize("name", list(SHAPES))
    def test_lossless_round_trip(self, name):
        values = SHAPES[name]
        t, v = decompress_chunk(compress_chunk(TIMES, values))
        assert np.array_equal(v, values)
        assert np.allclose(t, TIMES, atol=5e-4)


class TestCodecSpeed:
    def test_bench_compress(self):
        values = SHAPES["noisy power"]
        blob = compress_chunk(TIMES, values)
        assert blob

    def test_bench_decompress(self):
        blob = compress_chunk(TIMES, SHAPES["noisy power"])
        t, v = decompress_chunk(blob)
        assert len(v) == N
