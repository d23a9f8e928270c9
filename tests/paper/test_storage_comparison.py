"""Storage-technology comparison (Section IV-C's qualitative claims, measured).

The paper: SQL stores are convenient but "lack scalability with respect
to ingest"; InfluxDB was chosen "for its superior data compression and
query performance for high-volume time series data"; Splunk-style
indexing costs storage proportional to the data indexed.  We ingest the
same synthetic telemetry into our three store classes and compare
what they hold and answer, and their footprint.
"""

import numpy as np
import pytest

from repro.core.events import Event, EventKind, Severity
from repro.core.metric import SeriesBatch
from repro.storage.logstore import LogStore
from repro.storage.sqlstore import SqlStore
from repro.storage.tsdb import TimeSeriesStore

N_COMPONENTS = 64
N_SWEEPS = 200


def make_batches(seed=0):
    rng = np.random.default_rng(seed)
    comps = [f"c0-0c0s{i // 4}n{i % 4}" for i in range(N_COMPONENTS)]
    return [
        SeriesBatch.sweep("node.power_w", t * 60.0, comps,
                          rng.normal(250, 20, N_COMPONENTS))
        for t in range(N_SWEEPS)
    ]


@pytest.fixture(scope="module")
def batches():
    return make_batches()


class TestIngest:
    def test_bench_tsdb_ingest(self, batches):
        def ingest():
            store = TimeSeriesStore()
            for b in batches:
                store.append(b)
            return store

        store = ingest()
        assert store.stats().samples == N_COMPONENTS * N_SWEEPS

    def test_bench_sql_ingest(self, batches):
        def ingest():
            store = SqlStore()
            for b in batches:
                store.append(b)
            store.commit()
            return store

        store = ingest()
        assert store.sample_count() == N_COMPONENTS * N_SWEEPS
        store.close()


class TestQuery:
    @pytest.fixture(scope="class")
    def loaded(self, batches):
        tsdb = TimeSeriesStore()
        sql = SqlStore()
        for b in batches:
            tsdb.append(b)
            sql.append(b)
        sql.commit()
        return tsdb, sql

    def test_bench_tsdb_range_query(self, loaded):
        tsdb, _ = loaded
        comp = "c0-0c0s3n1"
        out = tsdb.query("node.power_w", comp, 3000.0, 9000.0)
        assert len(out) == 100

    def test_bench_sql_range_query(self, loaded):
        _, sql = loaded
        comp = "c0-0c0s3n1"
        out = sql.query("node.power_w", comp, 3000.0, 9000.0)
        assert len(out) == 100

    def test_results_agree_across_backends(self, loaded):
        tsdb, sql = loaded
        a = tsdb.query("node.power_w", "c0-0c0s0n0", 0.0, 1e9)
        b = sql.query("node.power_w", "c0-0c0s0n0", 0.0, 1e9)
        assert np.allclose(a.values, b.values)
        assert np.allclose(a.times, b.times)


class TestFootprint:
    def test_report_footprints(self, batches):
        tsdb = TimeSeriesStore()
        sql = SqlStore()
        logs = LogStore()
        rng = np.random.default_rng(1)
        for b in batches:
            tsdb.append(b)
            sql.append(b)
        sql.commit()
        tsdb.flush()
        # equivalent event volume into the log store
        for i in range(N_SWEEPS * 4):
            logs.append(Event(
                i * 15.0, f"n{i % N_COMPONENTS}", EventKind.CONSOLE,
                Severity.INFO,
                f"service heartbeat seq {i} latency {rng.integers(1, 99)}ms",
            ))
        n = N_COMPONENTS * N_SWEEPS
        t = tsdb.stats()
        print(f"\nfootprint for {n} samples "
              f"(+{len(logs)} log events):")
        print(f"  tsdb      : {t.compressed_bytes:9d} B "
              f"({t.compressed_bytes / n:5.1f} B/sample, "
              f"{t.compression_ratio:.1f}x vs raw)")
        sql_b = sql.footprint_bytes()
        print(f"  sqlstore  : {sql_b:9d} B ({sql_b / n:5.1f} B/sample)")
        raw_b = logs.raw_bytes()
        idx_b = logs.index_bytes()
        print(f"  logstore  : raw {raw_b} B + index {idx_b} B "
              f"({100 * idx_b / raw_b:.0f}% indexing overhead — the "
              f"Splunk pricing axis)")
        assert t.compressed_bytes < sql_b, \
            "the TSDB must beat the relational store on footprint"
        sql.close()
