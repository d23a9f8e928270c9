"""Property-based tests: the instant read (``latest``) against the raw read.

``latest`` answers each series' newest sample in a window from open heads
and chunk summaries; what it must answer is the last sample of that
series' ``query_components`` answer, bit for bit, whatever the store went
through: lock-step and ragged blocks, late samples across a seal, equal
times in chunks and head, non-finite and signed-zero values, dropped and
recreated series, a restart over the disk tier, a failed shard.
"""

import math
import tempfile
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.metric import SeriesBatch
from repro.storage.diskier import DiskTier
from repro.storage.sharded import ShardedTimeSeriesStore
from repro.storage.tsdb import TimeSeriesStore

exact_values = st.one_of(
    st.integers(min_value=-(1 << 30), max_value=1 << 30).map(float),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), 0.0, -0.0]),
)
#: a coarse grid on the codec's millisecond resolution, so that samples of
#: chunks and heads collide in time, plus a signed zero
grid_times = st.one_of(st.integers(min_value=0, max_value=60).map(
    lambda k: k / 4), st.just(-0.0))
MEMBERS = list("abcdef")


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def _open(kind, chunk_size, workdir, hot_bytes):
    if kind == "sharded":
        return ShardedTimeSeriesStore(shards=4, chunk_size=chunk_size)
    if kind == "sharded-durable":
        return ShardedTimeSeriesStore(shards=4, chunk_size=chunk_size,
                                      disk_dir=workdir, hot_bytes=hot_bytes)
    return TimeSeriesStore(
        chunk_size=chunk_size,
        disk=(DiskTier(workdir, hot_bytes=hot_bytes) if kind == "durable"
              else None))


def check_latest(store, draw, rounds):
    sample = st.one_of(grid_times, st.sampled_from(
        [-math.inf, math.inf, float("nan"), 100.0]))
    for _ in range(rounds):
        t0, t1 = draw(sample), draw(sample)    # any order: t0 >= t1 too
        pick = draw(st.one_of(st.none(), st.lists(
            st.sampled_from("abcdefz"), max_size=9)))
        got = store.latest("m", pick, t0, t1)
        raw = store.query_components("m", pick, t0, t1)
        want = [(c, b) for c, b in raw.items() if len(b)]
        assert got.metric == "m"
        assert got.components.tolist() == [c for c, _ in want]
        for col in ("times", "values"):
            tail = [getattr(b, col)[-1:] for _, b in want]
            assert np.array_equal(
                _bits(getattr(got, col)),
                _bits(np.concatenate(tail) if tail else np.empty(0))), col


class TestLatestIsTheRawAnswersLastSample:
    @given(kind=st.sampled_from(["plain", "sharded", "durable",
                                 "sharded-durable"]),
           chunk_size=st.integers(min_value=2, max_value=6),
           hot_bytes=st.sampled_from([0, 1 << 20]), data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_any_history(self, kind, chunk_size, hot_bytes, data):
        draw = data.draw
        with tempfile.TemporaryDirectory() as d:
            store = _open(kind, chunk_size, d, hot_bytes)
            now = 0.0
            try:
                for _ in range(draw(st.integers(min_value=1, max_value=30))):
                    op = draw(st.sampled_from(
                        ["sweep"] * 4 + ["again", "subset", "ragged",
                                         "late", "repeat", "flush", "drop",
                                         "reopen", "fail"]))
                    if op == "flush":
                        store.flush()
                    elif op == "drop":      # a later sweep recreates it
                        store.drop_series("m", draw(st.sampled_from(MEMBERS)))
                    elif op == "reopen":
                        if kind.endswith("durable"):
                            if draw(st.booleans()):
                                store.snapshot()
                            store.close()
                            store = store.reopen()
                    elif op == "fail":
                        if kind.startswith("sharded"):
                            i = draw(st.integers(0, 3))
                            if draw(st.booleans()):
                                store.fail_shard(i)
                            else:
                                store.recover_shard(i)
                    else:
                        comps = (MEMBERS if op in ("sweep", "again", "late",
                                                   "ragged")
                                 else draw(st.lists(
                                     st.sampled_from(MEMBERS), min_size=1,
                                     max_size=12, unique=op == "subset")))
                        if op in ("sweep", "again"):  # again: same time
                            now += 0.25 * (op == "sweep")
                            times = [now] * len(comps)
                        elif op in ("late", "subset"):
                            times = [draw(grid_times)] * len(comps)
                        else:   # ragged / repeat: a time per sample
                            times = draw(st.lists(grid_times,
                                                  min_size=len(comps),
                                                  max_size=len(comps)))
                        store.append(SeriesBatch("m", comps, times, draw(
                            st.lists(exact_values, min_size=len(comps),
                                     max_size=len(comps)))))
                    if draw(st.booleans()):          # reads interleave
                        check_latest(store, draw, rounds=1)
                check_latest(store, draw, rounds=4)
            finally:
                store.close()


class TestInstantReadCost:
    """What the instant read touches on a 4,096-row lock-step fleet."""

    @staticmethod
    def fleet(sweeps=40):
        store = TimeSeriesStore(chunk_size=16)
        comps = [f"n{i}" for i in range(4096)]
        rng = np.random.default_rng(3)
        for k in range(sweeps):        # two seals, then 8 open samples
            store.append(SeriesBatch.sweep("m", 10.0 * k, comps,
                                           rng.normal(size=len(comps))))
        return store, store.components("m")

    def test_a_head_answer_probes_no_chunk_and_builds_no_batch_a_series(
            self):
        store, comps = self.fleet()
        want = store.query_components("m")
        before = store.cache_stats()
        with mock.patch.object(SeriesBatch, "__init__",
                               side_effect=AssertionError("a batch built")):
            got = store.latest("m")
        after = store.cache_stats()
        assert (after.hits, after.misses) == (before.hits, before.misses)
        assert got.components.tolist() == comps
        assert np.array_equal(got.times, np.full(len(comps), 390.0))
        assert np.array_equal(got.values,
                              [want[c].values[-1] for c in comps])

    def test_sealed_answers_come_from_summaries_unless_cut(self):
        store, comps = self.fleet()
        raw = store.query_components("m", None, 0.0, 255.0)
        before = store.cache_stats()
        whole = store.latest("m", None, 0.0, 320.0)      # before the head
        mid = store.cache_stats()
        assert (mid.hits, mid.misses) == (before.hits, before.misses)
        assert np.array_equal(whole.times, np.full(len(comps), 310.0))
        cut = store.latest("m", None, 0.0, 255.0)        # cuts seal two
        after = store.cache_stats()
        assert (after.hits + after.misses) - (mid.hits + mid.misses) == len(
            comps)
        assert np.array_equal(cut.times, np.full(len(comps), 250.0))
        assert np.array_equal(_bits(cut.values),
                              _bits([raw[c].values[-1] for c in comps]))
