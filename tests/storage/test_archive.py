"""Hierarchical storage (Table I: archive, locate, reload) as a policy
over the disk tier: ``archive_before`` demotes sealed chunks by age,
``locate_archived`` names the spans and segment refs of what is cold,
and every read reloads through the segment mmap."""

import pytest

from repro.core.metric import SeriesBatch
from repro.storage.diskier import ChunkRef, DiskTier
from repro.storage.sharded import ShardedTimeSeriesStore
from repro.storage.tsdb import TimeSeriesStore

T_CUT = 3000.0


def fill(store, n=100, comp="a"):
    for i in range(n):
        store.append(
            SeriesBatch.sweep("m", i * 60.0, [comp], [float(i)])
        )


def bits(batch):
    return batch.times.tobytes(), batch.values.tobytes()


@pytest.fixture(params=["plain", "sharded"])
def tiered(request, tmp_path):
    """A disk-backed store (plain, or 4 shards) holding series ``a``."""
    if request.param == "plain":
        t = TimeSeriesStore(chunk_size=16, disk=DiskTier(tmp_path))
    else:
        t = ShardedTimeSeriesStore(shards=4, chunk_size=16,
                                   disk_dir=str(tmp_path))
    fill(t)
    yield t
    t.close()


def recover(store):
    """Snapshot, power-loss crash, and recovery of either store shape."""
    store.snapshot()
    store.simulate_crash()
    return store.reopen()


class TestArchive:
    def test_archive_moves_old_chunks(self, tiered):
        hot_before = tiered.disk_stats().hot_bytes
        moved = tiered.archive_before(T_CUT)
        assert moved > 0
        assert tiered.locate_archived("m", "a")
        # the hot tier no longer holds the archived span's bytes
        assert tiered.disk_stats().hot_bytes < hot_before
        assert tiered.disk_stats().spills == moved

    def test_archive_is_idempotent(self, tiered):
        tiered.archive_before(T_CUT)
        assert tiered.archive_before(T_CUT) == 0

    def test_catalog_tracks_spans(self, tiered):
        tiered.archive_before(T_CUT)
        located = tiered.locate_archived("m", "a")
        assert located
        assert all(hi < T_CUT for (_, hi), _ in located)
        assert all(isinstance(ref, ChunkRef) for _, ref in located)
        assert tiered.locate_archived("m", "no-such-series") == []

    def test_cold_bytes_positive(self, tiered):
        tiered.archive_before(T_CUT)
        located = tiered.locate_archived("m", "a")
        assert sum(ref.length for _, ref in located) > 0
        assert tiered.disk_stats().disk_bytes > 0

    def test_archive_changes_no_count_or_epoch(self, tiered):
        before, epoch = tiered.stats(), tiered.query_epoch("m")
        tiered.archive_before(T_CUT)
        assert tiered.stats() == before
        assert tiered.query_epoch("m") == epoch

    def test_archive_without_disk_tier_raises(self):
        # every disk-only verb refuses an in-memory store of either
        # shape, rather than reporting work that never happened
        for store in (TimeSeriesStore(chunk_size=16),
                      ShardedTimeSeriesStore(shards=4)):
            fill(store, n=20)
            for verb, args in (("archive_before", (T_CUT,)),
                               ("snapshot", ()), ("simulate_crash", ())):
                with pytest.raises(RuntimeError,
                                   match=rf"{verb}\(\) requires a disk tier"):
                    getattr(store, verb)(*args)


class TestReload:
    def test_transparent_query_reloads(self, tiered):
        tiered.archive_before(T_CUT)
        out = tiered.query("m", "a", 0.0, 6000.0)
        assert len(out) == 100
        assert list(out.values) == [float(i) for i in range(100)]
        assert tiered.disk_stats().loads == len(
            tiered.locate_archived("m", "a"))

    def test_query_outside_cold_span_no_reload(self, tiered):
        tiered.archive_before(1000.0)
        tiered.query("m", "a", 5000.0, 6000.0)
        assert tiered.disk_stats().loads == 0

    def test_reload_leaves_the_catalog_alone(self, tiered):
        # a reload maps the segment, it does not promote: the chunk
        # stays located where it was, and the next read finds it again
        tiered.archive_before(T_CUT)
        located = tiered.locate_archived("m", "a")
        tiered.query("m", "a", 0.0, T_CUT)
        assert tiered.locate_archived("m", "a") == located

    def test_data_identical_after_archive_reload_cycle(self, tiered):
        before = tiered.query("m", "a")
        tiered.archive_before(T_CUT)
        tiered.cache.clear()
        after = tiered.query("m", "a")
        assert bits(before) == bits(after)

    def test_archive_survives_snapshot_crash_recover(self, tiered):
        before = tiered.query("m", "a")
        tiered.archive_before(T_CUT)
        located = tiered.locate_archived("m", "a")
        recovered = recover(tiered)
        try:
            # recovery brings every chunk back ref-only, so what was
            # located stays located, at the very same segment refs
            after = recovered.locate_archived("m", "a")
            assert [row for row in after if row[0][1] < T_CUT] == located
            assert bits(recovered.query("m", "a")) == bits(before)
        finally:
            recovered.close()


class TestManySeries:
    def test_multiple_series_archived_separately(self, tiered):
        fill(tiered, n=50, comp="b")
        tiered.archive_before(T_CUT)
        a = tiered.locate_archived("m", "a")
        b = tiered.locate_archived("m", "b")
        assert a and b
        # reading a back must not disturb b's cold data
        loads = tiered.disk_stats().loads
        tiered.query("m", "a", 0.0, 6000.0)
        assert tiered.disk_stats().loads == loads + len(a)
        assert tiered.locate_archived("m", "b") == b

    def test_untouched_series_stay_resident(self, tiered):
        # series c only has data after the cut: nothing of it archives
        for i in range(60, 100):
            tiered.append(SeriesBatch.sweep("m", i * 60.0, ["c"],
                                            [float(i)]))
        tiered.archive_before(T_CUT)
        assert tiered.locate_archived("m", "a")
        assert tiered.locate_archived("m", "c") == []
        assert len(tiered.query("m", "c")) == 40
