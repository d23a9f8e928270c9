"""Unit tests for the out-of-core disk tier (spill, WAL, recovery)."""

import gc
import os
import pickle

import numpy as np
import pytest

from repro.core.metric import SeriesBatch
from repro.core.soa import name_column
from repro.storage.diskier import (
    DiskTier,
    DiskTierStats,
    RecoveryReport,
    _scan_segment,
    merge_disk_stats,
)
from repro.storage.sharded import ShardedTimeSeriesStore
from repro.storage.tsdb import TimeSeriesStore


def sweep(metric, t, comps, vals):
    return SeriesBatch.sweep(metric, t, comps, vals)


def fill(store, n=400, metrics=("m1", "m2"), comps=("a", "b", "c")):
    rng = np.random.default_rng(7)
    for i in range(n):
        for m in metrics:
            store.append(sweep(m, i * 10.0, list(comps),
                               rng.normal(size=len(comps))))


def disk_store(tmp_path, **kw):
    kw.setdefault("hot_bytes", 1 << 12)
    kw.setdefault("sync_every_bytes", 1 << 12)
    return TimeSeriesStore(chunk_size=16,
                           disk=DiskTier(tmp_path / "tier", **kw))


def open_fds():
    return len(os.listdir("/proc/self/fd"))


class TestHotBudget:
    def test_hot_bytes_never_exceed_budget(self, tmp_path):
        store = disk_store(tmp_path)
        rng = np.random.default_rng(1)
        for i in range(600):
            store.append(sweep("m", i * 10.0, ["a", "b", "c", "d"],
                               rng.normal(size=4)))
            d = store.disk_stats()
            assert d.hot_bytes <= store.disk.hot_bytes
        d = store.disk_stats()
        assert d.spills > 0                   # the budget actually bit
        assert d.disk_bytes > 10 * store.disk.hot_bytes
        store.close()

    def test_spilled_chunks_still_answer_exactly(self, tmp_path):
        store = disk_store(tmp_path)
        oracle = TimeSeriesStore(chunk_size=16)
        fill(store)
        fill(oracle)
        assert store.disk_stats().spills > 0
        for m in ("m1", "m2"):
            for c in ("a", "b", "c"):
                got = store.query(m, c)
                want = oracle.query(m, c)
                assert np.array_equal(got.times, want.times)
                assert np.array_equal(got.values.view(np.uint64),
                                      want.values.view(np.uint64))
                for prune in (False, True):
                    g = store.downsample(m, c, 0.0, 4000.0, 300.0,
                                         prune=prune)
                    w = oracle.downsample(m, c, 0.0, 4000.0, 300.0,
                                          prune=prune)
                    assert np.array_equal(g.times, w.times)
                    assert np.array_equal(g.values, w.values)
        store.close()

    def test_mmap_reads_hit_established_map(self, tmp_path):
        store = disk_store(tmp_path, hot_bytes=1 << 10)
        fill(store, n=300, metrics=("m",), comps=("a",))
        store.cache.clear()
        store.query("m", "a")
        store.cache.clear()
        store.query("m", "a")
        d = store.disk_stats()
        assert d.loads > 0
        assert d.map_hits > 0                 # second pass reused the map
        store.close()


class TestArchiveIsDemotion:
    def test_archive_demotes_with_tier(self, tmp_path):
        store = disk_store(tmp_path, hot_bytes=1 << 20)
        fill(store, n=200, metrics=("m",), comps=("a",))
        oracle = TimeSeriesStore(chunk_size=16)
        fill(oracle, n=200, metrics=("m",), comps=("a",))
        before = store.stats()
        epoch = store.query_epoch("m")
        n = store.archive_before(1000.0)
        assert n > 0
        # demotion, not loss: counts, epoch, and answers all unchanged
        after = store.stats()
        assert after.samples == before.samples
        assert after.sealed_chunks == before.sealed_chunks
        assert store.query_epoch("m") == epoch
        got = store.query("m", "a")
        want = oracle.query("m", "a")
        assert np.array_equal(got.times, want.times)
        assert np.array_equal(got.values.view(np.uint64),
                              want.values.view(np.uint64))
        # a second call finds nothing newly demotable
        assert store.archive_before(1000.0) == 0
        store.close()


class TestSnapshotRecover:
    def test_synced_crash_loses_nothing(self, tmp_path):
        store = disk_store(tmp_path)
        fill(store)
        store.snapshot()
        fill_more = np.random.default_rng(9)
        for i in range(400, 450):
            store.append(sweep("m1", i * 10.0, ["a", "b", "c"],
                               fill_more.normal(size=3)))
        store.flush()                          # fsync everything
        want = {(m, c): store.query(m, c)
                for m in ("m1", "m2") for c in ("a", "b", "c")}
        want_ds = {(m, c, prune): store.downsample(m, c, 0.0, 5000.0,
                                                   300.0, prune=prune)
                   for m in ("m1", "m2") for c in ("a", "b", "c")
                   for prune in (False, True)}
        n_points = store.points_by_metric()
        store.disk.simulate_crash()
        recovered = store.reopen()
        report = recovered.recovery
        assert recovered.points_by_metric() == n_points
        assert report.points == sum(n_points.values())
        for (m, c), w in want.items():
            got = recovered.query(m, c)
            assert np.array_equal(got.times, w.times)
            assert np.array_equal(got.values.view(np.uint64),
                                  w.values.view(np.uint64))
            for prune in (False, True):
                g = recovered.downsample(m, c, 0.0, 5000.0, 300.0,
                                         prune=prune)
                o = want_ds[(m, c, prune)]
                assert np.array_equal(g.times, o.times)
                assert np.array_equal(g.values, o.values)
        recovered.close()

    def test_reopening_a_directory_restores_it(self, tmp_path):
        # a restart is an open like any other: no recovery entry point
        store = disk_store(tmp_path)
        assert store.recovery == RecoveryReport(0, 0, 0, 0, 0, 0, 0, 0)
        assert not (tmp_path / "tier" / "manifest.pkl").exists()
        vals = np.random.default_rng(5).normal(size=151)
        for i in range(100):
            store.append(sweep("m", i * 10.0, ["a"], [vals[i]]))
        store.snapshot()
        for i in range(100, 150):
            store.append(sweep("m", i * 10.0, ["a"], [vals[i]]))
        store.close()

        again = disk_store(tmp_path)
        assert again.recovery.manifest_chunks > 0
        got = again.query("m", "a")
        assert np.array_equal(got.values.view(np.uint64),
                              vals[:150].view(np.uint64))
        again.append(sweep("m", 1500.0, ["a"], [vals[150]]))
        again.snapshot()
        again.close()

        third = disk_store(tmp_path)
        got = third.query("m", "a")
        assert np.array_equal(got.values.view(np.uint64),
                              vals.view(np.uint64))
        third.close()

    def test_unsynced_tail_is_counted_not_silent(self, tmp_path):
        store = disk_store(tmp_path, sync_every_bytes=1 << 30)
        fill(store, n=100, metrics=("m",), comps=("a",))
        store.disk.sync()
        synced = sum(store.points_by_metric().values())
        for i in range(100, 140):              # past the last fsync
            store.append(sweep("m", i * 10.0, ["a"], [float(i)]))
        total = sum(store.points_by_metric().values())
        store.disk.simulate_crash()
        recovered = store.reopen()
        report = recovered.recovery
        back = sum(recovered.points_by_metric().values())
        assert back == synced                  # tail gone...
        assert total - back == 40              # ...but exactly countable
        recovered.close()

    def test_dead_tier_refuses_use(self, tmp_path):
        store = disk_store(tmp_path)
        fill(store, n=50, metrics=("m",), comps=("a",))
        store.disk.simulate_crash()
        with pytest.raises(RuntimeError, match="crashed"):
            store.append(sweep("m", 1e6, ["a"], [1.0]))

    def test_second_recovery_is_manifest_only(self, tmp_path):
        store = disk_store(tmp_path)
        fill(store, n=200, metrics=("m",), comps=("a", "b"))
        store.flush()
        store.disk.simulate_crash()
        r1 = store.reopen()
        # a restoring open ends with a snapshot: a second crash right
        # away recovers purely from the manifest (no scan, no replay)
        r1.disk.simulate_crash()
        r2 = r1.reopen()
        rep2 = r2.recovery
        assert rep2.scanned_chunks == 0
        assert rep2.wal_points_replayed == 0
        assert r2.points_by_metric() == r1.points_by_metric()
        r2.close()

    def test_torn_tails_truncated_and_reported(self, tmp_path):
        store = disk_store(tmp_path, sync_every_bytes=1 << 30)
        fill(store, n=150, metrics=("m",), comps=("a",))
        store.flush()
        store.disk.simulate_crash()
        # corrupt: append garbage half-records past the synced extents
        for pat in ("seg-*.dat", "wal-*.log"):
            for p in (tmp_path / "tier").glob(pat):
                with open(p, "ab") as fh:
                    fh.write(b"SG\x99\x99torn-garbage")
        recovered = store.reopen()
        report = recovered.recovery
        assert report.torn_segment_bytes > 0
        assert report.torn_wal_bytes > 0
        got = recovered.query("m", "a")
        assert len(got) == 150                 # data before the tear intact
        # the tier appends at the truncated boundary, not the torn size:
        # a chunk sealed after the restoring open reads back off disk
        for i in range(150, 170):
            recovered.append(sweep("m", i * 10.0, ["a"], [float(i)]))
        recovered.flush()
        recovered.archive_before(np.inf)
        recovered.cache.clear()
        got = recovered.query("m", "a")
        assert got.values[150:].tolist() == [float(i) for i in range(150, 170)]
        recovered.close()
        last = recovered.reopen()
        assert len(last.query("m", "a")) == 170
        last.close()

    def test_crash_before_first_snapshot_keeps_declared_shape(self, tmp_path):
        # no manifest to learn the shape from: it comes from the caller
        store = TimeSeriesStore(chunk_size=16, pyramid_levels=(10.0, 60.0),
                                disk=DiskTier(tmp_path / "tier"))
        fill(store, n=100, metrics=("m",), comps=("a",))
        store.flush()
        want = store.query("m", "a")
        store.disk.simulate_crash()
        rec = TimeSeriesStore(chunk_size=16, pyramid_levels=(10.0, 60.0),
                              disk=DiskTier(tmp_path / "tier"))
        report = rec.recovery
        assert report.manifest_chunks == 0 and report.scanned_chunks > 0
        assert rec.chunk_size == 16
        assert rec.pyramid_levels == (10.0, 60.0)
        series, _ = rec._series_view("m", "a")
        assert series.pyramid.samples_folded == 100
        got = rec.query("m", "a")
        assert np.array_equal(got.times, want.times)
        assert np.array_equal(got.values.view(np.uint64),
                              want.values.view(np.uint64))
        rec.close()

    @pytest.mark.parametrize("declared", [(32, None), (16, (10.0, 60.0))])
    def test_manifest_disagreeing_with_declared_shape_is_an_error(
            self, tmp_path, declared):
        store = disk_store(tmp_path)
        fill(store, n=50, metrics=("m",), comps=("a",))
        store.snapshot()
        store.close()
        fds = open_fds()
        with pytest.raises(ValueError, match=r"manifest\.pkl.*\(16, \(\)\)"):
            TimeSeriesStore(declared[0], pyramid_levels=declared[1],
                            disk=DiskTier(tmp_path / "tier"))
        # the refused open left no handle behind and nothing disturbed:
        # the right shape still restores everything
        assert open_fds() == fds
        again = store.reopen()
        assert len(again.query("m", "a")) == 50
        again.close()

    @pytest.mark.parametrize("shards", [None, 2])
    def test_block_heads_survive_snapshot_wal_tail_and_crash(self, tmp_path,
                                                             shards):
        # manifest v3 stores each metric's head block; the WAL tail
        # past it replays onto the restored block in lock-step
        if shards is None:
            store = disk_store(tmp_path)
            tiers = [store.disk]
        else:
            store = ShardedTimeSeriesStore(
                shards=shards, chunk_size=16, disk_dir=str(tmp_path),
                hot_bytes=1 << 12, sync_every_bytes=1 << 12)
            tiers = [s.disk for s in store.shards]
        comps = [f"n{i}" for i in range(12)]
        rng = np.random.default_rng(11)
        fill(store, n=40, comps=comps)          # 8 open samples a series
        store.append(sweep("m2", 400.0, comps + ["late"],
                           rng.normal(size=13)))    # m2 goes ragged
        store.snapshot()
        for i in range(41, 46):                 # a 5-tick WAL tail
            for m in ("m1", "m2"):
                store.append(sweep(m, i * 10.0, comps,
                                   rng.normal(size=12)))
        for tier in tiers:
            tier.sync()
        stats = store.stats()
        assert stats.samples - 16 * stats.sealed_chunks == 12 * (13 + 14) + 1
        want = {(k.metric, k.component): store.query(k.metric, k.component)
                for k in store.keys()}
        store.simulate_crash()
        rec = store.reopen()
        assert rec.recovery.wal_points_replayed == 2 * 12 * 5
        assert rec.recovery.scanned_chunks == 0
        # the same bytes held, not only the same points: "m1" came back
        # sharing its time column and "m2" with per-row times
        assert rec.stats() == stats
        for (m, c), w in want.items():
            got = rec.query(m, c)
            assert np.array_equal(got.times, w.times)
            assert np.array_equal(got.values.view(np.uint64),
                                  w.values.view(np.uint64))
        rec.close()

    def test_a_chunk_sealed_past_the_manifest_trims_the_restored_head(
            self, tmp_path):
        # the arrival stream was [restored head | WAL]: a chunk found by
        # the segment scan took the whole restored head plus the first
        # WAL points, and the rest of the WAL lands behind it in order
        store = disk_store(tmp_path)
        comps = ["a", "b", "c"]
        fill(store, n=10, metrics=("m",), comps=comps)
        store.snapshot()
        rng = np.random.default_rng(3)
        for i in range(10, 20):
            store.append(sweep("m", i * 10.0, comps, rng.normal(size=3)))
        store.disk.sync()
        want = {c: store.query("m", c) for c in comps}
        stats = store.stats()
        store.simulate_crash()
        rec = store.reopen()
        r = rec.recovery
        assert (r.scanned_chunks, r.wal_points_skipped,
                r.wal_points_replayed) == (3, 3 * 6, 3 * 4)
        assert rec.stats() == stats
        for c in comps:
            got = rec.query("m", c)
            assert np.array_equal(got.times, want[c].times)
            assert np.array_equal(got.values.view(np.uint64),
                                  want[c].values.view(np.uint64))
        rec.close()

    def test_flush_seals_block_by_block_and_survives_a_crash(self, tmp_path):
        # a lock-step block with two lagging rows, a ragged block and a
        # one-row block: flush writes metric by metric, row by row
        store = disk_store(tmp_path)
        comps = ["a", "b", "c", "d"]
        rng = np.random.default_rng(2)
        for i in range(21):
            store.append(sweep("m1", i * 10.0, comps, rng.normal(size=4)))
            late = comps + (["late"] if i > 17 else [])
            store.append(sweep("m2", i * 10.0, late, rng.normal(size=len(late))))
        store.append(sweep("m1", 210.0, ["a", "c"], [1.0, 2.0]))
        store.append(sweep("m3", 0.0, ["z"], [3.0]))
        before = store.stats().sealed_chunks
        store.flush()
        assert store.stats().sealed_chunks - before == 4 + 5 + 1
        with open(store.disk.root / "seg-000000.dat", "rb") as f:
            records, _ = _scan_segment(f.read(), 0)
        assert [(m, c) for m, c, _, _ in records[before:]] == (
            [("m1", c) for c in comps]
            + [("m2", c) for c in comps + ["late"]] + [("m3", "z")])
        want = {(k.metric, k.component): (
                    store.query(k.metric, k.component),
                    store.downsample(k.metric, k.component, 0.0, 300.0, 60.0),
                    store._series_view(k.metric, k.component)[0].sealed_t_max)
                for k in store.keys()}
        stats = store.stats()
        store.simulate_crash()
        rec = store.reopen()
        assert rec.recovery.scanned_chunks == stats.sealed_chunks
        assert rec.stats() == stats
        for (m, c), (raw, ds, t_max) in want.items():
            got = rec.query(m, c)
            assert np.array_equal(got.times, raw.times)
            assert np.array_equal(got.values.view(np.uint64),
                                  raw.values.view(np.uint64))
            got = rec.downsample(m, c, 0.0, 300.0, 60.0)
            assert np.array_equal(got.times, ds.times)
            assert np.array_equal(got.values, ds.values)
            assert rec._series_view(m, c)[0].sealed_t_max == t_max
        rec.close()                     # a manifest now: t_max from its rows
        again = rec.reopen()
        assert again.recovery.scanned_chunks == 0
        assert all(again._series_view(m, c)[0].sealed_t_max == t_max
                   for (m, c), (_, _, t_max) in want.items())
        again.close()

    def test_a_warm_component_memo_writes_the_same_wal(self, tmp_path):
        # the fleet's one name column hits the memo from the second
        # tick; an equal column rebuilt per tick, or a list, never does
        names = [f"c0-0c0s{i}n0" for i in range(9)]
        column = name_column(names)
        rng = np.random.default_rng(4)
        ticks = [(i * 60.0, rng.normal(size=9)) for i in range(6)]
        logs = []
        for kind in ("column", "rebuilt", "list"):
            tier = DiskTier(tmp_path / kind)
            for t, v in ticks:
                comps = {"column": column, "rebuilt": np.array(names, object),
                         "list": names}[kind]
                tier.wal_append(SeriesBatch("m", comps, np.full(9, t), v))
                tier.wal_append(SeriesBatch("m.one", comps[:1], [t], v[:1]))
            del comps                   # a rebuilt column dies here
            assert len(tier._comp_memo) == (kind == "column")
            tier.close()
            logs.append((tmp_path / kind / "wal-000000.log").read_bytes())
            rec = TimeSeriesStore(chunk_size=16, disk=DiskTier(tmp_path / kind))
            assert rec.recovery.wal_points_replayed == 6 * 10
            assert rec.query("m", names[3]).values.tolist() == [
                v[3] for _, v in ticks]
            rec.close()
        assert logs[0] == logs[1] == logs[2] and len(logs[0]) > 0
        tier = DiskTier(tmp_path / "column")
        tier.wal_append(SeriesBatch("m", column, np.zeros(9), np.zeros(9)))
        assert len(tier._comp_memo) == 1
        del column
        gc.collect()
        assert tier._comp_memo == {}    # the entry dies with the array
        tier.close()

    def test_foreign_manifest_version_is_rejected(self, tmp_path):
        store = disk_store(tmp_path)
        fill(store, n=50, metrics=("m",), comps=("a",))
        path = store.snapshot()
        store.close()
        with open(path, "rb") as f:
            manifest = pickle.load(f)
        assert manifest["version"] == 3
        # the previous build's manifest (per-series head lists) is as
        # foreign as any other: refused, with every handle closed
        with open(path, "wb") as f:
            pickle.dump(dict(manifest, version=2), f)
        fds = open_fds()
        with pytest.raises(ValueError) as err:
            store.reopen()
        msg = str(err.value)
        assert str(path) in msg
        assert "version 2" in msg and "version 3" in msg
        assert open_fds() == fds


class TestSeriesLifecycle:
    def test_drop_series_releases_hot_accounting(self, tmp_path):
        store = disk_store(tmp_path, hot_bytes=1 << 20)
        fill(store, n=200, metrics=("m",), comps=("a", "b"))
        assert store.disk.hot_bytes_used > 0
        store.drop_series("m", "a")
        store.drop_series("m", "b")
        assert store.disk.hot_bytes_used == 0


class TestSharded:
    def test_sharded_crash_recover_round_trip(self, tmp_path):
        sh = ShardedTimeSeriesStore(shards=3, chunk_size=16,
                                    disk_dir=str(tmp_path),
                                    hot_bytes=1 << 12,
                                    sync_every_bytes=1 << 12)
        fill(sh, n=300)
        sh.snapshot()
        fill2 = np.random.default_rng(3)
        for i in range(300, 340):
            sh.append(sweep("m1", i * 10.0, ["a", "b", "c"],
                            fill2.normal(size=3)))
        sh.flush()
        want = {(m, c): sh.query(m, c)
                for m in ("m1", "m2") for c in ("a", "b", "c")}
        sh.simulate_crash()
        rec = sh.reopen()
        report = rec.recovery
        assert report.points == sum(rec.points_by_metric().values())
        for (m, c), w in want.items():
            got = rec.query(m, c)
            assert np.array_equal(got.times, w.times)
            assert np.array_equal(got.values.view(np.uint64),
                                  w.values.view(np.uint64))
        rec.close()

    def test_refused_opens_are_loud_and_leave_the_directory_whole(
            self, tmp_path):
        sh = ShardedTimeSeriesStore(shards=4, chunk_size=16,
                                    disk_dir=str(tmp_path))
        fill(sh, n=100)
        sh.snapshot()
        n_points = sh.points_by_metric()
        sh.close()
        fds = open_fds()
        # series route by CRC mod K: another K would lose half of them
        with pytest.raises(ValueError, match=r"holds 4 shard.*declares 2"):
            ShardedTimeSeriesStore(shards=2, chunk_size=16,
                                   disk_dir=str(tmp_path))
        # shard 0 restores before shard 1 refuses: every tier closes
        manifest = tmp_path / "shard-1" / "manifest.pkl"
        good = manifest.read_bytes()
        manifest.write_bytes(pickle.dumps({"version": 1}))
        with pytest.raises(ValueError, match="version 1"):
            sh.reopen()
        assert open_fds() == fds
        manifest.write_bytes(good)
        again = sh.reopen()
        assert again.recovery.manifest_chunks > 0
        assert again.points_by_metric() == n_points
        again.close()

    def test_merged_disk_stats(self, tmp_path):
        sh = ShardedTimeSeriesStore(shards=3, chunk_size=16,
                                    disk_dir=str(tmp_path),
                                    hot_bytes=1 << 12)
        fill(sh, n=200)
        merged = sh.disk_stats()
        per = [s.disk_stats() for s in sh.shards]
        assert merged.disk_bytes == sum(p.disk_bytes for p in per)
        assert merged.spills == sum(p.spills for p in per)
        sh.close()

    def test_in_memory_sharded_has_no_disk_stats(self):
        sh = ShardedTimeSeriesStore(shards=2, chunk_size=16)
        assert sh.disk_stats() is None


class TestStatsPlumbing:
    def test_merge_disk_stats_fieldwise(self):
        a = DiskTierStats(1, 10, 5, 3, 2, 1, 1, 1, 1, 1, 1)
        b = DiskTierStats(2, 20, 5, 4, 2, 2, 2, 2, 2, 2, 2)
        m = merge_disk_stats([a, b])
        assert m.segments == 3 and m.disk_bytes == 30
        assert m.spills == 3 and m.wal_syncs == 3

    def test_recovery_report_merge(self):
        a = RecoveryReport(1, 100, 2, 3, 4, 5, 6, 7)
        b = RecoveryReport(1, 50, 1, 1, 1, 1, 1, 1)
        m = a.merged(b)
        assert m.points == 150 and m.series == 2
        assert m.torn_wal_bytes == 8

    def test_in_memory_store_has_no_disk_stats(self):
        assert TimeSeriesStore(chunk_size=16).disk_stats() is None
        with pytest.raises(RuntimeError):
            TimeSeriesStore(chunk_size=16).snapshot()


class TestTierResume:
    def test_reopen_appends_to_existing_segments(self, tmp_path):
        store = disk_store(tmp_path)
        fill(store, n=100, metrics=("m",), comps=("a",))
        store.flush()
        before = store.disk_stats()
        seg_bytes = before.disk_bytes - before.wal_bytes
        store.close()
        tier = DiskTier(tmp_path / "tier", hot_bytes=1 << 12,
                        sync_every_bytes=1 << 12)
        after = tier.stats()
        # segments reopened at full size; the WAL starts a fresh gen
        assert after.disk_bytes - after.wal_bytes == seg_bytes
        tier.close()
