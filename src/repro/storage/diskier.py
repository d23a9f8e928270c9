"""Out-of-core disk tier: chunk segments, a WAL, and restore-on-open.

The stores in this repro were RAM-resident, capping campaign length at
memory size.  This module adds the backend the paper's sites actually
run (DCDB and the MPCDF stack both persist sensor data behind a hot
cache): an append-only on-disk tier under
:class:`~repro.storage.tsdb.TimeSeriesStore` with three moving parts:

* **Segment files** (``seg-NNNNNN.dat``): sealing a chunk appends its
  compressed blob to the active segment as a self-describing record
  (magic + lengths + crc32 + metric/component + blob).  Sealed chunks
  are immutable byte blobs, so the copy on disk is exact forever.
* **Hot tier**: resident blobs are LRU-tracked against a ``hot_bytes``
  budget.  When the budget is exceeded the coldest sealed blobs are
  *spilled* — the chunk's record keeps its :class:`ChunkRef`
  ``(segment, offset, len)`` and drops the bytes; the store's
  ``archive_before`` demotes by age through the same step
  (:meth:`DiskTier.demote`).  Spilled reads mmap
  the segment and decode straight from the mapped buffer (the
  vectorized codec accepts any buffer; no intermediate copy), with
  decompressed arrays still served through the shared
  :class:`~repro.storage.chunkcache.ChunkCache`.
* **WAL** (``wal-NNNNNN.log``): every appended batch is logged before
  it reaches a head chunk, so unsealed heads survive a crash.  Both
  WAL and segments are fsync-batched: durability advances at
  ``sync_every_bytes`` boundaries, and anything past the last sync is
  *accounted loss* after a crash (the ledger names it), never silence.

``snapshot()`` writes a manifest (segment extents, per-series chunk
index, head samples, and serialized pyramid partials so rollups do not
refold from a full decompress) and rotates the WAL.  Constructing a
store over a tier *is* recovery (:meth:`DiskTier.restore`): manifest +
segment scan + WAL replay, deduplicating the overlap exactly by
per-series arrival counts — a restart and a crash recovery are the same
open, and ``store.recovery`` says what it found.

File-handle lifetime is auditable by construction: every long-lived
``open()``/``mmap`` in this package is either context-managed or
registered with the owning tier's :class:`_HandleRegistry` (the
``check_fd_lifetime`` lint gate enforces this).
"""

from __future__ import annotations

import mmap
import os
import pickle
import struct
import zlib
from collections import OrderedDict
from dataclasses import astuple, dataclass, fields
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from ..core.metric import MetricKey, SeriesBatch
from ..core.soa import memo_by_identity

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycle
    from .tsdb import SealedChunk, TimeSeriesStore, _Series

__all__ = [
    "ChunkRef",
    "DiskTier",
    "DiskTierStats",
    "RecoveryReport",
    "merge_disk_stats",
]


# record framing ------------------------------------------------------------
#
# segment record: magic, metric_len, comp_len, blob_len, crc32 over
# (metric + comp + blob); the ChunkRef offset points at the blob itself
# so mmap reads land on the compressed bytes directly.
_SEG_HDR = struct.Struct("<2sHHII")
_SEG_MAGIC = b"SG"
# wal record: magic, payload_len, crc32(payload)
_WAL_HDR = struct.Struct("<2sII")
_WAL_MAGIC = b"WL"

_MANIFEST = "manifest.pkl"
#: bumped whenever the manifest payload changes shape; recovery refuses
#: any other version rather than misreading it (2: one
#: ``(summary, hint, ref)`` row per chunk replaced v1's parallel lists;
#: 3: open heads are one block per metric, not two lists per series)
_MANIFEST_VERSION = 3


@dataclass(frozen=True, slots=True)
class ChunkRef:
    """Location of one sealed chunk's blob inside a segment file."""

    segment: int
    offset: int
    length: int


@dataclass(frozen=True, slots=True)
class DiskTierStats:
    """Counters of one disk tier (merged across shards by
    :func:`merge_disk_stats`; the selfmon plane samples these)."""

    segments: int
    disk_bytes: int        # segment file bytes + wal bytes
    wal_bytes: int
    hot_bytes: int         # resident sealed-blob bytes (the budget bound)
    hot_chunks: int
    spills: int            # blobs demoted to ref-only (budget + eviction)
    loads: int             # spilled-chunk reads served from mmap
    map_hits: int          # loads served by an already-live mapping
    remaps: int
    wal_records: int
    wal_syncs: int


def merge_disk_stats(parts: Iterable[DiskTierStats]) -> DiskTierStats:
    """Field-wise sum (per-shard tiers -> one store-level view)."""
    parts = list(parts)
    return DiskTierStats(*(sum(getattr(p, f.name) for p in parts)
                           for f in fields(DiskTierStats)))


class _HandleRegistry:
    """The single owner of every long-lived file object and mmap.

    The ``check_fd_lifetime`` lint gate requires each ``open()``/
    ``mmap.mmap()`` in ``src/repro/storage`` to be context-managed or
    carry a ``# handle-owner:`` marker naming its registry; adopted
    handles all die in :meth:`close_all`, the one teardown point
    (``close()`` and ``simulate_crash()`` both route through it).
    """

    __slots__ = ("_handles",)

    def __init__(self) -> None:
        self._handles: list = []

    def adopt(self, handle):
        self._handles.append(handle)
        return handle

    def release(self, handle) -> None:
        """Close one handle now and forget it."""
        try:
            self._handles.remove(handle)
        except ValueError:
            pass
        try:
            handle.close()
        except (OSError, ValueError, BufferError):
            pass

    def close_all(self) -> None:
        while self._handles:
            try:
                self._handles.pop().close()
            except (OSError, ValueError, BufferError):
                pass  # a still-exported mmap is freed when its views die


class _Segment:
    """One append-only segment file plus its (lazy) read mapping."""

    __slots__ = ("seg_id", "path", "writer", "reader", "map", "mapped",
                 "size", "synced")

    def __init__(self, seg_id: int, path: Path) -> None:
        self.seg_id = seg_id
        self.path = path
        self.writer = None
        self.reader = None
        self.map: mmap.mmap | None = None
        self.mapped = 0                      # bytes covered by self.map
        self.size = path.stat().st_size if path.exists() else 0
        self.synced = self.size              # on-disk bytes known durable


class _Wal:
    """One write-ahead-log generation (append-only, length+crc framed)."""

    __slots__ = ("gen", "path", "writer", "size", "synced", "records",
                 "syncs")

    def __init__(self, gen: int, path: Path) -> None:
        self.gen = gen
        self.path = path
        self.writer = None
        self.size = 0
        self.synced = 0
        self.records = 0
        self.syncs = 0


#: wal frame mode byte: which columns are stored once, not per element
_WAL_ONE_COMP, _WAL_ONE_TIME = 1, 2


def _encode_wal_batch(metric: str, comps: Sequence, times: np.ndarray,
                      values: np.ndarray, memo: dict | None = None) -> bytes:
    """Frame one batch.  A uniform component (the series-chunk ingest
    shape, where per-element encoding would dominate the whole WAL
    cost) and a uniform time (the synchronized sweep) are each stored
    once and flagged in the mode byte; unflagged columns take the
    general per-element layout, whose component block ``memo`` keeps by
    the identity of ``comps`` (a fleet's name column, or a shard's part
    of it, is one immutable array every tick): same bytes, encoded once."""
    mb = metric.encode("utf-8")
    n = len(comps)
    t = np.ascontiguousarray(times, dtype=np.float64)
    v = np.ascontiguousarray(values, dtype=np.float64)
    if (n and comps[0] == comps[-1] and bool(
            (np.asarray(comps, dtype=object) == comps[0]).all())):
        cb = str(comps[0]).encode("utf-8")
        mode, comp_block = _WAL_ONE_COMP, struct.pack("<H", len(cb)) + cb
    else:
        mode = 0
        comp_block = memo.get(id(comps)) if memo is not None else None
        if comp_block is None:
            cbs = [str(c).encode("utf-8") for c in comps]
            lens = np.fromiter(map(len, cbs), dtype=np.uint32, count=n)
            comp_block = lens.tobytes() + b"".join(cbs)
            if memo is not None:
                memo_by_identity(memo, comps, comp_block)
    bits = t.view(np.int64)     # bit-equal, so NaN and -0.0 round-trip
    if n and bool((bits == bits[0]).all()):
        t = t[:1]
        mode |= _WAL_ONE_TIME
    return b"".join((
        struct.pack("<BHI", mode, len(mb), n), mb, comp_block,
        t.tobytes(), v.tobytes(),
    ))


def _decode_wal_batch(
    payload: bytes,
) -> tuple[str, list[str], np.ndarray, np.ndarray]:
    mode, mlen, n = struct.unpack_from("<BHI", payload, 0)
    pos = 7
    metric = payload[pos:pos + mlen].decode("utf-8")
    pos += mlen
    if mode & _WAL_ONE_COMP:
        (clen,) = struct.unpack_from("<H", payload, pos)
        pos += 2
        comps = [payload[pos:pos + clen].decode("utf-8")] * n
        pos += clen
    else:
        lens = np.frombuffer(payload, dtype=np.uint32, count=n,
                             offset=pos)
        pos += 4 * n
        comps = []
        for ln in lens.tolist():
            comps.append(payload[pos:pos + ln].decode("utf-8"))
            pos += ln
    if mode & _WAL_ONE_TIME:
        times = np.repeat(np.frombuffer(payload, dtype=np.float64, count=1,
                                        offset=pos), n)
        pos += 8
    else:
        times = np.frombuffer(payload, dtype=np.float64, count=n,
                              offset=pos).copy()
        pos += 8 * n
    values = np.frombuffer(payload, dtype=np.float64, count=n,
                           offset=pos).copy()
    return metric, comps, times, values


def _scan_wal(data: bytes) -> tuple[list[bytes], int]:
    """Parse wal payloads up to the first torn/corrupt record.

    Returns ``(payloads, consumed)``: bytes past ``consumed`` are a torn
    tail (counted, dropped — the ledger accounts the points they held).
    """
    out: list[bytes] = []
    pos = 0
    size = len(data)
    hdr = _WAL_HDR.size
    while pos + hdr <= size:
        magic, plen, crc = _WAL_HDR.unpack_from(data, pos)
        end = pos + hdr + plen
        if magic != _WAL_MAGIC or end > size:
            break
        payload = bytes(data[pos + hdr:end])
        if zlib.crc32(payload) != crc:
            break
        out.append(payload)
        pos = end
    return out, pos


def _scan_segment(
    data, start: int
) -> tuple[list[tuple[str, str, int, bytes]], int]:
    """Parse segment records from ``start`` up to the first torn record.

    Returns ``([(metric, component, blob_offset, blob)], consumed)``.
    """
    out: list[tuple[str, str, int, bytes]] = []
    pos = start
    size = len(data)
    hdr = _SEG_HDR.size
    while pos + hdr <= size:
        magic, mlen, clen, blen, crc = _SEG_HDR.unpack_from(data, pos)
        boff = pos + hdr + mlen + clen
        end = boff + blen
        if magic != _SEG_MAGIC or end > size:
            break
        body = bytes(data[pos + hdr:end])
        if zlib.crc32(body) != crc:
            break
        metric = body[:mlen].decode("utf-8")
        comp = body[mlen:mlen + clen].decode("utf-8")
        out.append((metric, comp, boff, body[mlen + clen:]))
        pos = end
    return out, pos


class DiskTier:
    """The on-disk tier under one :class:`TimeSeriesStore`.

    One tier serves exactly one store (per-shard tiers live in
    subdirectories of a common root).  Not thread-safe on its own — it
    inherits the store's threading contract: all mutation of one shard
    happens on one worker at a time, queries run between ticks.
    """

    def __init__(
        self,
        root: str | Path,
        hot_bytes: int = 64 << 20,
        segment_bytes: int = 64 << 20,
        sync_every_bytes: int = 1 << 20,
    ) -> None:
        if hot_bytes < 0:
            raise ValueError("hot_bytes must be >= 0")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hot_bytes = int(hot_bytes)
        self.segment_bytes = int(segment_bytes)
        self.sync_every_bytes = int(sync_every_bytes)
        self._handles = _HandleRegistry()
        self._dead = False
        # resume-aware: reopen existing segments, append to the highest;
        # the WAL always starts a fresh generation so older generations
        # stay replayable by the owning store's restore().
        self._segments: dict[int, _Segment] = {}
        for p in sorted(self.root.glob("seg-*.dat")):
            sid = int(p.stem.split("-")[1])
            self._segments[sid] = _Segment(sid, p)
        self._active_id = max(self._segments) if self._segments else 0
        if not self._segments:
            self._segments[0] = _Segment(0, self._seg_path(0))
        wal_gens = [int(p.stem.split("-")[1])
                    for p in self.root.glob("wal-*.log")]
        self._wal = self._new_wal(max(wal_gens) + 1 if wal_gens else 0)
        # LRU of resident sealed blobs: chunk id -> its record
        self._hot: OrderedDict[int, "SealedChunk"] = OrderedDict()
        # encoded WAL component blocks, by component-array identity
        self._comp_memo: dict[int, bytes] = {}
        self.hot_bytes_used = 0
        self._unsynced = 0
        self._spills = 0
        self._loads = 0
        self._map_hits = 0
        self._remaps = 0

    # -- paths / handles ----------------------------------------------------

    def _seg_path(self, seg_id: int) -> Path:
        return self.root / f"seg-{seg_id:06d}.dat"

    def _wal_path(self, gen: int) -> Path:
        return self.root / f"wal-{gen:06d}.log"

    def _new_wal(self, gen: int) -> _Wal:
        wal = _Wal(gen, self._wal_path(gen))
        wal.writer = self._handles.adopt(
            open(wal.path, "ab",  # handle-owner: DiskTier._handles
                 buffering=1 << 20)
        )
        return wal

    def _writer(self, seg: _Segment):
        if seg.writer is None:
            seg.writer = self._handles.adopt(
                open(seg.path, "ab",  # handle-owner: DiskTier._handles
                     buffering=1 << 20)
            )
        return seg.writer

    def _check_alive(self) -> None:
        if self._dead:
            raise RuntimeError(
                "disk tier closed or crashed (simulate_crash); reopen() "
                "the store on its directory"
            )

    # -- write path ---------------------------------------------------------

    def wal_append(self, batch: SeriesBatch) -> None:
        """Log one ingest batch before it reaches any head chunk."""
        self._check_alive()
        payload = _encode_wal_batch(batch.metric, batch.components,
                                    batch.times, batch.values,
                                    self._comp_memo)
        wal = self._wal
        wal.writer.write(_WAL_HDR.pack(_WAL_MAGIC, len(payload),
                                       zlib.crc32(payload)) + payload)
        wal.size += _WAL_HDR.size + len(payload)
        wal.records += 1
        self._unsynced += _WAL_HDR.size + len(payload)
        if self._unsynced >= self.sync_every_bytes:
            self.sync()

    def append_blob(self, metric: str, comp: str, blob: bytes) -> ChunkRef:
        """Append one sealed blob to the active segment -> its ref."""
        self._check_alive()
        seg = self._segments[self._active_id]
        if seg.size >= self.segment_bytes:
            seg = self._roll_segment(seg)
        mb = metric.encode("utf-8")
        cb = comp.encode("utf-8")
        body = mb + cb + blob
        w = self._writer(seg)
        w.write(_SEG_HDR.pack(_SEG_MAGIC, len(mb), len(cb), len(blob),
                              zlib.crc32(body)) + body)
        off = seg.size + _SEG_HDR.size + len(mb) + len(cb)
        seg.size = off + len(blob)
        self._unsynced += seg.size - off + _SEG_HDR.size + len(mb) + len(cb)
        if self._unsynced >= self.sync_every_bytes:
            self.sync()
        return ChunkRef(seg.seg_id, off, len(blob))

    def _roll_segment(self, seg: _Segment) -> _Segment:
        if seg.writer is not None:
            seg.writer.flush()
            os.fsync(seg.writer.fileno())
            seg.synced = seg.size
            self._handles.release(seg.writer)
            seg.writer = None
        nid = seg.seg_id + 1
        new = self._segments[nid] = _Segment(nid, self._seg_path(nid))
        self._active_id = nid
        return new

    def on_seal(self, key: MetricKey, chunk: "SealedChunk") -> None:
        """Seal hook: persist the blob, record where, track it in the
        hot LRU."""
        chunk.ref = self.append_blob(key.metric, key.component, chunk.blob)
        self._hot[chunk.cid] = chunk
        self.hot_bytes_used += chunk.ref.length

    def enforce_budget(self) -> int:
        """Spill coldest resident blobs until the hot tier fits."""
        n = 0
        while self.hot_bytes_used > self.hot_bytes and self._hot:
            self.demote(next(iter(self._hot.values())))
            n += 1
        return n

    def demote(self, chunk: "SealedChunk") -> bool:
        """Drop one resident blob, keeping its ref (budget spill and
        age archive alike); returns False if it was already ref-only."""
        if chunk.blob is None:
            return False
        self._hot.pop(chunk.cid, None)
        chunk.blob = None
        self.hot_bytes_used -= chunk.ref.length
        self._spills += 1
        return True

    def touch(self, cid: int) -> None:
        if cid in self._hot:
            self._hot.move_to_end(cid)

    def forget(self, series: "_Series") -> None:
        """Drop a series' resident chunks from the LRU (drop_series)."""
        for chunk in series.chunks:
            if self._hot.pop(chunk.cid, None) is not None:
                self.hot_bytes_used -= chunk.ref.length

    # -- read path ----------------------------------------------------------

    def load(self, ref: ChunkRef) -> memoryview:
        """Zero-copy view of a spilled blob from the segment mapping.

        The vectorized codec decodes directly from this view
        (``np.frombuffer``/``struct.unpack_from`` accept any buffer);
        decompressed arrays never alias the mapping, so remaps are safe
        once the decode returns.
        """
        self._check_alive()
        seg = self._segments[ref.segment]
        end = ref.offset + ref.length
        self._loads += 1
        if seg.map is None or seg.mapped < end:
            self._remap(seg)
        else:
            self._map_hits += 1
        return memoryview(seg.map)[ref.offset:end]

    def _remap(self, seg: _Segment) -> None:
        if seg.writer is not None:
            seg.writer.flush()        # make buffered appends visible
        if seg.reader is None:
            seg.reader = self._handles.adopt(
                open(seg.path, "rb")  # handle-owner: DiskTier._handles
            )
        if seg.map is not None:
            self._handles.release(seg.map)
        size = os.fstat(seg.reader.fileno()).st_size
        seg.map = self._handles.adopt(
            mmap.mmap(seg.reader.fileno(), size,  # handle-owner: DiskTier._handles
                      access=mmap.ACCESS_READ)
        )
        seg.mapped = size
        self._remaps += 1

    # -- durability ---------------------------------------------------------

    def sync(self) -> None:
        """Fsync-batch point: everything written so far becomes durable."""
        self._check_alive()
        for seg in self._segments.values():
            if seg.writer is not None and seg.size > seg.synced:
                seg.writer.flush()
                os.fsync(seg.writer.fileno())
                seg.synced = seg.size
        wal = self._wal
        if wal.size > wal.synced:
            wal.writer.flush()
            os.fsync(wal.writer.fileno())
            wal.synced = wal.size
            wal.syncs += 1
        self._unsynced = 0

    def simulate_crash(self) -> None:
        """Power-loss model: drop all process state, truncate every file
        to its last-synced extent.

        A plain SIGKILL would leave the OS page cache intact (buffered
        but un-fsynced bytes still land on disk), which under-tests
        recovery; truncating to the synced marks is the *pessimistic*
        power-loss outcome the WAL contract is written against.
        """
        marks = [(seg.path, seg.synced) for seg in self._segments.values()]
        marks.append((self._wal.path, self._wal.synced))
        self._dead = True
        self._handles.close_all()
        for path, n in marks:
            if path.exists():
                with open(path, "r+b") as f:
                    f.truncate(n)

    def close(self) -> None:
        if not self._dead:
            self.sync()
        self._dead = True
        self._handles.close_all()

    # -- snapshot -----------------------------------------------------------

    def snapshot(self, store: "TimeSeriesStore") -> Path:
        """Write a manifest of the store's full state; rotate the WAL.

        The manifest carries each series' exported state — one
        ``(summary, hint, ref)`` row per chunk and serialized pyramid
        partials, so restore rebuilds pyramids from the partials without
        decompressing any chunk — and each metric's open head block.
        Covered segment extents bound the recovery scan, and WAL
        generations older than the manifest are deleted once the
        manifest is durably in place (write-tmp, fsync, rename).
        """
        self._check_alive()
        self.sync()
        series_state = {(key.metric, key.component): series.export_state()
                        for key, series in store._series.items()}
        old_wal = self._wal
        self._handles.release(old_wal.writer)
        new_wal = self._new_wal(old_wal.gen + 1)
        new_wal.syncs = old_wal.syncs
        new_wal.records = old_wal.records
        self._wal = new_wal
        manifest = {
            "version": _MANIFEST_VERSION,
            "chunk_size": store.chunk_size,
            "pyramid_levels": store.pyramid_levels,
            "segments": {sid: seg.synced
                         for sid, seg in self._segments.items()},
            "wal_gen": new_wal.gen,
            "series": series_state,
            "heads": {metric: block.export_state()
                      for metric, block in store._blocks.items()
                      if block.n_head},
        }
        tmp = self.root / (_MANIFEST + ".tmp")
        with open(tmp, "wb") as f:
            pickle.dump(manifest, f, protocol=pickle.HIGHEST_PROTOCOL)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, self.root / _MANIFEST)
        try:
            dfd = os.open(self.root, os.O_RDONLY)
            try:
                os.fsync(dfd)
            finally:
                os.close(dfd)
        except OSError:  # pragma: no cover - platform-dependent
            pass
        for gen_path in self.root.glob("wal-*.log"):
            if int(gen_path.stem.split("-")[1]) < new_wal.gen:
                gen_path.unlink(missing_ok=True)
        return self.root / _MANIFEST

    # -- open ---------------------------------------------------------------

    def reopen(self) -> "DiskTier":
        """A fresh tier over the same directory with the same budgets."""
        return DiskTier(self.root, self.hot_bytes, self.segment_bytes,
                        self.sync_every_bytes)

    def restore(self, store: "TimeSeriesStore") -> "RecoveryReport":
        """Fill the just-constructed ``store`` with what this tier's
        directory holds (the store constructor calls this).

        The store's ``chunk_size`` and ``pyramid_levels`` are its
        declared shape (a crash before the first snapshot leaves no
        manifest to learn them from); a manifest that disagrees is an
        error.  Three sources compose, deduplicated by per-series
        arrival counts:

        1. the manifest (sealed-chunk index + pyramid partials per
           series, open heads per metric),
        2. a scan of segment bytes past the manifest-covered extents
           (chunks sealed after the last snapshot — one decompress each
           to rebuild summaries/hints and fold pyramids),
        3. WAL replay of batches not yet represented by sealed chunks.

        Every restored sealed chunk starts *spilled* (ref-only), so the
        restored resident footprint is bounded regardless of history
        size.  If anything was found the restore ends by writing a fresh
        manifest, so repeated crashes never replay more than one
        campaign's tail; an empty directory is left untouched.
        """
        from .tsdb import SealedChunk, decompress_chunk

        manifest = _read_manifest(self.root, store.chunk_size,
                                  store.pyramid_levels)
        covered = manifest["segments"] if manifest else {}
        min_gen = manifest["wal_gen"] if manifest else 0
        scanned, torn_seg = self._scan_segments(covered)
        wal_payloads, torn_wal = _read_wal_records(self.root, min_gen)

        manifest_chunks = 0
        if manifest:
            for (metric, comp), state in manifest["series"].items():
                manifest_chunks += store.restore_series(
                    MetricKey(metric, comp), state)
            for metric, state in manifest["heads"].items():
                store.restore_heads(metric, state)

        # 2) chunks sealed after the snapshot: one decompress each rebuilds
        # summary/hint and folds the pyramid; the blob stays on disk.  A
        # series' arrival stream was [manifest-sealed | manifest-head | wal
        # records] and these chunks cover a prefix of the last two, so
        # adopting one trims the restored head and reports how many of its
        # samples the WAL replay must drop instead.
        scanned_chunks = 0
        wal_skip: dict[MetricKey, int] = {}
        for sid, metric, comp, boff, blob in scanned:
            ct, cv = decompress_chunk(blob)
            if not len(ct):
                continue
            key = MetricKey(metric, comp)
            skip = store.adopt_chunk(
                key, SealedChunk.of(ct, cv, ChunkRef(sid, boff, len(blob))),
                ct, cv)
            if skip:
                wal_skip[key] = wal_skip.get(key, 0) + skip
            scanned_chunks += 1

        replayed = skipped = 0
        for payload in wal_payloads:
            metric, comps, times, values = _decode_wal_batch(payload)
            if not comps:
                continue
            if wal_skip:
                keep = np.ones(len(comps), dtype=bool)
                for i, c in enumerate(comps):
                    key = MetricKey(metric, c)
                    left = wal_skip.get(key, 0)
                    if left:
                        keep[i] = False
                        wal_skip[key] = left - 1
                        if left == 1:
                            del wal_skip[key]
                skipped += int((~keep).sum())
                if not keep.all():
                    comps = [c for c, k in zip(comps, keep.tolist()) if k]
                    times, values = times[keep], values[keep]
                if not comps:
                    continue
            replayed += len(comps)
            store.append(SeriesBatch(
                metric, np.asarray(comps, dtype=object), times, values,
            ))

        stats = store.stats()
        report = RecoveryReport(
            series=stats.series,
            points=stats.samples,
            manifest_chunks=manifest_chunks,
            scanned_chunks=scanned_chunks,
            wal_points_replayed=replayed,
            wal_points_skipped=skipped,
            torn_segment_bytes=torn_seg,
            torn_wal_bytes=torn_wal,
        )
        if any(astuple(report)):
            self.snapshot(store)
        return report

    def _scan_segments(
        self, covered: Mapping[int, int]
    ) -> tuple[list[tuple[int, str, str, int, bytes]], int]:
        """Records beyond each segment's manifest-covered extent.

        Torn tails are truncated away on disk — and off the segment's
        ``size``/``synced`` marks, read before the tear was known — so
        this tier appends at a clean record boundary.  Returns
        ``([(segment, metric, comp, blob_off, blob)], torn_bytes)``.
        """
        out: list[tuple[int, str, str, int, bytes]] = []
        torn = 0
        for sid, seg in self._segments.items():
            start = int(covered.get(sid, 0))
            if seg.size <= start:
                continue
            with open(seg.path, "rb") as f:
                data = f.read()
            recs, consumed = _scan_segment(data, start)
            out.extend((sid, m, c, off, blob) for m, c, off, blob in recs)
            if consumed < seg.size:
                torn += seg.size - consumed
                with open(seg.path, "r+b") as f:
                    f.truncate(consumed)
                seg.size = seg.synced = consumed
        return out, torn

    # -- stats --------------------------------------------------------------

    def stats(self) -> DiskTierStats:
        seg_bytes = sum(seg.size for seg in self._segments.values())
        return DiskTierStats(
            segments=len(self._segments),
            disk_bytes=seg_bytes + self._wal.size,
            wal_bytes=self._wal.size,
            hot_bytes=self.hot_bytes_used,
            hot_chunks=len(self._hot),
            spills=self._spills,
            loads=self._loads,
            map_hits=self._map_hits,
            remaps=self._remaps,
            wal_records=self._wal.records,
            wal_syncs=self._wal.syncs,
        )


# --------------------------------------------------------------------------
# recovery
# --------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class RecoveryReport:
    """What a recovery found and rebuilt (per store; shards summed)."""

    series: int
    points: int                  # total points in the recovered store
    manifest_chunks: int         # sealed chunks restored from the manifest
    scanned_chunks: int          # post-manifest chunks found by segment scan
    wal_points_replayed: int
    wal_points_skipped: int      # already covered by sealed chunks
    torn_segment_bytes: int
    torn_wal_bytes: int

    def merged(self, other: "RecoveryReport") -> "RecoveryReport":
        return RecoveryReport(*(a + b for a, b in
                                zip(astuple(self), astuple(other))))


def _read_manifest(root: Path, chunk_size: int,
                   pyramid_levels: Sequence[float] | None) -> dict | None:
    """The snapshot manifest, or None before the first snapshot.

    The file is outside input: a version this build does not write, or
    a store shape other than the declared one (the chunk index and the
    pyramid partials are only meaningful under the ``chunk_size`` and
    ``pyramid_levels`` they were written with), is an error, never a
    silent reinterpretation.
    """
    path = root / _MANIFEST
    if not path.exists():
        return None
    with open(path, "rb") as f:
        manifest = pickle.load(f)
    version = manifest.get("version") if isinstance(manifest, dict) else None
    if version != _MANIFEST_VERSION:
        raise ValueError(
            f"{path}: manifest version {version!r}, but this build reads "
            f"only version {_MANIFEST_VERSION}"
        )
    found = (manifest["chunk_size"], tuple(manifest["pyramid_levels"] or ()))
    declared = (int(chunk_size), tuple(pyramid_levels or ()))
    if found != declared:
        raise ValueError(
            f"{path}: written by a store with (chunk_size, pyramid_levels)"
            f" = {found}, but the store being recovered declares {declared}"
        )
    return manifest


def _read_wal_records(root: Path, min_gen: int) -> tuple[list[bytes], int]:
    payloads: list[bytes] = []
    torn = 0
    gens = sorted((int(p.stem.split("-")[1]), p)
                  for p in root.glob("wal-*.log"))
    for gen, path in gens:
        if gen < min_gen:
            continue
        with open(path, "rb") as f:
            data = f.read()
        recs, consumed = _scan_wal(data)
        payloads.extend(recs)
        torn += len(data) - consumed
    return payloads, torn
