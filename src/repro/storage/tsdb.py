"""Numpy-backed time-series store with Gorilla-style chunk compression.

The InfluxDB-class store of Section IV-C: ALCF "chose InfluxDB for its
superior data compression and query performance for high-volume time
series data compared to Cray's PMDB".  This store provides the behaviours
that comparison turns on:

* append-optimized ingest of :class:`~repro.core.metric.SeriesBatch`es
  into one *head block* per metric (:class:`_HeadBlock`): a components x
  time value matrix in which a synchronized sweep — NCSA's whole-system
  sampling model — is one column write, and its timestamp is stored
  once for as long as the metric's components stay in lock-step.  The
  blocks are the one series index: a series is a row, made live in one
  vectorised step for a whole batch, and gets a record (:class:`_Series`,
  its chunk list) only when it first seals,
* per-series columnar chunks sealed at a fixed size and compressed with
  delta-of-delta timestamps + XOR float packing (the Facebook Gorilla
  scheme, the same family InfluxDB's TSM files use).  The codec works
  on matrices — the rows of a block that fill in one sweep are sealed
  in one pass (``_seal_rows``, :func:`compress_chunks`) — and the scalar
  original is kept as ``_compress_chunk_slow``/``_decompress_chunk_slow``,
  the oracle the property tests hold it byte-identical to,
* range queries and server-side downsampling.  Sealing also records a
  :class:`ChunkSummary` (count/min/max/sum/first/last + span), so
  ``downsample`` answers from summaries for chunks wholly inside a
  bucket and decompresses only boundary chunks — the immutable-block
  summary trick InfluxDB TSM and Gorilla both lean on,
* a bounded LRU :class:`~repro.storage.chunkcache.LRUCache` of
  decompressed sealed chunks (sealed chunks are immutable, so
  cacheability is exact) serving repeated drill-down reads,
* footprint/compression statistics for the storage-comparison bench.

Chunks are transparently decompressed on query; the open (mutable) head
is a zero-copy strided view of its metric's block, queried in place.
Reads work on blocks: a raw read (:func:`read_series`, one series or a
fleet) decodes every chunk the cache misses in one batched pass
(:func:`decompress_chunks`) and gathers the heads it needs once per
block, and a bucketed read folds every head it needs of one block in
one pass (:func:`~repro.storage.rollup.head_partials`).

With a :class:`~repro.storage.diskier.DiskTier` attached (``disk=``),
sealed blobs are additionally persisted to append-only segment files
and the resident set is bounded by the tier's ``hot_bytes`` budget:
cold blobs are spilled to ``(segment, offset, len)`` refs and read back
zero-copy through ``mmap`` (:func:`_chunk_blob` is the one accessor
every read path goes through).  ``archive_before`` demotes by age
instead of by budget and ``locate_archived`` names where each demoted
chunk lives — Table I's hierarchical archive / locate / reload is a
policy over that one tier.  Appends are WAL-logged first, so heads
survive a crash, and constructing a store over a tier restores whatever
its directory already holds (``store.recovery`` reports what was found).
"""

from __future__ import annotations

import itertools
import mmap
import struct
import sys
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from ..core.metric import MetricKey, SeriesBatch
from ..core.soa import ComponentTable, row_indices
from .chunkcache import CHUNK_CACHE_BYTES, CacheStats, LRUCache
from .rollup import (DEFAULT_LEVELS, SealGroup, SeriesPyramid, _head_gather,
                     bucket_anchor, check_bucketing, check_levels,
                     export_levels, fold_group, group_partials,
                     head_first_time, head_latest, head_partials, ieee_sums,
                     reduce_partials, row_piece, series_partials,
                     window_plan)

__all__ = [
    "compress_chunk",
    "compress_chunks",
    "decompress_chunk",
    "ChunkSummary",
    "SealedChunk",
    "SeriesQueryMixin",
    "TimeSeriesStore",
    "StoreStats",
]


# --------------------------------------------------------------------------
# chunk codec: delta-of-delta timestamps (varint) + XOR-packed float values
#
# Two implementations of the identical byte format: the vectorized one
# (the production path) and the original scalar one (the `_slow`
# reference oracle).  Property tests assert byte-for-byte equality.
# --------------------------------------------------------------------------

def _zigzag(n: int) -> int:
    return (n << 1) ^ (n >> 63)


def _unzigzag(z: int) -> int:
    return (z >> 1) ^ -(z & 1)


def _write_varint(out: bytearray, value: int) -> None:
    v = _zigzag(value)
    while True:
        b = v & 0x7F
        v >>= 7
        if v:
            out.append(b | 0x80)
        else:
            out.append(b)
            return


def _read_varint(buf: bytes, pos: int) -> tuple[int, int]:
    shift = 0
    result = 0
    while True:
        b = buf[pos]
        pos += 1
        result |= (b & 0x7F) << shift
        if not b & 0x80:
            return _unzigzag(result), pos
        shift += 7


def _compress_chunk_slow(times: np.ndarray, values: np.ndarray) -> bytes:
    """Scalar reference encoder (one Python iteration per sample)."""
    n = len(times)
    if n == 0:
        return struct.pack("<I", 0)
    ts_ms = np.round(np.asarray(times, dtype=np.float64) * 1000.0).astype(
        np.int64
    )
    out = bytearray(struct.pack("<I", n))
    # first timestamp raw, first delta, then delta-of-deltas
    out += struct.pack("<q", int(ts_ms[0]))
    prev_delta = 0
    prev_ts = int(ts_ms[0])
    for i in range(1, n):
        t = int(ts_ms[i])
        delta = t - prev_ts
        _write_varint(out, delta - prev_delta)
        prev_delta = delta
        prev_ts = t

    bits = np.asarray(values, dtype=np.float64).view(np.uint64)
    out += struct.pack("<Q", int(bits[0]))
    prev = int(bits[0])
    for i in range(1, n):
        cur = int(bits[i])
        x = cur ^ prev
        prev = cur
        if x == 0:
            out.append(0x00)
            continue
        raw = x.to_bytes(8, "big")
        lead = 0
        while raw[lead] == 0:
            lead += 1
        sig = raw[lead:]
        # header byte: high nibble = leading zero bytes, low = sig length
        out.append((lead << 4) | len(sig))
        out += sig
    return bytes(out)


def _decompress_chunk_slow(blob: bytes) -> tuple[np.ndarray, np.ndarray]:
    """Scalar reference decoder (inverse of :func:`_compress_chunk_slow`)."""
    (n,) = struct.unpack_from("<I", blob, 0)
    pos = 4
    if n == 0:
        return np.empty(0), np.empty(0)
    ts_ms = np.empty(n, dtype=np.int64)
    (ts_ms[0],) = struct.unpack_from("<q", blob, pos)
    pos += 8
    prev_delta = 0
    prev_ts = int(ts_ms[0])
    for i in range(1, n):
        dod, pos = _read_varint(blob, pos)
        prev_delta += dod
        prev_ts += prev_delta
        ts_ms[i] = prev_ts

    vals = np.empty(n, dtype=np.uint64)
    (first,) = struct.unpack_from("<Q", blob, pos)
    pos += 8
    vals[0] = first
    prev = int(first)
    for i in range(1, n):
        header = blob[pos]
        pos += 1
        if header == 0:
            vals[i] = prev
            continue
        lead = header >> 4
        sig_len = header & 0x0F
        sig = blob[pos : pos + sig_len]
        pos += sig_len
        x = int.from_bytes(
            b"\x00" * lead + sig + b"\x00" * (8 - lead - sig_len), "big"
        )
        prev ^= x
        vals[i] = prev
    return ts_ms.astype(np.float64) / 1000.0, vals.view(np.float64).copy()


# varint byte-length thresholds: z needs k+1 bytes when z >= 2**(7k)
_VARINT_THRESH = (np.uint64(1) << (np.uint64(7) * np.arange(1, 10,
                                                            dtype=np.uint64)))
# significant-byte-length thresholds: x needs k+1 bytes when x >= 2**(8k)
_BYTELEN_THRESH = (np.uint64(1) << (np.uint64(8) * np.arange(1, 8,
                                                             dtype=np.uint64)))


def _encode_varints(dod: np.ndarray) -> bytes:
    """Zig-zag varint encode an int64 array, stream-concatenated."""
    z = (dod.astype(np.uint64) << np.uint64(1)) ^ (
        dod >> np.int64(63)
    ).astype(np.uint64)
    nbytes = np.searchsorted(_VARINT_THRESH, z, side="right") + 1  # 1..10
    width = int(nbytes.max())
    if width == 1:             # every dod in [-64, 63] (regular cadence)
        return z.astype(np.uint8).tobytes()
    cols = np.arange(width)
    shifts = np.uint64(7) * cols.astype(np.uint64)
    groups = ((z[:, None] >> shifts[None, :]).astype(np.uint8)
              & np.uint8(0x7F))
    cont = cols[None, :] < (nbytes - 1)[:, None]
    groups = np.where(cont, groups | np.uint8(0x80), groups)
    sel = cols[None, :] < nbytes[:, None]
    return groups[sel].tobytes()


_COLS9 = np.arange(9, dtype=np.uint8)


def _sig_bytes(x: np.ndarray) -> np.ndarray:
    """Significant byte count (0..8) of each uint64."""
    blen = (x != np.uint64(0)).astype(np.uint8)
    for thresh in _BYTELEN_THRESH:          # compare-sum beats searchsorted
        blen += x >= thresh
    return blen


def _encode_xor(bits: np.ndarray) -> tuple[bytes, list[int], np.ndarray]:
    """XOR-pack consecutive float bit patterns (all but the first) of
    each row of a ``(K, n)`` matrix: ``(stream, ends, lens)``, the K
    packed streams back to back, row ``i``'s ending at ``ends[i]``, and
    the ``(K, n - 1)`` token byte lengths.

    One byteswap yields the big-endian byte matrix of every XOR value;
    a token's significant bytes are its last ``blen`` columns, already
    in stream order.  Scattering each header byte immediately *before*
    its significant bytes makes the whole token a row suffix, so a
    single broadcast compare + boolean take emits the packed streams.
    """
    x = bits[:, 1:] ^ bits[:, :-1]
    blen = _sig_bytes(x)
    lead = (np.uint8(8) - blen).ravel()
    # (lead & 7) << 4 | blen is 0x00 exactly when x == 0 — no where()
    header = ((lead & np.uint8(7)) << np.uint8(4)) | blen.ravel()
    tok = np.empty((x.size, 9), dtype=np.uint8)
    tok[:, 1:] = x.byteswap().view(np.uint8).reshape(x.size, 8)
    tok[np.arange(x.size), lead] = header
    lens = blen + np.uint8(1)
    return (tok[_COLS9 >= lead[:, None]].tobytes(),
            np.cumsum(lens.sum(axis=1, dtype=np.int64)).tolist(), lens)


def compress_chunks(
    times: np.ndarray, values: np.ndarray,
) -> list[tuple[bytes, np.ndarray | None]]:
    """``(blob, lens_hint)`` of every row of ``values`` (``(K, n)``)
    sealed over the one time column ``times`` — the write-side twin of
    :func:`decompress_chunks`.  Each blob is byte-identical to its row's
    :func:`_compress_chunk_slow`, each hint is its :func:`_xor_token_lens`
    (read off the lengths the encoder computes anyway).  The timestamp
    section is encoded once, the XOR sections as one token matrix — some
    30 B of temporaries per sample, so the caller bounds ``K * n``.

    Timestamps are millisecond zig-zag varint delta-of-deltas — a regular
    collection interval collapses to one byte per sample.  Values are
    XOR-ed against the previous value under a byte-aligned (leading-zero
    -bytes, significant-bytes) header; a repeated value costs one byte.
    """
    bits = np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)
    k, n = bits.shape
    if n == 0:
        return [(struct.pack("<I", 0), None)] * k
    ts_ms = np.round(
        np.asarray(times, dtype=np.float64) * 1000.0).astype(np.int64)
    head = bytearray(struct.pack("<Iq", n, int(ts_ms[0])))
    if n > 1:
        deltas = np.diff(ts_ms)
        # the first delta-of-delta IS the first delta — typically one
        # whole collection interval, far larger than the rest — so emit
        # it scalarly to keep the vector path's byte-width uniform
        _write_varint(head, int(deltas[0]))
        if n > 2:
            head += _encode_varints(np.diff(deltas))
    firsts = bits[:, 0].astype("<u8").tobytes()
    stream, ends, lens = _encode_xor(bits)
    # a hint only where token lengths vary (uniform ones are recovered)
    mixed = (lens != lens[:, :1]).any(axis=1)
    hints = iter(lens[mixed])
    return [(b"".join((head, firsts[8 * i:8 * i + 8], stream[lo:hi])),
             next(hints) if m else None)
            for i, (lo, hi, m) in enumerate(zip([0] + ends, ends,
                                                mixed.tolist()))]


def compress_chunk(times: np.ndarray, values: np.ndarray) -> bytes:
    """Compress one sealed chunk: the one-row :func:`compress_chunks`."""
    return compress_chunks(times, np.asarray(values)[None])[0][0]


def _token_starts(sec: np.ndarray, n_tok: int) -> np.ndarray:
    """Byte offsets of the ``n_tok`` XOR tokens in ``sec``.

    Token boundaries form a linked chain (each header byte encodes its
    token's length), which resists naive vectorization.  Two tiers:

    1. speculative uniform stride — if every token has the same length
       (constant gauges: all ``0x00``; fully noisy floats: all 9-byte)
       the starts are an arange, verified with one O(n) gather;
    2. otherwise pointer-doubled jump tables are squared only until
       anchors are cheap to walk scalarly (the anchor count balances
       ~1 ns/elem table squaring against ~100 ns/step Python walking),
       then the gaps fill by halving strides through the saved
       intermediate tables — O(m·log(n/anchors)) gather work instead of
       O(m·log n).
    """
    m = len(sec)
    nib = (sec & np.uint8(0x0F)).astype(np.int64)   # token len - 1
    stride = int(nib[0]) + 1
    if m == n_tok * stride:
        idx = np.arange(n_tok, dtype=np.int64) * stride
        if stride == 1 or bool((nib[idx] == stride - 1).all()):
            return idx
    jump = np.arange(1, m + 18, dtype=np.int64)
    jump[:m] += nib
    jump[m:] = m                          # sentinel zone: chains park here
    tables = [jump]
    step = 1
    anchors = max(512, m >> 5)
    while n_tok // step > anchors:
        jump = jump[jump]
        tables.append(jump)
        step *= 2
    top = tables[-1]
    tok = np.empty(n_tok, dtype=np.int64)
    item = top.item
    p = 0
    for i in range(0, n_tok, step):
        tok[i] = p
        p = item(p)
    for k in range(len(tables) - 2, -1, -1):
        s = 1 << k
        base = np.arange(0, n_tok - s, 2 * s, dtype=np.int64)
        tok[base + s] = tables[k][tok[base]]
    return tok


def _xor_token_lens(values: np.ndarray) -> np.ndarray | None:
    """Per-token byte lengths of a chunk's XOR section (the block index).

    The one irreducibly sequential part of decoding is walking the XOR
    token chain, so the store keeps this 1-byte-per-sample index for
    each sealed chunk — the same role as the block index in an InfluxDB
    TSM file.  Returns None when every token has the same length (the
    decoder's uniform-stride check recovers that case in O(n) anyway),
    which covers constant gauges for free.
    """
    bits = np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)
    if len(bits) < 2:
        return None
    lens = _sig_bytes(bits[1:] ^ bits[:-1]) + np.uint8(1)
    if bool((lens == lens[0]).all()):
        return None
    return lens


def _time_section(blob, buf: np.ndarray, n: int, decode: bool
                  ) -> tuple[np.ndarray | None, int]:
    """The millisecond timestamps of an ``n >= 1``-sample chunk (None
    unless ``decode``) and the offset of its value section.

    Varint ends are the bytes with a clear continuation bit, so finding
    where the section ends takes one scan; the delta-of-delta decode
    (zig-zag, two cumsums) is paid only when the times are wanted.
    """
    (first_ts,) = struct.unpack_from("<q", blob, 4)
    if n == 1:
        return np.array([first_ts], dtype=np.int64) if decode else None, 12
    # the first delta-of-delta IS the first delta — typically large
    # (one collection interval), so parse it scalarly and fast-path
    # the rest, which is all zeros on a regular cadence
    first, off = _read_varint(blob, 12)
    rest = buf[off : off + n - 2]
    if len(rest) == n - 2 and bool((rest < 0x80).all()):
        pos = off + n - 2                       # every varint is one byte
        if not decode:
            return None, pos
        z = rest.astype(np.uint64)
    else:
        sec = buf[off : off + 10 * (n - 2)]     # varints <= 10 bytes each
        ends = np.flatnonzero(sec < 0x80)[: n - 2]
        pos = off + int(ends[-1]) + 1
        if not decode:
            return None, pos
        starts = np.empty(n - 2, dtype=np.int64)
        starts[0] = 0
        starts[1:] = ends[:-1] + 1
        lens = ends - starts + 1
        cols = np.arange(int(lens.max()))
        idx = np.minimum(starts[:, None] + cols[None, :], len(sec) - 1)
        mat = sec[idx].astype(np.uint64) & np.uint64(0x7F)
        valid = cols[None, :] < lens[:, None]
        shifts = np.uint64(7) * cols.astype(np.uint64)
        z = ((mat << shifts[None, :]) * valid).sum(axis=1, dtype=np.uint64)
    dod = np.empty(n - 1, dtype=np.int64)
    dod[0] = first
    dod[1:] = ((z >> np.uint64(1))
               ^ (np.uint64(0) - (z & np.uint64(1)))).view(np.int64)
    ts_ms = np.empty(n, dtype=np.int64)
    ts_ms[0] = first_ts
    ts_ms[1:] = first_ts + np.cumsum(np.cumsum(dod))
    return ts_ms, pos


def decompress_chunk(
    blob: bytes, lens_hint: np.ndarray | None = None, times: bool = True,
) -> tuple[np.ndarray, np.ndarray] | np.ndarray:
    """Inverse of :func:`compress_chunk` (vectorized): ``(times,
    values)``, or with ``times=False`` the values alone — the timestamp
    section is then only skipped, not decoded.

    Variable-length token boundaries are recovered without a per-sample
    Python loop: varint ends are the bytes with a clear continuation
    bit, and XOR-token starts come from the chunk's
    :func:`_xor_token_lens` block index when the caller has one (one
    cumsum), else from a pointer-doubled chase over the per-byte skip
    table.
    """
    (n,) = struct.unpack_from("<I", blob, 0)
    if n == 0:
        return (np.empty(0), np.empty(0)) if times else np.empty(0)
    buf = np.frombuffer(blob, dtype=np.uint8)
    ts_ms, pos = _time_section(blob, buf, n, times)
    (first_val,) = struct.unpack_from("<Q", blob, pos)
    pos += 8
    bits = np.empty(n, dtype=np.uint64)
    bits[0] = first_val
    if n > 1:
        sec = buf[pos:]
        m = len(sec)
        hdr = None
        if (
            lens_hint is not None
            and lens_hint.size == n - 1
            and int(lens_hint.sum(dtype=np.int64)) == m
        ):
            tok = np.empty(n - 1, dtype=np.int64)
            tok[0] = 0
            np.cumsum(lens_hint[:-1], dtype=np.int64, out=tok[1:])
            hdr = sec[tok]
            if not ((hdr & 0x0F) + 1 == lens_hint).all():
                hdr = None                  # the index of some other chunk
        if hdr is None:
            tok = _token_starts(sec, n - 1)
            hdr = sec[tok]
        hdr = hdr.astype(np.int64)
        slen = hdr & 0x0F                    # hdr == 0 -> slen = 0 (x == 0)
        lead = hdr >> 4
        # read 8 raw bytes after each header (zero-padded past the end)
        # as a big-endian word: its top slen bytes are the significant
        # bytes, repositioned with two shifts
        padded = np.concatenate([sec, np.zeros(8, dtype=np.uint8)])
        windows = np.lib.stride_tricks.sliding_window_view(padded, 8)
        raw = windows[tok + 1]               # (n-1, 8) row gather
        words = np.ascontiguousarray(raw).view(np.uint64).ravel().byteswap()
        drop = np.minimum(8 * (8 - slen), 63).astype(np.uint64)
        place = np.maximum(8 * (8 - lead - slen), 0).astype(np.uint64)
        x = (words >> drop) << place
        bits[1:] = np.where(slen == 0, np.uint64(0), x)
        np.bitwise_xor.accumulate(bits, out=bits)
    if not times:
        return bits.view(np.float64)
    return ts_ms.astype(np.float64) / 1000.0, bits.view(np.float64)


#: samples :func:`decompress_chunks` decodes per pass: the dozen or so
#: 8 B-per-sample temporaries of one slab stay at a few MiB
_SLAB_SAMPLES = 1 << 15


def _decode_slab(buf: np.ndarray, base: np.ndarray, size: np.ndarray,
                 hints: Sequence[np.ndarray | None], n: int,
                 times: bool) -> tuple:
    """``K`` chunks of ``n >= 3`` samples each, at ``buf[base:base + size]``,
    decoded as one ``(K, n)`` problem.

    Returns ``(rows, fit, t, v)``: ``rows`` are the chunks whose
    timestamps take the regular-cadence shape (a first delta, then one
    byte per delta-of-delta), ``t`` / ``v`` hold a row for each of them
    (``t`` is None unless ``times``: the shape check alone locates the
    value sections), and ``fit`` says which of those rows are a decode —
    the ones whose XOR token lengths (the chunk's hint, else one uniform
    stride) tile the section and agree with every header byte they land
    on.
    """
    win8 = np.lib.stride_tricks.sliding_window_view(buf, 8)
    # the first delta-of-delta IS the first delta: a varint of 1..10 bytes
    cols = np.arange(10)
    lead10 = buf[(base + 12)[:, None] + cols]
    l1 = np.logical_and.accumulate(lead10 >= 0x80, axis=1).sum(axis=1) + 1
    off = base + 12 + l1                 # then n - 2 of them, one byte each
    rest = np.lib.stride_tricks.sliding_window_view(buf, n - 2)[off]
    rows = np.flatnonzero((l1 <= 10) & (rest < 0x80).all(axis=1))
    if len(rows) < len(base):
        base, size, lead10, l1, off, rest = (
            a[rows] for a in (base, size, lead10, l1, off, rest))
    k = len(rows)
    t = None
    if times:
        z = np.empty((k, n - 1), dtype=np.uint64)
        z[:, 0] = (((lead10 & np.uint8(0x7F)).astype(np.uint64)
                    << (np.uint64(7) * cols.astype(np.uint64)))
                   * (cols < l1[:, None])).sum(axis=1, dtype=np.uint64)
        z[:, 1:] = rest
        dod = ((z >> np.uint64(1))
               ^ (np.uint64(0) - (z & np.uint64(1)))).view(np.int64)
        ts_ms = np.empty((k, n), dtype=np.int64)
        ts_ms[:, 0] = win8[base + 4].view("<i8")[:, 0]
        np.cumsum(dod, axis=1, out=dod)                  # deltas
        np.cumsum(dod, axis=1, out=ts_ms[:, 1:])
        ts_ms[:, 1:] += ts_ms[:, :1]
        t = ts_ms.astype(np.float64) / 1000.0

    vpos = off + (n - 2)
    sec = vpos + 8                       # the XOR section, to the blob's end
    m = base + size - sec
    bits = np.empty((k, n), dtype=np.uint64)
    bits[:, 0] = win8[vpos].view("<u8")[:, 0]
    # token lengths: one uniform stride, unless the chunk brought its index
    lens = np.repeat(m // (n - 1), n - 1).reshape(k, n - 1)
    hints = [hints[r] for r in rows.tolist()]
    hinted = [j for j, hint in enumerate(hints)
              if hint is not None and hint.size == n - 1]
    if hinted:
        lens[hinted] = np.stack([hints[j] for j in hinted])
    fit = lens.sum(axis=1) == m
    # a misfit's tokens all park on its first byte: in range, never valid
    lens[~fit] = 0
    tok = np.cumsum(lens, axis=1)
    tok += sec[:, None] - lens
    hdr = buf[tok]
    slen = (hdr & np.uint8(0x0F)).astype(np.int64)
    fit &= (slen + 1 == lens).all(axis=1)
    lead = (hdr >> np.uint8(4)).astype(np.int64)
    # the 8 raw bytes after each header as a big-endian word: its top
    # slen bytes are the significant ones (what follows them — the next
    # token, the next blob — is shifted out), repositioned with two shifts
    words = win8[tok + 1].view(">u8")[..., 0].astype(np.uint64)
    drop = np.minimum(8 * (8 - slen), 63).astype(np.uint64)
    place = np.maximum(8 * (8 - lead - slen), 0).astype(np.uint64)
    bits[:, 1:] = np.where(slen == 0, np.uint64(0), (words >> drop) << place)
    np.bitwise_xor.accumulate(bits, axis=1, out=bits)
    return rows, fit, t, bits.view(np.float64)


def decompress_chunks(
    items: Sequence[tuple[bytes | memoryview, np.ndarray | None]],
    times: bool = True,
) -> list:
    """:func:`decompress_chunk` of every ``(blob, lens_hint)``, the chunks
    of one length decoded together (:func:`_decode_slab`, a slab at a
    time) — what a fleet read, which misses a chunk or three of every
    series, pays per chunk is a row of a few matrix operations, not a
    Python call chain.  Each result is ``(times, values)``, or with
    ``times=False`` the values alone: the XOR sections are decoded and
    the timestamp sections only located — what a seal group's chunks
    need, whose times are the group's one column.  Every array owns its
    memory and is bit-identical to the single-chunk decode.
    :func:`decompress_chunk` is the ``K = 1`` case and decodes whatever
    the shared shape does not fit: irregular cadence (multi-byte
    varints), mixed token lengths without a usable hint, fewer than
    three samples, fewer than three chunks of a length.
    """
    if len(items) < 3:      # nothing a matrix pass would pay for
        return [decompress_chunk(*item, times) for item in items]
    blobs = [blob for blob, _ in items]
    hints = [hint for _, hint in items]
    out: list = [None] * len(items)
    size = np.fromiter(map(len, blobs), dtype=np.int64, count=len(blobs))
    base = np.cumsum(size) - size
    buf = np.frombuffer(b"".join([*blobs, bytes(16)]), dtype=np.uint8)
    ns = buf[base[:, None] + np.arange(4)].view("<u4")[:, 0]
    for n in np.unique(ns).tolist():
        same = np.flatnonzero(ns == n)
        # it costs some three single decodes before its first row
        if n < 3 or len(same) < 3:
            continue
        per = max(3, _SLAB_SAMPLES // n)
        for s in range(0, len(same), per):
            part = same[s:s + per]
            rows, fit, t, v = _decode_slab(
                buf, base[part], size[part],
                [hints[i] for i in part.tolist()], n, times)
            for j, (i, ok) in enumerate(zip(part[rows].tolist(),
                                            fit.tolist())):
                if ok:
                    out[i] = ((t[j].copy(), v[j].copy()) if times
                              else v[j].copy())
    return [got if got is not None
            else decompress_chunk(blobs[i], hints[i], times)
            for i, got in enumerate(out)]


# --------------------------------------------------------------------------
# the store
# --------------------------------------------------------------------------

#: process-wide chunk ids: unique across every store, so one shared
#: cache can never alias chunks from different stores or shards
_next_cid = itertools.count(1)
_NEVER = -np.inf    # one object: a float per series is 32 B x 200 k series


@dataclass(frozen=True, slots=True)
class ChunkSummary:
    """Seal-time aggregates of one immutable chunk.

    Computed from the exact arrays the chunk decompresses back to
    (timestamps at millisecond resolution, values bit-exact), so a
    summary-served bucket is indistinguishable from a decompress-served
    one up to float summation order.
    """

    count: int
    t_min: float
    t_max: float
    v_min: float
    v_max: float
    v_sum: float
    v_first: float
    v_last: float


def _summarize(t: np.ndarray, v: np.ndarray) -> ChunkSummary:
    with ieee_sums():
        v_sum = float(np.sum(v))
    return ChunkSummary(
        count=len(t),
        t_min=float(t[0]),
        t_max=float(t[-1]),
        v_min=float(np.min(v)),
        v_max=float(np.max(v)),
        v_sum=v_sum,
        v_first=float(v[0]),
        v_last=float(v[-1]),
    )


@dataclass(slots=True, eq=False)
class SealedChunk:
    """One immutable sealed chunk — the record every layer indexes.

    ``summary`` holds the rounded-ms span (``t_min``/``t_max``) and the
    seal-time aggregates, ``hint`` the XOR block index for fast decode
    (or None), ``ref`` the disk-tier location (None without a tier),
    ``blob`` the resident compressed bytes — ``None`` once spilled or
    archived, when :func:`_chunk_blob` maps it back — and
    ``cid`` the process-unique chunk-cache key.  ``times`` is set only
    on a chunk sealed in a seal group
    (:class:`~repro.storage.rollup.SealGroup`), which reads reach through
    the group, not the series: the group's one read-only, ms-rounded
    time column, shared by its ``K`` chunks — so their chunk-cache
    entries hold values only (:func:`_decode`).  A chunk sealed alone,
    restored or found by a recovery scan has ``times is None``.
    """

    summary: ChunkSummary
    hint: np.ndarray | None
    ref: object | None = None          # diskier.ChunkRef
    blob: bytes | None = None
    cid: int = field(default_factory=_next_cid.__next__)
    times: np.ndarray | None = None    # the seal group's shared column

    @classmethod
    def of(cls, t: np.ndarray, v: np.ndarray, ref=None,
           blob: bytes | None = None) -> "SealedChunk":
        """Record for the exact arrays a chunk decompresses back to."""
        return cls(_summarize(t, v), _xor_token_lens(v), ref, blob)

    @property
    def nbytes(self) -> int:
        return len(self.blob) if self.blob is not None else self.ref.length


@dataclass(frozen=True, slots=True)
class StoreStats:
    series: int
    samples: int
    sealed_chunks: int
    compressed_bytes: int
    raw_bytes: int

    @property
    def compression_ratio(self) -> float:
        if self.compressed_bytes == 0:
            return float("nan")
        return self.raw_bytes / self.compressed_bytes


#: glibc's default ``M_MMAP_THRESHOLD``: from here up ``malloc`` maps too
_MMAP_THRESHOLD = 128 << 10


def _matrix(rows: int, cols: int) -> np.ndarray:
    """A zeroed float64 ``rows x cols`` matrix stored sweep-major — the
    transpose of a C-ordered ``cols x rows`` buffer — so a column is one
    contiguous run and the columns in use one contiguous prefix.  From
    the size the allocator would map anyway, the buffer is an anonymous
    private map: ordinary pages, untouched until written.  *Ordinary*:
    numpy opts arrays of 4 MB and up into transparent huge pages, a
    block is reallocated each time it doubles, and on a virtualised host
    a fresh huge page costs 0.3 to 20 ms/MB to fault in against a
    steady 0.8 for small ones.  *Untouched*: a ``bytearray``'s memset
    faults the new half of a doubled 27,648-row block in inside one
    tick; left alone, each sweep pays for the column it fills.  Smaller
    buffers come from the heap — a map costs whole pages, and most
    blocks hold a row or two."""
    n = 8 * rows * cols
    buf = (bytearray(n) if n < _MMAP_THRESHOLD
           else mmap.mmap(-1, n, flags=mmap.MAP_PRIVATE))
    return np.frombuffer(buf, dtype=np.float64).reshape(cols, rows).T


class _HeadBlock:
    """One metric's series: a components x time value matrix of open
    heads, and the columns that index every series of the metric.

    A series is a row.  The metric's
    :class:`~repro.core.soa.ComponentTable` maps component -> row; row
    ``r`` holds ``counts[r]`` unsealed values in arrival order (``-1``:
    no live series — never created, or dropped), and its series has
    sealed ``sealed[r]`` samples before them.  ``series[r]`` is the
    row's :class:`_Series` record — what a column cannot hold (the chunk
    list) — made at its first seal, restore or recovery scan: a row that
    has never sealed has none.  Rows that seal together are one
    :class:`~repro.storage.rollup.SealGroup` in ``groups``, whose
    ``rows`` are the one record of that membership; ``own_t_max[r]`` is
    the newest chunk row ``r``'s series sealed alone (a seal of one row,
    a restore), ``-inf`` for none.  The
    matrix is stored sweep-major (:func:`_matrix`): a synchronized sweep
    is one contiguous column write, a series' head is a zero-copy
    strided view, and growing the block copies only the columns in use,
    as contiguous runs — the rest of the new matrix stays untouched
    until a sweep reaches it.  Columns double up to ``chunk_size`` (a
    row seals there and starts again at column 0), so a block holds at
    most 16 B per point of its longest head — and that much for every
    row, which is the price of a metric whose components report at very
    different rates.  A matrix of map size (``_MMAP_THRESHOLD``) is
    allocated at ``chunk_size`` columns at once: its unwritten pages
    cost nothing, and a fleet's block never copies itself to widen.

    **Lock-step.**  While every row has seen exactly the same sweeps,
    row ``r``'s sample times are ``times[:counts[r]]`` — a prefix of
    one shared column, 8 B per sweep instead of 8 B per point.  A write
    keeps that true when every row it touches receives the column's own
    next entries: new ones appended at its end, or, bit for bit, the
    ones a split sweep already put there.  The first write that does
    not — a late joiner, a subset sweep never completed, non-uniform or
    out-of-order times, repeated components that do not follow the
    column, a recovery trim — copies the shared column into
    ``row_times`` and the block is *ragged* from then on: the same
    matrix and the same writes, with per-row times beside the values
    (16 B per point).  When the last open sample leaves (a seal storm,
    ``flush``) the block is trivially in lock-step again.
    """

    __slots__ = ("metric", "chunk_size", "tier", "table", "names", "series",
                 "counts", "sealed", "own_t_max", "groups", "values",
                 "times", "n_times", "row_times", "n_head")

    def __init__(self, metric: str, chunk_size: int, tier=None) -> None:
        self.metric = metric
        self.chunk_size = chunk_size
        self.tier = tier            # DiskTier (duck-typed) or None
        self.table = ComponentTable()
        self.names: list[str] = []      # row -> component, filled on demand
        self.series: list[_Series | None] = []      # row -> record, or None
        self.counts = np.empty(0, dtype=np.intp)
        self.sealed = np.empty(0, dtype=np.int64)
        # the newest chunk a row's series holds alone (not in a group)
        self.own_t_max = np.empty(0)
        self.groups: list[SealGroup] = []   # seal groups, in seal order
        self.values = _matrix(0, min(4, chunk_size))
        self.times = np.empty(self.values.shape[1])  # the shared column
        self.n_times = 0
        self.row_times: np.ndarray | None = None    # set while ragged
        self.n_head = 0                             # open samples, all rows

    def _resize(self, rows: int, cols: int) -> None:
        if 8 * rows * cols >= _MMAP_THRESHOLD:
            # a mapped matrix is allocated at full width once: its pages
            # stay untouched until a sweep writes them, and the block
            # never copies its columns to widen again
            cols = self.chunk_size
        old_rows = len(self.counts)
        used = int(self.counts.max(initial=0))  # columns holding a sample
        for name in ("values", "row_times"):
            old = getattr(self, name)
            if old is not None:
                new = _matrix(rows, cols)
                new[:old_rows, :used] = old[:, :used]
                setattr(self, name, new)
        self.times = np.resize(self.times, cols)
        self.counts = np.concatenate(
            (self.counts, np.full(rows - old_rows, -1, dtype=np.intp)))
        self.sealed = np.concatenate(
            (self.sealed, np.zeros(rows - old_rows, dtype=np.int64)))
        self.own_t_max = np.concatenate(
            (self.own_t_max, np.full(rows - old_rows, _NEVER)))
        self.series.extend([None] * (rows - old_rows))

    def fit(self) -> None:
        """A matrix row behind every table row (amortized doubling)."""
        have = len(self.counts)
        if self.table.size > have:
            self._resize(max(self.table.size, 2 * have), self.values.shape[1])

    def _widen(self, col: int) -> None:
        cols = self.values.shape[1]
        if col >= cols:
            self._resize(len(self.counts),
                         min(max(2 * cols, col + 1), self.chunk_size))

    def _unshare(self) -> None:
        if self.row_times is None:
            self.row_times = _matrix(*self.values.shape)
            self.row_times[:, :self.n_times] = self.times[:self.n_times]

    def write(self, rows: slice | np.ndarray, t: np.ndarray,
              v: np.ndarray) -> np.ndarray | None:
        """One sample onto each of ``rows`` (all distinct, an index
        expression of :meth:`ComponentTable.rows`) — the sweep: onto a
        run of rows in lock-step, one contiguous copy into the column.
        Returns the rows now full, in batch order; or None, having
        written nothing, when some row has no live series."""
        c = self.counts[rows]
        lo, hi = int(c.min()), int(c.max())
        if lo < 0:
            return None
        self._widen(hi)     # replaces self.counts: c is not read past here
        if self.row_times is None:
            bits = t.view(np.int64)
            in_step = lo == hi and bool((bits == bits[0]).all())
            if in_step and lo == self.n_times:
                self.times[lo] = t[0]
                self.n_times += 1
            elif not (in_step
                      and self.times[lo:lo + 1].view(np.int64)[0] == bits[0]):
                self._unshare()
        if self.row_times is None:
            self.values[rows, lo] = v
        else:   # each row at its own column: rows pair with counts
            at, c = row_indices(rows), self.counts[rows]
            self.values[at, c] = v
            self.row_times[at, c] = t
        self.counts[rows] += 1
        self.n_head += len(v)
        if hi + 1 < self.chunk_size:    # the common sweep: nothing seals
            return np.empty(0, dtype=np.intp)
        return row_indices(rows)[self.counts[rows] >= self.chunk_size]

    def run(self, row: int, t: np.ndarray, v: np.ndarray) -> int:
        """As many of one row's next samples as its head has room for (a
        single-point batch; one component's share of a batch that
        repeats components); returns how many were taken."""
        c = int(self.counts[row])
        end = min(c + len(t), self.chunk_size)
        if end - c < len(t):
            t, v = t[:end - c], v[:end - c]
        self._widen(end - 1)
        if self.row_times is None:
            if c == self.n_times:       # this row leads: extend the column
                self.times[c:end] = t
                self.n_times = end
            elif (end > self.n_times
                  or self.times[c:end].tobytes() != t.tobytes()):
                self._unshare()
        if self.row_times is not None:
            self.row_times[row, c:end] = t
        self.values[row, c:end] = v
        self.counts[row] = end
        self.n_head += end - c
        return end - c

    def take(self, row, k: int) -> None:
        """Remove the oldest ``k`` samples of a head: all of it when it
        seals (``row`` may be an array of rows holding ``k`` each) or is
        dropped, a prefix when recovery finds them already sealed."""
        c = self.counts[row]
        if np.ndim(row) == 0 and k < c:
            self._unshare()
            for m in (self.values, self.row_times):
                m[row, :c - k] = m[row, k:c]
        self.counts[row] = c - k
        self.n_head -= k * np.size(row)
        if not self.n_head:             # nothing open: lock-step again
            self.n_times, self.row_times = 0, None

    def activate(self, rows) -> int:
        """Make every one of ``rows`` (an index expression) a live, empty
        series where it has none — creating a series is column growth.
        Returns how many rows were made live."""
        c = self.counts[rows]
        new = int(np.count_nonzero(c < 0))
        if new:
            self.counts[rows] = np.maximum(c, 0)
        return new

    def key(self, row: int) -> MetricKey:
        """The key of row ``row``'s series (table rows are in add order)."""
        names = self.names
        if row >= len(names):       # rows registered since: names in order
            names.extend(itertools.islice(self.table.index, len(names),
                                          None))
        return MetricKey(self.metric, names[row])

    def record(self, row: int) -> _Series:
        """Row ``row``'s record, made at its first seal, restore or scan."""
        s = self.series[row]
        if s is None:
            s = self.series[row] = _Series(self.key(row))
        return s

    def adopt(self, row: int, chunk: SealedChunk) -> None:
        """Append one sealed record to a row's series — shared by the
        seal, the manifest restore and the recovery segment scan.  The
        rollup is the caller's to fold: a seal folds its whole group at
        once, the scan the arrays it decoded, the manifest reloads saved
        partials."""
        s = self.record(row)
        s.chunks.append(chunk)
        s.sealed_bytes += chunk.nbytes
        self.sealed[row] += chunk.summary.count
        if chunk.times is None:
            self.own_t_max[row] = max(self.own_t_max[row], chunk.summary.t_max)

    def shared(self) -> dict[int, list[tuple[SealGroup, int]]]:
        """Row -> its ``(group, k)`` of every seal group it is in, in seal
        order: one pass over ``groups``."""
        out: dict[int, list[tuple[SealGroup, int]]] = {}
        for g in self.groups:
            for k, r in enumerate(g.rows.tolist()):
                if r >= 0:
                    out.setdefault(r, []).append((g, k))
        return out

    def drop(self, row: int) -> None:
        """The row's series is gone: it leaves every seal group (one pass
        over ``groups``; a group left with no row goes), its head empties
        and the row holds no live series."""
        keep = []
        for g in self.groups:
            at = (g.rows == row).nonzero()[0]
            if len(at):
                g.drop(int(at[0]))
            if np.count_nonzero(g.rows >= 0):
                keep.append(g)
        self.groups = keep
        self.take(row, int(self.counts[row]))
        self.counts[row] = -1
        self.sealed[row] = 0
        self.own_t_max[row] = _NEVER
        self.series[row] = None

    def export_series(self, levels: Sequence[float]) -> dict:
        """Snapshot-serializable sealed state, one manifest entry per row
        with a record: the chunk index without blobs or cache ids, and
        the row's levels (:func:`~repro.storage.rollup.export_levels`:
        its own pyramid and its rows of the block's seal groups); the
        open heads are :meth:`export_state`'s.
        :meth:`TimeSeriesStore.restore_series` inverts an entry."""
        shared = self.shared()
        return {(s.key.metric, s.key.component): {
                    "chunks": [(c.summary, c.hint, c.ref) for c in s.chunks],
                    "pyramid": export_levels(levels, s.pyramid,
                                             shared.get(r, ())),
                } for r, s in enumerate(self.series) if s is not None}

    def export_state(self) -> dict:
        """Snapshot-serializable open heads (one manifest entry per
        metric): every row by component name; a 1-D ``times`` is the
        shared column, a 2-D one per-row times."""
        n = self.table.size
        shared = self.row_times is None
        hi = self.n_times if shared else int(self.counts[:n].max())
        return {
            "components": list(self.table.index),
            "counts": self.counts[:n],
            "values": self.values[:n, :hi],
            "times": self.times[:hi] if shared else self.row_times[:n, :hi],
        }

    def load(self, state: dict) -> None:
        """Inverse of :meth:`export_state`, onto the empty heads of a
        block whose sealed series :meth:`TimeSeriesStore.restore_series`
        has already rebuilt (rows are matched by name, not by position;
        a series that never sealed becomes live here)."""
        rows = self.table.rows(
            np.asarray(state["components"], dtype=object))[0]
        self.fit()
        values, times = state["values"], state["times"]
        hi = values.shape[1]
        self._widen(hi - 1)
        self.values[rows, :hi] = values
        if times.ndim == 1:
            self.times[:hi] = times
            self.n_times = hi
        else:
            self._unshare()
            self.row_times[rows, :hi] = times
        self.counts[rows] = state["counts"]
        self.n_head = int(state["counts"].clip(0).sum())


class _Series:
    """What one sealed series holds that a block column cannot.

    ``chunks`` is the one chunk index, a list of :class:`SealedChunk`
    records in seal order; :meth:`_HeadBlock.adopt` is the only way a
    record enters it, and ``sealed_bytes`` is its running
    ``sum(c.nbytes)``.  ``pyramid`` holds what the series sealed alone
    (:class:`~repro.storage.rollup.SeriesPyramid`; None while every seal
    was shared with other rows).  A spilled chunk has ``blob is None``
    and is read back through :func:`_chunk_blob` — the single accessor
    every query path uses.  The open head, the sample counts and the
    seal-group membership are its row's, in the block.
    """

    __slots__ = ("key", "chunks", "sealed_bytes", "pyramid")

    def __init__(self, key: MetricKey) -> None:
        self.key = key              # needed for segment records
        self.chunks: list[SealedChunk] = []
        self.sealed_bytes = 0
        self.pyramid: SeriesPyramid | None = None


def _chunk_blob(tier, chunk: SealedChunk):
    """A sealed chunk's blob, resident or mapped from the disk tier.

    Returns ``bytes`` for hot chunks (touching the tier LRU) or a
    zero-copy ``memoryview`` over the segment mmap for spilled ones —
    :func:`decompress_chunk` accepts either.
    """
    blob = chunk.blob
    if blob is not None:
        if tier is not None:
            tier.touch(chunk.cid)
        return blob
    return tier.load(chunk.ref)


#: a resolved selection, one entry per head block holding any of it:
#: row ``rows[i]`` of ``block`` is the series of selection position
#: ``ranks[i]`` (:meth:`SeriesQueryMixin._resolve`)
Selection = list[tuple[_HeadBlock, np.ndarray, np.ndarray]]


def live_selection(blocks: list[_HeadBlock]) -> tuple[list[str], Selection]:
    """Every live row of ``blocks`` (``counts >= 0``) as ``_resolve``'s
    ``(comps, parts)`` for a whole-metric read: ``comps`` the rows'
    components sorted (:meth:`keys` order; a series lives in one block,
    so no name repeats), a row's rank its component's position there.
    One sort over the live names, not one lookup per name per block.
    The arrays are read-only: stores memoize the answer."""
    rows = [np.flatnonzero(b.counts[:b.table.size] >= 0) for b in blocks]
    names = np.concatenate(
        [np.fromiter(b.table.index, dtype=object, count=b.table.size)[r]
         for b, r in zip(blocks, rows)] or [np.empty(0, dtype=object)])
    order = np.argsort(names, kind="stable")
    rank = np.empty(len(order), dtype=np.intp)
    rank[order] = np.arange(len(order))
    parts: Selection = []
    for block, r, k in zip(blocks, rows, np.split(
            rank, np.cumsum([len(r) for r in rows])[:-1])):
        if len(r):
            by_rank = np.argsort(k)
            r, k = r[by_rank], k[by_rank]
            r.flags.writeable = k.flags.writeable = False
            parts.append((block, r, k))
    return names[order].tolist(), parts


def read_series(parts: Selection, n: int, cache: LRUCache,
                t0: float, t1: float) -> list[tuple | None]:
    """The samples with ``t0 <= t < t1`` of every series of a resolved
    selection of ``n`` positions, time-sorted, by position (None where
    no series was found) — the one raw read, for one series or a fleet.
    It works on blocks: every overlapping sealed chunk is probed in the
    chunk cache (a hit or a miss each, as a single read would count
    them), the misses are decoded in one :func:`decompress_chunks` pass
    per entry shape and admitted (:func:`_decode`: a seal group's chunk
    contributes its group's shared time column and its cached values),
    and the open heads are gathered once per head block
    (:func:`~repro.storage.rollup._head_gather`).  A series is then its
    chunks in seal order and its head: only a chunk the window cuts is
    trimmed, and only a concatenation that comes out of order (late
    samples across a seal) is stable-sorted.  No array aliases the
    chunk cache or a head block."""
    out: list = [None] * n
    sealed: dict[int, list[SealedChunk]] = {}   # rank -> overlapping chunks
    wanted: list[tuple[object, SealedChunk]] = []
    for block, rows, ranks in parts if t0 < t1 else ():   # NaN: empty too
        for i in block.sealed[rows].nonzero()[0].tolist():
            series, rank = block.series[rows[i]], int(ranks[i])
            for chunk in series.chunks:
                summ = chunk.summary
                if summ.t_max < t0 or summ.t_min >= t1:
                    continue
                wanted.append((block.tier, chunk))
                sealed.setdefault(rank, []).append(chunk)
    decoded = {chunk.cid: tv
               for (_, chunk), tv in zip(wanted, _decode(wanted, cache))}
    for block, rows, ranks in parts:
        pos, _, ht, hv = _head_gather(block, rows, t0, t1)
        if pos is None:
            out[ranks[0]] = (ht, hv)
            continue
        cuts = np.searchsorted(pos, np.arange(len(ranks) + 1)).tolist()
        for rank, lo, hi in zip(ranks.tolist(), cuts, cuts[1:]):
            out[rank] = (ht[lo:hi], hv[lo:hi])
    for rank, chunks in sealed.items():  # the rest are a head: done
        tp, vp = [], []
        for chunk in chunks:
            ct, cv = decoded[chunk.cid]
            summ = chunk.summary
            if summ.t_min < t0:                 # the window cuts it
                lo = ct.searchsorted(t0)
                ct, cv = ct[lo:], cv[lo:]
            if summ.t_max >= t1:
                hi = ct.searchsorted(t1)
                ct, cv = ct[:hi], cv[:hi]
            tp.append(ct)
            vp.append(cv)
        tp.append(out[rank][0])
        vp.append(out[rank][1])
        t, v = np.concatenate(tp), np.concatenate(vp)
        if np.count_nonzero(t[1:] < t[:-1]):    # late samples across a seal
            order = np.argsort(t, kind="stable")
            t, v = t[order], v[order]
        out[rank] = (t, v)
    return out


def read_latest(parts: Selection, cache: LRUCache, t0: float, t1: float
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(ranks, t, v)``: the positions of a resolved selection whose
    series hold a sample inside ``[t0, t1)``, in position order, and the
    sample each one's :func:`read_series` answer ends with — the newest,
    and among equal times the one last in seal order, then head arrival
    order — bit for bit.  The instant read: per head block, the open
    heads answer every row in one step
    (:func:`~repro.storage.rollup.head_latest`), and sealed data is
    consulted only where it can be newer (:func:`_sealed_latest`)."""
    found = []
    for block, rows, ranks in parts if t0 < t1 else ():   # NaN: empty too
        has, ht, hv = head_latest(block, rows, t0, t1)
        best_t = np.empty(len(rows))
        best_v = np.empty(len(rows))
        best_t[has], best_v[has] = ht, hv
        _sealed_latest(block, rows, has, best_t, best_v, cache, t0, t1)
        found.append((ranks[has], best_t[has], best_v[has]))
    if not found:
        return np.empty(0, dtype=np.intp), np.empty(0), np.empty(0)
    if len(found) == 1:
        return found[0]
    ranks, t, v = (np.concatenate(col) for col in zip(*found))
    order = np.argsort(ranks)       # a series lives in one block
    return ranks[order], t[order], v[order]


def _sealed_latest(block: _HeadBlock, rows: np.ndarray, has: np.ndarray,
                   best_t: np.ndarray, best_v: np.ndarray, cache: LRUCache,
                   t0: float, t1: float) -> None:
    """Let what ``rows`` sealed answer where it is newer than the open
    heads' answer ``(has, best_t, best_v)``, in place.  A sealed sample
    reads before every head sample and a chunk before every later one,
    so it answers only when strictly newer: the chunks are walked newest
    seal first.  The block's seal groups go by span — a group whose
    in-window newest time beats no selected row is skipped without a
    row lookup — and a group's chunks share that time, so one test
    serves all its rows; a row whose own chunks (``own_t_max``) may beat
    its head reads its chunk list instead.  A chunk whose newest sample
    the window holds answers from its summary (``t_max`` / ``v_last``);
    only one the window cuts at ``t1`` is decoded, through
    :func:`_decode`."""
    if not np.count_nonzero(block.sealed[rows]):
        return
    own_t = block.own_t_max[rows]
    own = (own_t >= max(t0, -sys.float_info.max)) & (~has | (own_t > best_t))
    for i in own.nonzero()[0].tolist():     # own chunks: rare (restores)
        for chunk in reversed(block.series[rows[i]].chunks):
            summ = chunk.summary
            if (summ.t_max < t0 or summ.t_min >= t1
                    or has[i] and summ.t_max <= best_t[i]):
                continue
            t, v = summ.t_max, summ.v_last
            if t >= t1:                         # the window cuts it
                ct, cv = _decode([(block.tier, chunk)], cache)[0]
                k = int(ct.searchsorted(t1)) - 1
                t, v = ct[k], cv[k]
                if t < t0 or has[i] and t <= best_t[i]:
                    continue
            best_t[i], best_v[i], has[i] = t, v, True
    walk = (block.sealed[rows] > 0) & ~own
    if not (block.groups and np.count_nonzero(walk)):
        return
    at = np.full(len(block.counts) + 1, -1)     # row -> position; -1: none
    at[rows[walk]] = walk.nonzero()[0]
    settled = bool(has[walk].all())
    floor = best_t[walk].min() if settled else -np.inf
    for g in reversed(block.groups):
        if g.t_max < t0 or g.t_min >= t1:
            continue
        k = g.n - 1 if g.t_max < t1 else int(g.times.searchsorted(t1)) - 1
        t = g.times[k]
        if t < t0 or settled and t <= floor:
            continue
        pos = at[g.rows]
        ks = (pos >= 0).nonzero()[0]
        i = pos[ks]
        newer = ~has[i] | (t > best_t[i])
        ks, i = ks[newer], i[newer]
        if not len(ks):
            continue
        chunks = [g.chunks[j] for j in ks.tolist()]
        best_v[i] = ([c.summary.v_last for c in chunks] if k == g.n - 1
                     else [cv[k] for _, cv in _decode(
                         [(block.tier, c) for c in chunks], cache)])
        best_t[i] = t
        has[i] = True
        if settled or has[walk].all():
            settled, floor = True, best_t[walk].min()


def _decode(wanted: list[tuple[object, SealedChunk]], cache: LRUCache
            ) -> list[tuple[np.ndarray, np.ndarray]]:
    """The ``(times, values)`` of each ``(tier, chunk)`` — the one place
    chunk-cache entries are made.  Every chunk is probed in the cache in
    turn (a hit or a miss each, as a single read would count them)
    before its blob is touched — a hit on a resident blob keeps its
    place in the tier's LRU, as reading it would, and a spilled one is
    not loaded at all.  A seal group's chunk is cached as its values
    alone (8 B a sample) and answered with its group's shared column,
    ``chunk.times``; any other chunk as ``(times, values)`` (16 B a
    sample).  The misses of each shape are decoded in one
    :func:`decompress_chunks` pass — a grouped one's timestamp section is
    skipped, not decoded — and admitted read-only."""
    got: list = []
    # own chunks, then grouped ones: positions in ``got`` and blobs
    missed: tuple[list[int], list[int]] = ([], [])
    blobs: tuple[list[tuple], list[tuple]] = ([], [])
    for tier, chunk in wanted:
        hit = cache.get(chunk.cid)
        if hit is None:
            shape = chunk.times is not None
            missed[shape].append(len(got))
            blobs[shape].append((_chunk_blob(tier, chunk), chunk.hint))
        else:
            if chunk.blob is not None and tier is not None:
                tier.touch(chunk.cid)
            if chunk.times is not None:
                hit = (chunk.times, hit)
        got.append(hit)
    for i, (t, v) in zip(missed[0], decompress_chunks(blobs[0])):
        t.flags.writeable = v.flags.writeable = False
        got[i] = (t, v)
        cache.put(wanted[i][1].cid, got[i], t.nbytes + v.nbytes)
    for i, v in zip(missed[1], decompress_chunks(blobs[1], times=False)):
        chunk = wanted[i][1]
        v.flags.writeable = False
        got[i] = (chunk.times, v)
        cache.put(chunk.cid, v, v.nbytes)
    return got


# --------------------------------------------------------------------------
# vectorized bucketing helpers (shared by downsample / aggregate_across)
# --------------------------------------------------------------------------

def _bucket_starts(t: np.ndarray, anchor: float,
                   step: float) -> tuple[np.ndarray, np.ndarray]:
    """Bucket ids and segment starts of a time-sorted array.

    ``anchor`` is the grid origin from
    :func:`~repro.storage.rollup.bucket_anchor` — always a step-grid
    point, so raw bucketing, summary pruning, and the rollup pyramids
    all agree on bucket boundaries.
    """
    buckets = np.floor((t - anchor) / step).astype(np.int64)
    cuts = np.flatnonzero(buckets[1:] != buckets[:-1]) + 1
    starts = np.concatenate(([0], cuts))
    return buckets, starts


def _bucket_agg(
    t: np.ndarray, v: np.ndarray, anchor: float, step: float, agg: str
) -> tuple[np.ndarray, np.ndarray]:
    """One reduceat pass over a time-sorted series -> (bucket_t, agg_v)."""
    buckets, starts = _bucket_starts(t, anchor, step)
    out_t = anchor + buckets[starts] * step
    if agg == "sum":
        with ieee_sums():
            out_v = np.add.reduceat(v, starts)
    elif agg == "mean":
        counts = np.diff(np.append(starts, len(v)))
        with ieee_sums():
            out_v = np.add.reduceat(v, starts) / counts
    elif agg == "min":
        out_v = np.minimum.reduceat(v, starts)
    elif agg == "max":
        out_v = np.maximum.reduceat(v, starts)
    elif agg == "last":
        ends = np.append(starts[1:], len(v))
        out_v = v[ends - 1]
    else:                              # count
        out_v = np.diff(np.append(starts, len(v))).astype(np.float64)
    return out_t, out_v


class SeriesQueryMixin:
    """Query-layer methods shared by every store with the series API.

    Anything exposing ``pyramid_levels``, a chunk ``cache``,
    ``_blocks_of(metric)`` (the metric's head blocks that reads can
    reach), ``_resolve_all(metric)`` (a whole-metric selection) and
    ``_series_view(metric, component)`` (one
    series' ``(record, cache, block, row)``, or None when reads cannot
    reach it) gets range queries over one series or many, downsampling, and
    cross-component aggregation for free — this is what lets
    :class:`~repro.storage.sharded.ShardedTimeSeriesStore` present the
    exact single-store query surface over K shards.

    A selection is resolved once, as rows of head blocks
    (:meth:`_resolve`); nothing downstream looks a series up by name.
    Raw answers (``query``, ``query_components``) are one
    :func:`read_series`, which reads sealed chunks and open heads a
    block at a time.  Bucketed answers come two ways: the raw concat +
    ``_bucket_agg``
    reference (``aggregate_across``, ``downsample(prune=False)``) and
    the one bucketed read over partial columns (``_bucketed_read``:
    ``downsample(prune=True)`` and the serving plane), which never
    decompresses a chunk a rollup row or seal-time summary can answer.
    """

    def query(
        self,
        metric: str,
        component: str,
        t0: float = -np.inf,
        t1: float = np.inf,
    ) -> SeriesBatch:
        """Range query one series -> time-sorted batch (empty when the
        series is missing or reads cannot reach it)."""
        component = str(component)
        view = self._series_view(metric, component)
        if view is None:
            return SeriesBatch.empty(metric)
        _, cache, block, row = view
        part = (block, np.array([row]), np.zeros(1, dtype=np.intp))
        return SeriesBatch.for_component(
            metric, component, *read_series([part], 1, cache, t0, t1)[0])

    def query_components(
        self,
        metric: str,
        components: Sequence[str] | None = None,
        t0: float = -np.inf,
        t1: float = np.inf,
    ) -> dict[str, SeriesBatch]:
        """Range query many series at once (drill-down working set, or
        with ``components=None`` the whole fleet): one
        :func:`read_series` over the resolved selection, keyed by the
        selection's components (empty where reads reach no series).
        Every answer's ``components`` is a read-only zero-stride view
        into one column of the selection's names."""
        comps, parts = self._resolve(metric, components)
        got = read_series(parts, len(comps), self.cache, t0, t1)
        names = np.array(comps, dtype=object)
        size = names.itemsize
        out = {}
        for i, (c, tv) in enumerate(zip(comps, got)):
            if tv is None:
                out[c] = SeriesBatch.empty(metric)
                continue
            column = np.ndarray(tv[0].shape, object, names, i * size, (0,))
            column.setflags(write=False)
            out[c] = SeriesBatch.trusted(metric, column, *tv)
        return out

    def latest(
        self,
        metric: str,
        components: Sequence[str] | None = None,
        t0: float = -np.inf,
        t1: float = np.inf,
    ) -> SeriesBatch:
        """Each series' newest sample in ``[t0, t1)`` as one sweep-shaped
        batch — what a status tile shows: one entry per series of the
        selection (:meth:`_resolve`) that has a sample there, in
        selection order, each bit for bit the last sample of its
        :meth:`query_components` answer (:func:`read_latest`)."""
        comps, parts = self._resolve(metric, components)
        ranks, t, v = read_latest(parts, self.cache, t0, t1)
        return SeriesBatch.trusted(
            metric, np.array(comps, dtype=object)[ranks], t, v)

    def downsample(
        self,
        metric: str,
        component: str,
        t0: float,
        t1: float,
        step: float,
        agg: str = "mean",
        prune: bool = True,
    ) -> SeriesBatch:
        """Server-side downsampling into fixed buckets of ``step`` seconds.

        Empty buckets are omitted (not NaN-filled); bucket timestamps are
        the bucket start on the *step-aligned grid*
        (:func:`~repro.storage.rollup.bucket_anchor`), so a window whose
        ``t0`` is not step-aligned still lands on the same boundaries as
        every other query path — the first bucket may start before
        ``t0``, while the sample filter itself stays ``[t0, t1)``.  With
        ``prune=True`` (default) whole buckets are answered from rollup
        rows and sealed chunks wholly inside one bucket from chunk
        summaries, without decompression; ``prune=False`` forces the
        decompress path (the equivalence oracle and the cold-vs-warm
        benchmark).
        """
        if prune:
            return self._bucketed_read(metric, [component], t0, t1, step,
                                       agg, component)[0]
        check_bucketing(agg, step)
        raw = self.query(metric, component, t0, t1)
        if not len(raw):
            return SeriesBatch.empty(metric)
        anchor = bucket_anchor(t0 if np.isfinite(t0) else float(raw.times[0]),
                               step)
        out_t, out_v = _bucket_agg(raw.times, raw.values, anchor, step, agg)
        return SeriesBatch.for_component(metric, component, out_t, out_v)

    def _resolve(self, metric: str, components: Sequence[str] | None
                 ) -> tuple[list[str], Selection]:
        """A selection as rows: ``(comps, parts)``.  ``comps`` is the
        selection as reads key it — str components, a repeat counted
        once at its first position (``None``: the metric's components,
        in :meth:`keys` order); ``parts`` holds, per head block that
        reads can reach and that holds any of it, the block's rows and
        their positions in ``comps`` — the ranks that order ``last``
        tie-breaks.  Unknown components and dropped rows are left out.
        One dict pass per block: a series lives in exactly one block, so
        on a sharded store most blocks hold none of a small selection.
        ``None`` is every live row, looked up by no name
        (:meth:`_resolve_all`)."""
        if components is None:
            return self._resolve_all(metric)
        comps = list(dict.fromkeys(map(str, components)))
        parts: Selection = []
        for block in self._blocks_of(metric):
            rows = list(map(block.table.index.get, comps, itertools.repeat(-1)))
            if max(rows, default=-1) < 0:
                continue
            rows = np.array(rows, dtype=np.intp)
            ranks = (rows >= 0).nonzero()[0]
            ranks = ranks[block.counts[rows[ranks]] >= 0]
            if len(ranks):
                parts.append((block, rows[ranks], ranks))
        return comps, parts

    def first_time(self, metric: str,
                   components: Sequence[str] | None = None) -> float:
        """Earliest sample time across a selection (``inf`` when it holds
        none): where an unbounded bucketed read anchors its grid."""
        parts = self._resolve(metric, components)[1]
        return min(itertools.chain(
            (c.summary.t_min for block, rows, _ in parts
             for row in rows[block.sealed[rows] > 0].tolist()
             for c in block.series[row].chunks),
            (head_first_time(block, rows) for block, rows, _ in parts)),
            default=np.inf)

    def bucket_partials(
        self,
        metric: str,
        components: Sequence[str] | None,
        t0: float,
        t1: float,
        step: float,
        anchor: float,
    ) -> tuple[list[tuple[np.ndarray, ...]], list[int | np.ndarray], bool]:
        """The partials step of a bucketed read: ``(pieces, piece_comp,
        rollup)`` for ``components`` of a metric over ``[t0, t1)`` on the
        ``(anchor, step)`` grid, ready for
        :func:`~repro.storage.rollup.reduce_partials`, and whether rollup
        rows answered the whole buckets of the window.

        A piece ranks by its component's position in the selection (so
        ``last`` tie-breaks agree with the raw path); unreadable or
        missing series contribute nothing, an empty window or a
        non-finite anchor nothing at all.  Per head block the selection
        touches (one on a plain store, at most one per shard): each seal
        group whose span meets the window, for all of its selected rows
        at once (:func:`~repro.storage.rollup.group_partials`: a group
        piece ranked by a ``(K,)`` column), what a row's series sealed
        alone — a seal of one row, a restore — series by series, only
        for rows that have some reaching ``t0``
        (:func:`~repro.storage.rollup.series_partials`, under one
        ``window_plan``), and the open heads with one
        :func:`~repro.storage.rollup.head_partials`.  A lock-step fleet
        therefore makes no per-series call at all.  Rollup rows come back
        as ordinary pieces already on the query grid, one row per seal
        and bucket: the rows of a bucket meet only in ``reduce_partials``.
        """
        if not (t0 < t1 and np.isfinite(anchor)):
            return [], [], False
        parts = self._resolve(metric, components)[1]
        plan = window_plan(self.pyramid_levels, t0, t1, step, anchor)
        pieces: list[tuple[np.ndarray, ...]] = []
        piece_comp: list[int | np.ndarray] = []
        for block, rows, ranks in parts:
            groups = [g for g in block.groups
                      if g.t_max >= t0 and g.t_min < t1]
            if groups:
                # row -> selection rank; the extra last slot answers a
                # dropped row (-1) with -1
                rank_of = np.full(len(block.counts) + 1, -1)
                rank_of[rows] = ranks
            for group in groups:
                ps, comp = group_partials(
                    group, rank_of[group.rows],
                    lambda ks, g=group: _decode(
                        [(block.tier, g.chunks[k]) for k in ks.tolist()],
                        self.cache),
                    t0, t1, step, anchor, plan)
                pieces.extend(ps)
                piece_comp.extend([comp] * len(ps))
            seq_base = block.sealed[rows]
            # rows whose own chunks reach t0 (none: own_t_max is -inf)
            own = block.own_t_max[rows] >= max(t0, -sys.float_info.max)
            for i in own.nonzero()[0].tolist():
                ps = series_partials(  # per-sample: allowed (own chunks)
                    block.series[rows[i]],
                    lambda c, tier=block.tier: _decode([(tier, c)],
                                                       self.cache)[0],
                    t0, t1, step, anchor, plan)
                pieces.extend(ps)
                piece_comp.extend([ranks[i]] * len(ps))
            piece, owner = head_partials(block, rows, seq_base,
                                         t0, t1, step, anchor)
            pieces.append(piece)
            piece_comp.append(ranks[owner])
        return pieces, piece_comp, bool(parts) and plan is not None

    def _bucketed_read(
        self,
        metric: str,
        components: Sequence[str] | None,
        t0: float,
        t1: float,
        step: float,
        agg: str,
        label: str,
    ) -> tuple[SeriesBatch, bool]:
        """The one bucketed read: ``components`` of a metric reduced onto
        the step grid as the series ``label``, and whether rollup rows
        answered the whole buckets of the window — :meth:`first_time`
        (an unbounded ``t0`` anchors the grid at the selection's first
        sample), :meth:`bucket_partials`, one ``reduce_partials``.
        """
        check_bucketing(agg, step)
        lo = self.first_time(metric, components) if t0 == -np.inf else t0
        anchor = bucket_anchor(lo, step)
        pieces, piece_comp, rollup = self.bucket_partials(
            metric, components, t0, t1, step, anchor)
        out_t, out_v = reduce_partials(pieces, anchor, step, agg,
                                       piece_comp=piece_comp)
        if not len(out_t):
            return SeriesBatch.empty(metric), rollup
        return SeriesBatch.for_component(metric, label, out_t, out_v), rollup

    def aggregate_across(
        self,
        metric: str,
        components: Sequence[str] | None = None,
        t0: float = -np.inf,
        t1: float = np.inf,
        step: float = 60.0,
        agg: str = "sum",
    ) -> SeriesBatch:
        """Aggregate a metric across components into one series.

        This is the Figure 4 "system aggregate" view: e.g. ``fs.read_bps``
        summed over all OSTs per time bucket.  Samples are time-sorted
        across components before bucketing, so order-sensitive aggs
        (``last``) see the true latest sample, not whichever component
        iterated last.  Buckets sit on the step-aligned grid anchored at
        ``bucket_anchor(t0, step)`` (or at the first sample when ``t0``
        is unbounded), matching every other bucketing path.
        """
        check_bucketing(agg, step)
        per_comp = self.query_components(metric, components, t0, t1)
        ts: list[np.ndarray] = []
        vs: list[np.ndarray] = []
        for batch in per_comp.values():
            if len(batch):
                ts.append(batch.times)
                vs.append(batch.values)
        if not ts:
            return SeriesBatch.empty(metric)
        t = np.concatenate(ts)
        v = np.concatenate(vs)
        order = np.argsort(t, kind="stable")
        t, v = t[order], v[order]
        lo = float(t[0]) if not np.isfinite(t0) else t0
        out_t, out_v = _bucket_agg(t, v, bucket_anchor(lo, step), step, agg)
        return SeriesBatch.for_component(metric, f"agg({agg})", out_t, out_v)


class TimeSeriesStore(SeriesQueryMixin):
    """TSDB over (metric, component)-keyed series, in memory or — given
    ``disk=`` — over a :class:`~repro.storage.diskier.DiskTier`.

    A store is opened one way: constructing it over a tier restores what
    the tier's directory holds (manifest, segments, WAL) and leaves a
    :class:`~repro.storage.diskier.RecoveryReport` on ``recovery`` — all
    zeros over an empty directory, ``None`` without a tier.  A restart
    and a crash recovery are therefore the same call, :meth:`reopen`;
    :meth:`simulate_crash` and :meth:`close` end this instance's use of
    its tier.
    """

    def __init__(self, chunk_size: int = 512,
                 cache: LRUCache | None = None,
                 pyramid_levels: Sequence[float] = DEFAULT_LEVELS,
                 disk=None) -> None:
        try:    # a refused shape leaves no handle behind
            if chunk_size < 2:
                raise ValueError("chunk_size must be >= 2")
            self.pyramid_levels = check_levels(pyramid_levels)
        except ValueError:
            if disk is not None:
                disk.close()
            raise
        self.chunk_size = int(chunk_size)
        # optional out-of-core tier (repro.storage.diskier.DiskTier,
        # duck-typed): sealed blobs persist to segments, appends are
        # WAL-logged, and the resident set is budget-bounded
        self.disk = disk
        # the decompressed-chunk cache may be shared (the sharded store
        # passes one instance to every shard for a global memory bound)
        self.cache = (cache if cache is not None
                      else LRUCache(CHUNK_CACHE_BYTES))
        # metric -> its series: the one series index (a series is a row)
        self._blocks: dict[str, _HeadBlock] = {}
        # metric -> [its keys, sorted; every live row as a selection
        # (None until a whole-metric read asks)]: an entry is dropped
        # whenever a series of the metric is created (restored
        # included) or dropped
        self._metric_keys: dict[str, list] = {}
        # per-metric mutation epochs: bumped on any change that can alter
        # query results, so the serving plane's result cache invalidates
        # precisely (stale entries die, untouched metrics keep serving)
        self._epochs: dict[str, int] = {}
        # aggregate counters so stats() is O(1), not a walk over every
        # series — the self-monitoring plane reads it on a cadence
        self._n_series = 0
        self._samples = 0
        self._sealed_samples = 0
        self._sealed_chunks = 0
        self._sealed_bytes = 0
        self.recovery = None
        if disk is not None:
            try:
                self.recovery = disk.restore(self)
            except BaseException:
                disk.close()    # a refused open leaves no handle behind
                raise

    def _note_seal(self, chunks: int, samples: int, nbytes: int) -> None:
        self._sealed_chunks += chunks
        self._sealed_samples += samples
        self._sealed_bytes += nbytes

    def _block(self, metric: str) -> _HeadBlock:
        block = self._blocks.get(metric)
        if block is None:
            block = self._blocks[metric] = _HeadBlock(
                metric, self.chunk_size, self.disk)
        return block

    def _activate(self, block: _HeadBlock, rows) -> None:
        """Rows of ``block`` (registered in its table) become live series
        where they are not: column growth, one step for a whole batch."""
        block.fit()
        new = block.activate(rows)
        if new:
            self._n_series += new
            self._metric_keys.pop(block.metric, None)

    def _row(self, key: MetricKey) -> tuple[_HeadBlock, int]:
        """The block and row of one series, made live if it is not."""
        block = self._block(key.metric)
        row = block.table.add(key.component)
        self._activate(block, row)
        return block, row

    def _run(self, block: _HeadBlock, row: int, t: np.ndarray,
             v: np.ndarray) -> None:
        """One series' next samples in arrival order, sealing every
        time its head fills."""
        i = 0
        while i < len(t):
            i += block.run(row, t[i:], v[i:])
            if block.counts[row] >= self.chunk_size:
                self._seal_rows(block, np.array([row]))

    def _seal_rows(self, block: _HeadBlock, rows: np.ndarray) -> None:
        """Seal the open heads (each non-empty) of ``rows`` of one block, in
        order — the one seal.  Consecutive lock-step rows of equal length
        share their times and seal as one group, ``_SLAB_SAMPLES`` samples
        (~50 B each) at a time; a ragged block's rows go one by one."""
        counts = block.counts[rows]
        cuts = (np.arange(1, len(rows)) if block.row_times is not None
                else np.flatnonzero(counts[1:] != counts[:-1]) + 1).tolist()
        for lo, hi in zip([0] + cuts, cuts + [len(rows)]):
            per = max(1, _SLAB_SAMPLES // int(counts[lo]))
            for at in range(lo, hi, per):
                self._seal_group(block, rows[at:min(at + per, hi)])

    def _seal_group(self, block: _HeadBlock, rows: np.ndarray) -> None:
        """One pass over rows of equal length and times: what they share
        (time order, ms rounding, timestamp section, bucket columns) is
        computed once, the XOR sections, summaries and folds as ``(K, n)``
        matrices; per row, the record, the segment append and the index
        — bit for bit what sealing the row alone produces.  Two rows or
        more keep their fold as one :class:`~repro.storage.rollup.SealGroup`
        of the block, which alone records that they are in it; a row
        sealed alone keeps its own one-row pieces in its record's
        pyramid."""
        n = int(block.counts[rows[0]])
        t = (block.times if block.row_times is None
             else block.row_times[rows[0]])[:n]
        # time on the contiguous axis: a row's sums add in the row's order
        v = np.ascontiguousarray(block.values[rows, :n])
        if np.count_nonzero(t[1:] < t[:-1]):    # out of order: one permutation
            order = np.argsort(t, kind="stable")
            t, v = t[order], np.ascontiguousarray(v[:, order])
        coded = compress_chunks(t, v)
        # span + summary use the codec's ms rounding, so they describe
        # exactly what the chunk decompresses back to
        t = np.round(t * 1000.0).astype(np.int64).astype(np.float64) / 1000.0
        t_min, t_max = float(t[0]), float(t[-1])
        with ieee_sums():
            v_sum = v.sum(axis=1)
        stats = zip(*(c.tolist() for c in (v.min(axis=1), v.max(axis=1),
                                           v_sum, v[:, 0], v[:, -1])))
        levels = self.pyramid_levels
        seq_base = block.sealed[rows]
        pieces = fold_group(levels, t, v, seq_base)
        group = None if len(rows) == 1 else SealGroup(
            rows, seq_base, t, dict(zip(levels, pieces)))
        shared = None if group is None else group.times
        done = 0
        try:
            for r, (blob, hint), stat in zip(rows.tolist(), coded, stats):
                chunk = SealedChunk(ChunkSummary(n, t_min, t_max, *stat),
                                    hint, blob=blob, times=shared)
                s = block.record(r)
                if self.disk is not None:
                    # persist the immutable blob now; spill to budget after
                    self.disk.on_seal(s.key, chunk)
                if group is None:
                    if s.pyramid is None:
                        s.pyramid = SeriesPyramid(levels)
                    memo: dict = {}
                    s.pyramid.add_folded([row_piece(p, 0, memo)
                                          for p in pieces])
                else:
                    group.chunks.append(chunk)
                block.adopt(r, chunk)
                done += 1
        finally:    # a failed segment append leaves every row sealed or open
            block.take(rows[:done], n)
            if group is not None and done:
                group.rows[done:] = -1          # still open: not the group's
                group.chunks += [None] * (len(rows) - done)
                block.groups.append(group)
            self._note_seal(done, done * n,
                            sum(len(blob) for blob, _ in coded[:done]))
        if self.disk is not None:
            self.disk.enforce_budget()

    # -- ingest ---------------------------------------------------------------

    def append(self, batch: SeriesBatch) -> int:
        """Ingest a batch; returns the number of samples stored.

        Components map to rows of the metric's head block through its
        :class:`~repro.core.soa.ComponentTable` (memoized on the
        identity of the components array, which fleet collectors
        republish every tick), and a batch of distinct components — the
        synchronized sweep — is one column write, one vectorised
        ``count >= chunk_size`` test, and one block seal of the rows
        that filled, in batch order.  Its new series are one more
        vectorised step: their rows become live, and nothing else is
        made for them until they seal.  Whether the block keeps one
        shared time column or goes ragged is :class:`_HeadBlock`'s rule.
        A batch that repeats components hands each series its samples
        as one run, in component order.
        """
        n = len(batch)
        if n == 0:
            return 0
        metric = batch.metric
        self._epochs[metric] = self._epochs.get(metric, 0) + 1
        if self.disk is not None:
            # WAL before any head mutation: unsealed points survive a
            # crash up to the last fsync batch
            self.disk.wal_append(batch)
        self._samples += n
        times, values = batch.times, batch.values
        block = self._block(metric)
        if n == 1:
            # a single point is a run of one: no array-sized work
            row = block.table.row(batch.components[0])
            if row is not None and block.counts[row] >= 0:
                self._run(block, row, times, values)
                return n
        rows, unique = block.table.rows(batch.components)
        block.fit()
        if unique:
            full = block.write(rows, times, values)
            if full is None:    # no live series yet: new, or dropped
                self._activate(block, rows)
                full = block.write(rows, times, values)
            if len(full):
                self._seal_rows(block, full)
            return n
        uniq, inv = np.unique(batch.components.astype(str),
                              return_inverse=True)
        order = np.argsort(inv, kind="stable")
        bounds = np.concatenate(
            ([0], np.cumsum(np.bincount(inv, minlength=len(uniq))))
        )
        st, sv = times[order], values[order]
        for g in range(len(uniq)):
            row = block.table.add(str(uniq[g]))
            self._activate(block, row)
            self._run(block, row, st[bounds[g] : bounds[g + 1]],
                      sv[bounds[g] : bounds[g + 1]])
        return n

    def append_many(self, batches: Iterable[SeriesBatch]) -> int:
        return sum(self.append(b) for b in batches)

    def flush(self) -> None:
        """Seal every open head chunk (checkpoint before archiving), block
        by block: a series' chunks keep its arrival order, the segment
        records of one flush go by metric (first appearance), then row."""
        for block in self._blocks.values():
            rows = np.flatnonzero(block.counts > 0)
            if len(rows):
                self._seal_rows(block, rows)
        if self.disk is not None:
            self.disk.sync()

    # -- query ---------------------------------------------------------------

    def keys(self, metric: str | None = None) -> list[MetricKey]:
        if metric is None:
            return sorted((k for m in self._blocks
                           for k in self._sorted_keys(m)), key=str)
        return list(self._sorted_keys(metric))

    def _sorted_keys(self, metric: str) -> list[MetricKey]:
        """The metric's keys, sorted: the live rows of its block's table
        (``counts >= 0``), one memoized list, replaced (never mutated)
        when a series of the metric is created or dropped."""
        return self._memo(metric)[0]

    def _memo(self, metric: str) -> list:
        """The metric's ``_metric_keys`` entry, built on first use."""
        memo = self._metric_keys.get(metric)
        if memo is None:
            block = self._blocks.get(metric)
            live = [] if block is None else (
                block.counts[:block.table.size] >= 0).tolist()
            memo = self._metric_keys[metric] = [sorted(
                (MetricKey(metric, c) for c, ok in zip(block.table.index,
                                                       live) if ok),
                key=str) if live else [], None]
        return memo

    def components(self, metric: str) -> list[str]:
        return [k.component for k in self.keys(metric)]

    def _resolve_all(self, metric: str) -> tuple[list[str], Selection]:
        """``_resolve(metric, None)``: :func:`live_selection`, memoized
        with the metric's sorted keys (dropped whenever a series of the
        metric is created or dropped)."""
        memo = self._memo(metric)
        if memo[1] is None:
            memo[1] = live_selection(self._blocks_of(metric))
        return memo[1]

    def _blocks_of(self, metric: str) -> list[_HeadBlock]:
        """The metric's head block, the one a selection resolves in."""
        block = self._blocks.get(metric)
        return [] if block is None else [block]

    def _live_row(self, metric: str, component: str
                  ) -> tuple[_HeadBlock, int] | None:
        """The block and row of one live series, or None."""
        block = self._blocks.get(metric)
        row = None if block is None else block.table.row(component)
        if row is None or block.counts[row] < 0:
            return None
        return block, row

    def _series_view(
        self, metric: str, component: str
    ) -> tuple[_Series | None, LRUCache, _HeadBlock, int] | None:
        """One series' record (None until it seals), the chunk cache and
        its block and row: a single-series read."""
        at = self._live_row(metric, component)
        if at is None:
            return None
        block, row = at
        return block.series[row], self.cache, block, row

    def query_epoch(self, metric: str) -> int:
        """Mutation epoch of a metric — the serving plane's result-cache
        validity token.  Any append or drop touching the metric bumps
        it; an unchanged epoch guarantees every query answer for the
        metric is still exact."""
        return self._epochs.get(metric, 0)

    # -- maintenance / stats ---------------------------------------------------

    def drop_series(self, metric: str, component: str) -> bool:
        at = self._live_row(metric, component)
        if at is None:
            return False
        block, row = at
        self._epochs[metric] = self._epochs.get(metric, 0) + 1
        self._metric_keys.pop(metric, None)
        s = block.series[row]
        if s is not None:
            if self.disk is not None:
                self.disk.forget(s)
            self.cache.invalidate(c.cid for c in s.chunks)
            self._sealed_chunks -= len(s.chunks)
            self._sealed_bytes -= s.sealed_bytes
        sealed = int(block.sealed[row])
        self._n_series -= 1
        self._samples -= sealed + int(block.counts[row])
        self._sealed_samples -= sealed
        block.drop(row)
        return True

    def stats(self) -> StoreStats:
        # from counters maintained at every mutation point, O(metrics)
        # not O(series): the self-monitoring plane reads this on a
        # cadence, against thousands of series.  Open heads count what
        # is held: 8 B per value, plus 8 B per shared time-column entry
        # of a lock-step block or per point of a ragged one
        head = self._samples - self._sealed_samples
        time_cells = sum(b.n_times if b.row_times is None else b.n_head
                         for b in self._blocks.values())
        return StoreStats(
            series=self._n_series,
            samples=self._samples,
            sealed_chunks=self._sealed_chunks,
            compressed_bytes=self._sealed_bytes + 8 * (head + time_cells),
            raw_bytes=self._samples * 16,  # float64 time + float64 value
        )

    def cache_stats(self) -> CacheStats:
        """Counters of the decompressed-chunk cache (selfmon surface)."""
        return self.cache.stats()

    # hierarchical storage: archive / locate over the disk tier ----------------

    def archive_before(self, t_cut: float) -> int:
        """Demote every sealed chunk wholly before ``t_cut`` to its
        disk-tier ref; returns the number newly demoted.

        Age-based counterpart of the tier's budget spill: the blobs are
        already in segment files, so nothing is lost — queries still
        answer exactly (reads reload through the segment mmap), and no
        counter or epoch changes.  Raises without a disk tier, like
        :meth:`snapshot`.
        """
        if self.disk is None:
            raise RuntimeError("archive_before() requires a disk tier")
        demoted = [c.cid for block in self._blocks.values()
                   for s in block.series if s is not None for c in s.chunks
                   if c.summary.t_max < t_cut and self.disk.demote(c)]
        # release the decompressed copies too — demotion exists to
        # shrink the resident set
        self.cache.invalidate(demoted)
        return len(demoted)

    def locate_archived(
        self, metric: str, component: str
    ) -> list[tuple[tuple[float, float], object]]:
        """``((t_min, t_max), ChunkRef)`` of each chunk of one series
        that lives only on disk (archived or budget-spilled), oldest
        first — the catalog of what is cold and where."""
        view = self._series_view(metric, component)
        if view is None or view[0] is None:
            return []
        return [((c.summary.t_min, c.summary.t_max), c.ref)
                for c in view[0].chunks if c.blob is None]

    # hooks used by the out-of-core disk tier -----------------------------------

    def restore_series(self, key: MetricKey, state: dict) -> int:
        """Recovery: rebuild one series' sealed state from its manifest
        entry (the inverse of :meth:`_HeadBlock.export_series`); returns
        its chunk count.  Every chunk comes back ref-only and the levels
        reload as the series' own pyramid, so nothing is decompressed.
        An entry with no chunks (a manifest that listed series that had
        never sealed) makes the row live and nothing else."""
        block, row = self._row(key)
        chunks = state["chunks"]
        if chunks:
            block.record(row).pyramid = SeriesPyramid.from_state(
                state["pyramid"], self.pyramid_levels)
        for summary, hint, ref in chunks:
            chunk = SealedChunk(summary, hint, ref)
            block.adopt(row, chunk)
            self._note_seal(1, summary.count, chunk.nbytes)
        self._samples += int(block.sealed[row])
        return len(chunks)

    def restore_heads(self, metric: str, state: dict) -> None:
        """Recovery: reload one metric's open heads from its manifest
        entry (the inverse of :meth:`_HeadBlock.export_state`), after
        :meth:`restore_series` has rebuilt the metric's sealed series."""
        block = self._block(metric)
        live = np.count_nonzero(block.counts >= 0)
        block.load(state)
        self._n_series += np.count_nonzero(block.counts >= 0) - live
        self._metric_keys.pop(metric, None)
        self._samples += block.n_head

    def adopt_chunk(self, key: MetricKey, chunk: SealedChunk,
                    t: np.ndarray, v: np.ndarray) -> int:
        """Recovery: install a chunk the segment scan found past the
        manifest.  It was sealed from the front of the series' unsealed
        arrival stream ``[restored head | WAL records]``, so that many
        samples leave the head; returns how many were *not* in it — the
        caller skips that many of the series' WAL points."""
        block, row = self._row(key)
        n = chunk.summary.count
        in_head = min(n, int(block.counts[row]))
        block.take(row, in_head)
        s = block.record(row)
        if s.pyramid is None:
            s.pyramid = SeriesPyramid(self.pyramid_levels)
        s.pyramid.add_sealed(t, v, int(block.sealed[row]))
        block.adopt(row, chunk)
        self._samples += n - in_head
        self._note_seal(1, n, chunk.nbytes)
        return n - in_head

    def disk_stats(self):
        """Disk-tier counters, or None when running in-memory only."""
        return self.disk.stats() if self.disk is not None else None

    def snapshot(self):
        """Write a disk-tier manifest (series index + pyramid partials
        + heads) and rotate the WAL; returns the manifest path."""
        if self.disk is None:
            raise RuntimeError("snapshot() requires a disk tier")
        return self.disk.snapshot(self)

    def reopen(self) -> "TimeSeriesStore":
        """A new store of the same declared shape and tier budgets over
        the same directory — what a restart does, after :meth:`close` or
        :meth:`simulate_crash` (without a tier: an empty store)."""
        return TimeSeriesStore(
            chunk_size=self.chunk_size,
            cache=LRUCache(self.cache.max_bytes),
            pyramid_levels=self.pyramid_levels,
            disk=self.disk.reopen() if self.disk is not None else None)

    def simulate_crash(self) -> None:
        """Power loss: the tier truncates to its last fsync and dies."""
        if self.disk is None:
            raise RuntimeError("simulate_crash() requires a disk tier")
        self.disk.simulate_crash()

    def close(self) -> None:
        """Sync and release the tier's file handles (no-op in memory)."""
        if self.disk is not None:
            self.disk.close()

    def points_by_metric(self) -> dict[str, int]:
        """Per-metric stored point counts — the durable truth the
        ledger reconciles against after a crash recovery."""
        out: dict[str, int] = {}
        for metric, block in self._blocks.items():
            live = block.counts >= 0
            if np.count_nonzero(live):
                out[metric] = int(block.counts[live].sum()
                                  + block.sealed[live].sum())
        return out
