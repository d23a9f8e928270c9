"""Numpy-backed time-series store with Gorilla-style chunk compression.

The InfluxDB-class store of Section IV-C: ALCF "chose InfluxDB for its
superior data compression and query performance for high-volume time
series data compared to Cray's PMDB".  This store provides the behaviours
that comparison turns on:

* append-optimized ingest of :class:`~repro.core.metric.SeriesBatch`es
  into one *head block* per metric (:class:`_HeadBlock`): a components x
  time value matrix in which a synchronized sweep — NCSA's whole-system
  sampling model — is one column write, and its timestamp is stored
  once for as long as the metric's components stay in lock-step,
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
* a bounded LRU :class:`~repro.storage.chunkcache.ChunkCache` of
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
zero-copy through ``mmap`` (``_Series.chunk_blob`` is the one accessor
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
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from ..core.metric import MetricKey, SeriesBatch
from ..core.soa import ComponentTable, row_indices
from ..core.tracectx import HOP_INGEST, MAX_HOPS
from .chunkcache import ChunkCache, ChunkCacheStats
from .rollup import (SeriesPyramid, _head_gather, bucket_anchor,
                     fold_sealed_rows, head_first_time, head_partials,
                     ieee_sums, reduce_partials, series_partials, window_plan)

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


def decompress_chunk(
    blob: bytes, lens_hint: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`compress_chunk` (vectorized).

    Variable-length token boundaries are recovered without a per-sample
    Python loop: varint ends are the bytes with a clear continuation
    bit, and XOR-token starts come from the chunk's
    :func:`_xor_token_lens` block index when the caller has one (one
    cumsum), else from a pointer-doubled chase over the per-byte skip
    table.
    """
    (n,) = struct.unpack_from("<I", blob, 0)
    if n == 0:
        return np.empty(0), np.empty(0)
    buf = np.frombuffer(blob, dtype=np.uint8)
    pos = 4
    (first_ts,) = struct.unpack_from("<q", blob, pos)
    pos += 8
    ts_ms = np.empty(n, dtype=np.int64)
    ts_ms[0] = first_ts
    if n > 1:
        dod = np.empty(n - 1, dtype=np.int64)
        # the first delta-of-delta IS the first delta — typically large
        # (one collection interval), so parse it scalarly and fast-path
        # the rest, which is all zeros on a regular cadence
        dod[0], off = _read_varint(blob, pos)
        rest = buf[off : off + n - 2]
        if len(rest) == n - 2 and bool((rest < 0x80).all()):
            z = rest.astype(np.uint64)        # every varint is one byte
            pos = off + n - 2
        else:
            sec = buf[off : off + 10 * (n - 2)]   # varints <= 10 bytes each
            ends = np.flatnonzero(sec < 0x80)[: n - 2]
            starts = np.empty(n - 2, dtype=np.int64)
            starts[0] = 0
            starts[1:] = ends[:-1] + 1
            lens = ends - starts + 1
            cols = np.arange(int(lens.max()))
            idx = np.minimum(starts[:, None] + cols[None, :], len(sec) - 1)
            mat = sec[idx].astype(np.uint64) & np.uint64(0x7F)
            valid = cols[None, :] < lens[:, None]
            shifts = np.uint64(7) * cols.astype(np.uint64)
            z = ((mat << shifts[None, :]) * valid).sum(axis=1,
                                                       dtype=np.uint64)
            pos = off + int(ends[-1]) + 1
        dod[1:] = ((z >> np.uint64(1))
                   ^ (np.uint64(0) - (z & np.uint64(1)))).view(np.int64)
        deltas = np.cumsum(dod)
        ts_ms[1:] = first_ts + np.cumsum(deltas)

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
    return ts_ms.astype(np.float64) / 1000.0, bits.view(np.float64)


#: samples :func:`decompress_chunks` decodes per pass: the dozen or so
#: 8 B-per-sample temporaries of one slab stay at a few MiB
_SLAB_SAMPLES = 1 << 15


def _decode_slab(buf: np.ndarray, base: np.ndarray, size: np.ndarray,
                 hints: Sequence[np.ndarray | None], n: int) -> tuple:
    """``K`` chunks of ``n >= 3`` samples each, at ``buf[base:base + size]``,
    decoded as one ``(K, n)`` problem.

    Returns ``(rows, fit, t, v)``: ``rows`` are the chunks whose
    timestamps take the regular-cadence shape (a first delta, then one
    byte per delta-of-delta), ``t`` / ``v`` hold a row for each of them,
    and ``fit`` says which of those rows are a decode — the ones whose
    XOR token lengths (the chunk's hint, else one uniform stride) tile
    the section and agree with every header byte they land on.
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
    return rows, fit, ts_ms.astype(np.float64) / 1000.0, bits.view(np.float64)


def decompress_chunks(
    items: Sequence[tuple[bytes | memoryview, np.ndarray | None]],
) -> list[tuple[np.ndarray, np.ndarray]]:
    """:func:`decompress_chunk` of every ``(blob, lens_hint)``, the chunks
    of one length decoded together (:func:`_decode_slab`, a slab at a
    time) — what a fleet read, which misses a chunk or three of every
    series, pays per chunk is a row of a few matrix operations, not a
    Python call chain.  Every array owns its memory and is bit-identical
    to the single-chunk decode.  :func:`decompress_chunk` is the ``K = 1``
    case and decodes whatever the shared shape does not fit: irregular
    cadence (multi-byte varints), mixed token lengths without a usable
    hint, fewer than three samples, fewer than three chunks of a length.
    """
    if len(items) < 3:      # nothing a matrix pass would pay for
        return [decompress_chunk(*item) for item in items]
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
                [hints[i] for i in part.tolist()], n)
            for i, ok, ti, vi in zip(part[rows].tolist(), fit.tolist(), t, v):
                if ok:
                    out[i] = (ti.copy(), vi.copy())
    return [tv if tv is not None else decompress_chunk(blobs[i], hints[i])
            for i, tv in enumerate(out)]


# --------------------------------------------------------------------------
# the store
# --------------------------------------------------------------------------

# read-only on purpose: module state shared by every store/worker must
# not be mutable (the shared-state lint gate enforces this tree-wide)
_AGGS: Mapping[str, Callable[[np.ndarray], float]] = MappingProxyType({
    "mean": lambda a: float(a.mean()),
    "sum": lambda a: float(a.sum()),
    "min": lambda a: float(a.min()),
    "max": lambda a: float(a.max()),
    "last": lambda a: float(a[-1]),
    "count": lambda a: float(len(a)),
})

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
    archived, when :meth:`_Series.chunk_blob` maps it back — and
    ``cid`` the process-unique chunk-cache key.
    """

    summary: ChunkSummary
    hint: np.ndarray | None
    ref: object | None = None          # diskier.ChunkRef
    blob: bytes | None = None
    cid: int = field(default_factory=_next_cid.__next__)

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
    """The open heads of one metric: a components x time value matrix.

    The metric's :class:`~repro.core.soa.ComponentTable` maps component
    -> row; row ``r`` holds ``counts[r]`` unsealed values in arrival
    order (``-1``: no live series — never created, or dropped).  The
    matrix is stored sweep-major (:func:`_matrix`): a synchronized sweep
    is one contiguous column write, a series' head is a zero-copy
    strided view, and growing the block copies only the columns in use,
    as contiguous runs — the rest of the new matrix stays untouched
    until a sweep reaches it.  Columns double up to ``chunk_size`` (a
    row seals there and starts again at column 0), so a block holds at
    most 16 B per point of its longest head — and that much for every
    row, which is the price of a metric whose components report at very
    different rates.

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

    __slots__ = ("chunk_size", "table", "series", "counts", "values",
                 "times", "n_times", "row_times", "n_head")

    def __init__(self, chunk_size: int) -> None:
        self.chunk_size = chunk_size
        self.table = ComponentTable()
        self.series: list[_Series | None] = []      # row -> live series
        self.counts = np.empty(0, dtype=np.intp)
        self.values = _matrix(0, min(4, chunk_size))
        self.times = np.empty(self.values.shape[1])  # the shared column
        self.n_times = 0
        self.row_times: np.ndarray | None = None    # set while ragged
        self.n_head = 0                             # open samples, all rows

    def _resize(self, rows: int, cols: int) -> None:
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
        """Inverse of :meth:`export_state`, onto the empty block of a
        store whose series :meth:`TimeSeriesStore.restore_series` has
        already rebuilt (rows are matched by name, not by position)."""
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
    """One (metric, component) series: sealed chunks + open head.

    ``chunks`` is the one chunk index, a list of :class:`SealedChunk`
    records in seal order; :meth:`adopt` is the only way a record
    enters it.  A spilled chunk has ``blob is None`` and is read back
    through :meth:`chunk_blob` — the single accessor every query path
    uses.  The open head is row ``row`` of the metric's ``block``.
    """

    __slots__ = ("chunks", "block", "row", "n_sealed_samples",
                 "sealed_bytes", "sealed_t_max", "pyramid", "tier", "key")

    def __init__(
        self, block: _HeadBlock, row: int,
        pyramid_levels: Sequence[float] | None = None,
        tier=None, key: MetricKey | None = None,
    ) -> None:
        self.tier = tier            # DiskTier (duck-typed) or None
        self.key = key              # needed for segment records
        self.chunks: list[SealedChunk] = []
        self.block = block
        self.row = row
        self.n_sealed_samples = 0
        self.sealed_bytes = 0       # running sum(c.nbytes for c in chunks)
        self.sealed_t_max = _NEVER  # running max(c.summary.t_max)
        # rollup pyramid maintained incrementally at seal time (serving
        # plane); None keeps the seal's cost that of the pre-serve store
        self.pyramid = (
            SeriesPyramid(pyramid_levels) if pyramid_levels else None
        )

    def head(self) -> tuple[np.ndarray, np.ndarray]:
        """Zero-copy ``(times, values)`` of the open head, in arrival
        order — views into the block, valid until the next write; the
        values stride one sweep apart (copy before handing them to code
        that needs them contiguous)."""
        b, row = self.block, self.row
        c = b.counts[row]
        t = b.times if b.row_times is None else b.row_times[row]
        return t[:c], b.values[row, :c]

    def adopt(self, chunk: SealedChunk) -> None:
        """Append one sealed record — shared by the seal, the manifest
        restore and the recovery segment scan.  The pyramid is the
        caller's to fold: a seal folds its whole group at once, the scan
        the arrays it decoded, the manifest reloads saved partials."""
        self.chunks.append(chunk)
        self.n_sealed_samples += chunk.summary.count
        self.sealed_bytes += chunk.nbytes
        self.sealed_t_max = max(self.sealed_t_max, chunk.summary.t_max)

    def chunk_blob(self, chunk: SealedChunk):
        """A sealed chunk's blob, resident or mapped from the disk tier.

        Returns ``bytes`` for hot chunks (touching the tier LRU) or a
        zero-copy ``memoryview`` over the segment mmap for spilled ones
        — :func:`decompress_chunk` accepts either.
        """
        blob = chunk.blob
        if blob is not None:
            if self.tier is not None:
                self.tier.touch(chunk.cid)
            return blob
        return self.tier.load(chunk.ref)

    def decode(self, chunk: SealedChunk, cache: ChunkCache | None
               ) -> tuple[np.ndarray, np.ndarray]:
        """Decompressed ``(times, values)`` of one sealed chunk, served
        from and filling the shared chunk cache."""
        blob = self.chunk_blob(chunk)
        if cache is not None:
            hit = cache.get(chunk.cid)
            if hit is not None:
                return hit
        t, v = decompress_chunk(blob, chunk.hint)
        if cache is not None:
            cache.put(chunk.cid, t, v)
        return t, v

    def export_state(self) -> dict:
        """Snapshot-serializable sealed state (one manifest entry): the
        chunk index without blobs or cache ids, and the pyramid
        partials; the open head is its block's to export.
        :meth:`TimeSeriesStore.restore_series` inverts it."""
        return {
            "chunks": [(c.summary, c.hint, c.ref) for c in self.chunks],
            "pyramid": (self.pyramid.export_state()
                        if self.pyramid is not None else None),
        }

    @property
    def n_samples(self) -> int:
        return self.n_sealed_samples + int(self.block.counts[self.row])


def _head_blocks(views: Sequence[tuple[_Series, ChunkCache]]
                 ) -> list[tuple[_HeadBlock, list[int], list[int]]]:
    """``(block, ranks, rows)`` per head block a selection touches — one
    on a plain store, at most one per shard: the series ``views[rank]``
    is row ``row`` of ``block``."""
    by_block: dict[_HeadBlock, list[int]] = {}
    for rank, (s, _) in enumerate(views):
        by_block.setdefault(s.block, []).append(rank)
    return [(block, ranks, [views[r][0].row for r in ranks])
            for block, ranks in by_block.items()]


def read_series(views: Sequence[tuple[_Series, ChunkCache]],
                t0: float, t1: float
                ) -> list[tuple[np.ndarray, np.ndarray]]:
    """The samples of every series of ``views`` (``(series, cache)``
    pairs) with ``t0 <= t < t1``, time-sorted — the one raw read, for
    one series or a fleet.  It works on blocks: every overlapping sealed
    chunk is probed in the chunk cache (a hit or a miss each, as a
    single read would count them), the misses are decoded in one
    :func:`decompress_chunks` pass and admitted, and the open heads are
    gathered once per head block
    (:func:`~repro.storage.rollup._head_gather`).  A series is then its
    chunks in seal order and its head: only a chunk the window cuts is
    trimmed, and only a concatenation that comes out of order (late
    samples across a seal) is stable-sorted.  No array aliases the
    chunk cache or a head block."""
    out: list = [(np.empty(0), np.empty(0))] * len(views)
    if not t0 < t1:                     # empty (or NaN-bounded) window
        return out
    sealed: dict[int, list[SealedChunk]] = {}   # rank -> overlapping chunks
    decoded: dict[int, tuple[np.ndarray, np.ndarray]] = {}      # by cid
    missed: list[tuple[SealedChunk, ChunkCache]] = []
    blobs: list[tuple] = []
    for rank, (series, cache) in enumerate(views):
        for chunk in series.chunks:
            summ = chunk.summary
            if summ.t_max < t0 or summ.t_min >= t1:
                continue
            blob = series.chunk_blob(chunk)
            hit = cache.get(chunk.cid)
            if hit is None:
                missed.append((chunk, cache))
                blobs.append((blob, chunk.hint))
            else:
                decoded[chunk.cid] = hit
            sealed.setdefault(rank, []).append(chunk)
    if missed:
        for (chunk, cache), tv in zip(missed, decompress_chunks(blobs)):
            decoded[chunk.cid] = tv
            cache.put(chunk.cid, *tv)
    for block, ranks, rows in _head_blocks(views):
        pos, _, ht, hv = _head_gather(block, rows, t0, t1)
        if pos is None:
            out[ranks[0]] = (ht, hv)
            continue
        cuts = np.searchsorted(pos, np.arange(len(ranks) + 1)).tolist()
        for rank, lo, hi in zip(ranks, cuts, cuts[1:]):
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

    Anything exposing ``components(metric)``, ``pyramid_levels`` and
    ``_series_view(metric, component)`` (the chunk-level surface: a
    :class:`_Series` plus its cache, or None when reads cannot reach
    it) gets range queries over one series or many, downsampling, and
    cross-component aggregation for free — this is what lets
    :class:`~repro.storage.sharded.ShardedTimeSeriesStore` present the
    exact single-store query surface over K shards.

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
        view = self._series_view(metric, component)
        if view is None:
            return SeriesBatch.empty(metric)
        return SeriesBatch.for_component(
            metric, component, *read_series([view], t0, t1)[0])

    def query_components(
        self,
        metric: str,
        components: Sequence[str] | None = None,
        t0: float = -np.inf,
        t1: float = np.inf,
    ) -> dict[str, SeriesBatch]:
        """Range query many series at once (drill-down working set, or
        with ``components=None`` the whole fleet): one
        :func:`read_series` over every series reads can reach."""
        comps = dict.fromkeys(
            components if components is not None else self.components(metric))
        views = {c: view for c in comps
                 if (view := self._series_view(metric, c)) is not None}
        out = dict.fromkeys(comps, SeriesBatch.empty(metric))
        for c, (t, v) in zip(views,
                             read_series(list(views.values()), t0, t1)):
            out[c] = SeriesBatch.for_component(metric, c, t, v)
        return out

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
        if agg not in _AGGS:
            raise ValueError(f"unknown agg {agg!r}; choose from {sorted(_AGGS)}")
        if step <= 0:
            raise ValueError("step must be positive")
        raw = self.query(metric, component, t0, t1)
        if not len(raw):
            return SeriesBatch.empty(metric)
        anchor = bucket_anchor(t0 if np.isfinite(t0) else float(raw.times[0]),
                               step)
        out_t, out_v = _bucket_agg(raw.times, raw.values, anchor, step, agg)
        return SeriesBatch.for_component(metric, component, out_t, out_v)

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
        answered the whole buckets of the window.

        Mirrors the raw path exactly: components rank in selection order
        (so ``last`` tie-breaks agree), unreadable or missing series
        contribute nothing, and an unbounded ``t0`` anchors the grid at
        the first sample across the selection.  Sealed data is read
        series by series (:func:`~repro.storage.rollup.series_partials`,
        under one ``window_plan``), open heads a head block at a time:
        one :func:`~repro.storage.rollup.head_partials` per block the
        selection touches (one on a plain store, at most one per shard),
        for one series or ten thousand.
        """
        if agg not in _AGGS:
            raise ValueError(f"unknown agg {agg!r}; choose from {sorted(_AGGS)}")
        if step <= 0:
            raise ValueError("step must be positive")
        comps = components if components is not None else self.components(metric)
        views = [sv for c in comps
                 if (sv := self._series_view(metric, c)) is not None]
        if not t0 < t1:                     # empty (or NaN-bounded) window
            return SeriesBatch.empty(metric), False
        # per head block: its series' ranks, rows and sealed counts
        heads = [(block, ranks, rows,
                  [views[r][0].n_sealed_samples for r in ranks])
                 for block, ranks, rows in _head_blocks(views)]
        lo = t0 if np.isfinite(t0) else min(itertools.chain(
            (c.summary.t_min for s, _ in views for c in s.chunks),
            (head_first_time(b, rows) for b, _, rows, _ in heads)),
            default=np.inf)
        if not np.isfinite(lo):
            return SeriesBatch.empty(metric), False
        anchor = bucket_anchor(lo, step)
        plan = window_plan(self.pyramid_levels, t0, t1, step, anchor)
        pieces: list[tuple[np.ndarray, ...]] = []
        piece_comp: list[int | np.ndarray] = []
        for rank, (series, cache) in enumerate(views):
            ps = series_partials(series, cache, t0, t1, step, anchor, plan)
            pieces.extend(ps)
            piece_comp.extend([rank] * len(ps))
        for block, ranks, rows, seq_base in heads:
            piece, owner = head_partials(block, rows, seq_base, t0, t1, step,
                                         anchor)
            pieces.append(piece)
            piece_comp.append(np.asarray(ranks)[owner])
        out_t, out_v = reduce_partials(pieces, anchor, step, agg,
                                       piece_comp=piece_comp)
        rollup = bool(views) and plan is not None
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
        if agg not in _AGGS:
            raise ValueError(f"unknown agg {agg!r}")
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

    #: optional zero-arg simulated-clock callable; when attached (by the
    #: pipeline, when freshness tracing is on), ingest stamps a traced
    #: batch's context with its queryable-at time
    clock = None

    def __init__(self, chunk_size: int = 512,
                 cache: ChunkCache | None = None,
                 pyramid_levels: Sequence[float] | None = None,
                 disk=None) -> None:
        if chunk_size < 2:
            raise ValueError("chunk_size must be >= 2")
        self.chunk_size = int(chunk_size)
        # optional out-of-core tier (repro.storage.diskier.DiskTier,
        # duck-typed): sealed blobs persist to segments, appends are
        # WAL-logged, and the resident set is budget-bounded
        self.disk = disk
        # the decompressed-chunk cache may be shared (the sharded store
        # passes one instance to every shard for a global memory bound)
        self.cache = cache if cache is not None else ChunkCache()
        # rollup-pyramid levels maintained at seal time for the serving
        # plane (None = no pyramids, the pre-serve ingest cost)
        self.pyramid_levels = (
            tuple(float(x) for x in pyramid_levels)
            if pyramid_levels else None
        )
        self._series: dict[MetricKey, _Series] = {}
        self._blocks: dict[str, _HeadBlock] = {}    # metric -> open heads
        # metric -> its keys, sorted: an entry is dropped whenever a
        # series of the metric is created (restored included) or dropped
        self._metric_keys: dict[str, list[MetricKey]] = {}
        # per-metric mutation epochs: bumped on any change that can alter
        # query results, so the serving plane's result cache invalidates
        # precisely (stale entries die, untouched metrics keep serving)
        self._epochs: dict[str, int] = {}
        # aggregate counters so stats() is O(1), not a walk over every
        # series — the self-monitoring plane reads it on a cadence
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
            block = self._blocks[metric] = _HeadBlock(self.chunk_size)
        return block

    def _new_series(self, key: MetricKey) -> _Series:
        block = self._block(key.metric)
        row = block.table.add(key.component)
        block.fit()
        block.counts[row] = 0       # live, and empty
        self._metric_keys.pop(key.metric, None)
        s = self._series[key] = block.series[row] = _Series(
            block, row, self.pyramid_levels, tier=self.disk, key=key)
        return s

    def _run(self, series: _Series, t: np.ndarray, v: np.ndarray) -> None:
        """One series' next samples in arrival order, sealing every
        time its head fills."""
        block, row = series.block, series.row
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
        — bit for bit what sealing the row alone produces."""
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
        series = [block.series[r] for r in rows.tolist()]
        folds = itertools.repeat(None)
        if self.pyramid_levels:
            folds = fold_sealed_rows(
                series[0].pyramid.levels, t, v,
                np.array([s.n_sealed_samples for s in series]))
        done = 0
        try:
            for s, (blob, hint), stat, pieces in zip(series, coded, stats,
                                                     folds):
                chunk = SealedChunk(ChunkSummary(n, t_min, t_max, *stat),
                                    hint, blob=blob)
                if self.disk is not None:
                    # persist the immutable blob now; spill to budget after
                    self.disk.on_seal(s.key, chunk)
                if pieces is not None:
                    s.pyramid.add_folded(pieces, n)
                s.adopt(chunk)
                done += 1
        finally:    # a failed segment append leaves every row sealed or open
            block.take(rows[:done], n)
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
        that filled, in batch order.  Whether the block keeps one
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
        tr = batch.trace
        if self.clock is not None and tr is not None:
            # inlined TraceContext.stamp(HOP_INGEST, ...) — per-batch
            # hot path; see stamp() for the semantics
            hops = tr.hops
            t = self.clock()
            if hops and hops[-1][0] == HOP_INGEST:
                last = hops[-1]
                if t < last[1]:
                    last[1] = t
                if t > last[2]:
                    last[2] = t
            elif len(hops) < MAX_HOPS:
                hops.append([HOP_INGEST, t, t, 1])
            else:
                tr.truncated += 1
        self._samples += n
        times, values = batch.times, batch.values
        block = self._block(metric)
        if n == 1:
            # a single point is a run of one: no array-sized work
            row = block.table.row(batch.components[0])
            if row is not None and block.counts[row] >= 0:
                self._run(block.series[row], times, values)
                return n
        rows, unique = block.table.rows(batch.components)
        block.fit()
        if unique:
            full = block.write(rows, times, values)
            if full is None:    # no live series yet: new, or dropped
                for i in np.flatnonzero(block.counts[rows] < 0).tolist():
                    self._new_series(
                        MetricKey(metric, str(batch.components[i])))
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
            key = MetricKey(metric, str(uniq[g]))
            series = self._series.get(key) or self._new_series(key)
            self._run(series, st[bounds[g] : bounds[g + 1]],
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
            return sorted(self._series, key=str)
        keys = self._metric_keys.get(metric)
        if keys is None:
            block = self._blocks.get(metric)
            if block is None:
                return []
            keys = self._metric_keys[metric] = sorted(
                (s.key for s in block.series if s is not None), key=str)
        return list(keys)

    def components(self, metric: str) -> list[str]:
        return [k.component for k in self.keys(metric)]

    def _series_view(
        self, metric: str, component: str
    ) -> tuple[_Series, ChunkCache] | None:
        """Chunk-level surface every read resolves series through."""
        series = self._series.get(MetricKey(metric, component))
        if series is None:
            return None
        return series, self.cache

    def query_epoch(self, metric: str) -> int:
        """Mutation epoch of a metric — the serving plane's result-cache
        validity token.  Any append or drop touching the metric bumps
        it; an unchanged epoch guarantees every query answer for the
        metric is still exact."""
        return self._epochs.get(metric, 0)

    # -- maintenance / stats ---------------------------------------------------

    def drop_series(self, metric: str, component: str) -> bool:
        s = self._series.pop(MetricKey(metric, component), None)
        if s is None:
            return False
        self._epochs[metric] = self._epochs.get(metric, 0) + 1
        self._metric_keys.pop(metric, None)
        if self.disk is not None:
            self.disk.forget(s)
        self.cache.invalidate(c.cid for c in s.chunks)
        self._samples -= s.n_samples
        s.block.take(s.row, len(s.head()[0]))
        s.block.counts[s.row] = -1      # the row has no live series
        s.block.series[s.row] = None
        self._sealed_samples -= s.n_sealed_samples
        self._sealed_chunks -= len(s.chunks)
        self._sealed_bytes -= s.sealed_bytes
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
            series=len(self._series),
            samples=self._samples,
            sealed_chunks=self._sealed_chunks,
            compressed_bytes=self._sealed_bytes + 8 * (head + time_cells),
            raw_bytes=self._samples * 16,  # float64 time + float64 value
        )

    def cache_stats(self) -> ChunkCacheStats:
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
        demoted = [c.cid for s in self._series.values() for c in s.chunks
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
        s = self._series.get(MetricKey(metric, component))
        if s is None:
            return []
        return [((c.summary.t_min, c.summary.t_max), c.ref)
                for c in s.chunks if c.blob is None]

    # hooks used by the out-of-core disk tier -----------------------------------

    def restore_series(self, key: MetricKey, state: dict) -> int:
        """Recovery: rebuild one series' sealed state from its manifest
        entry (the inverse of :meth:`_Series.export_state`); returns its
        chunk count.  Every chunk comes back ref-only and the pyramid
        reloads its saved partials, so nothing is decompressed."""
        s = self._new_series(key)
        if s.pyramid is not None:
            s.pyramid = SeriesPyramid.from_state(state["pyramid"])
        for summary, hint, ref in state["chunks"]:
            chunk = SealedChunk(summary, hint, ref)
            s.adopt(chunk)
            self._note_seal(1, summary.count, chunk.nbytes)
        self._samples += s.n_sealed_samples
        return len(s.chunks)

    def restore_heads(self, metric: str, state: dict) -> None:
        """Recovery: reload one metric's open heads from its manifest
        entry (the inverse of :meth:`_HeadBlock.export_state`), once
        :meth:`restore_series` has rebuilt the series they belong to."""
        block = self._blocks[metric]
        block.load(state)
        self._samples += block.n_head

    def adopt_chunk(self, key: MetricKey, chunk: SealedChunk,
                    t: np.ndarray, v: np.ndarray) -> int:
        """Recovery: install a chunk the segment scan found past the
        manifest.  It was sealed from the front of the series' unsealed
        arrival stream ``[restored head | WAL records]``, so that many
        samples leave the head; returns how many were *not* in it — the
        caller skips that many of the series' WAL points."""
        s = self._series.get(key) or self._new_series(key)
        n = chunk.summary.count
        in_head = min(n, len(s.head()[0]))
        s.block.take(s.row, in_head)
        if s.pyramid is not None:
            s.pyramid.add_sealed(t, v, s.n_sealed_samples)
        s.adopt(chunk)
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
            cache=ChunkCache(self.cache.max_bytes),
            pyramid_levels=self.pyramid_levels,
            disk=self.disk.reopen() if self.disk is not None else None)

    def simulate_crash(self) -> None:
        """Power loss: the tier truncates to its last fsync and dies."""
        if self.disk is None:
            raise TypeError("simulate_crash() needs a disk-backed store")
        self.disk.simulate_crash()

    def close(self) -> None:
        """Sync and release the tier's file handles (no-op in memory)."""
        if self.disk is not None:
            self.disk.close()

    def points_by_metric(self) -> dict[str, int]:
        """Per-metric stored point counts — the durable truth the
        ledger reconciles against after a crash recovery."""
        out: dict[str, int] = {}
        for key, s in self._series.items():
            out[key.metric] = out.get(key.metric, 0) + s.n_samples
        return out
