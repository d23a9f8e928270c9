"""Bounded LRU cache of decompressed sealed chunks.

Sealed chunks are immutable — once the store's seal has produced a
blob it is never rewritten, only dropped wholesale by eviction or
archiving — so caching their decompressed arrays is *exact*: there is
no coherence problem, only a capacity bound.  This is the same design
point as InfluxDB's TSM block cache and the Gorilla paper's in-memory
block tier: compression pays for itself at rest, the cache pays for
itself on the drill-down read path where the same recent chunks are
decoded over and over by dashboards and analyses.

One cache instance can be shared by many stores (the sharded store
routes every shard through a single cache so the memory bound is
global, not per-shard).  Hit/miss/eviction counters feed the
``selfmon.store.cache_*`` gauges.

With the out-of-core tier (:mod:`repro.storage.diskier`) this cache is
also the *warm* tier over spilled chunks: a read of a chunk whose bytes
live only in a segment file decodes straight from the mmap-backed
buffer (zero staging copy) and the decoded arrays land here, so repeat
reads of cold data cost a cache hit, not a disk decode.  Chunk ids are
process-unique and restored chunks get fresh ids, so a crash-recovered
store can share a warm cache without aliasing stale entries.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable

import numpy as np

__all__ = ["ChunkCache", "ChunkCacheStats"]


@dataclass(frozen=True, slots=True)
class ChunkCacheStats:
    """Point-in-time counters of one chunk cache."""

    hits: int
    misses: int
    evictions: int
    invalidations: int
    entries: int
    bytes: int

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class ChunkCache:
    """LRU over chunk-id -> (times, values), bounded by resident bytes.

    Chunk ids are globally unique (issued by a process-wide counter at
    seal time), so a shared cache never aliases chunks from different
    stores.  ``max_bytes=0`` disables caching entirely — every ``get``
    misses and ``put`` is a no-op — which keeps the disabled path
    branch-free for callers.
    """

    def __init__(self, max_bytes: int = 32 << 20) -> None:
        if max_bytes < 0:
            raise ValueError("max_bytes must be >= 0")
        self.max_bytes = int(max_bytes)
        self._entries: OrderedDict[int, tuple[np.ndarray, np.ndarray]] = (
            OrderedDict()
        )
        self._bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def resident_bytes(self) -> int:
        return self._bytes

    def get(self, chunk_id: int) -> tuple[np.ndarray, np.ndarray] | None:
        """Arrays for a cached chunk, or None.  Callers must treat the
        returned arrays as immutable (masking/fancy-indexing copies)."""
        with self._lock:
            entry = self._entries.get(chunk_id)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(chunk_id)
            self.hits += 1
            return entry

    def put(self, chunk_id: int, times: np.ndarray,
            values: np.ndarray) -> None:
        """Insert a decompressed chunk, evicting LRU entries to fit."""
        nbytes = times.nbytes + values.nbytes
        if nbytes > self.max_bytes:
            return                   # oversized (or cache disabled)
        with self._lock:
            old = self._entries.pop(chunk_id, None)
            if old is not None:
                self._bytes -= old[0].nbytes + old[1].nbytes
            self._entries[chunk_id] = (times, values)
            self._bytes += nbytes
            while self._bytes > self.max_bytes:
                _, (t, v) = self._entries.popitem(last=False)
                self._bytes -= t.nbytes + v.nbytes
                self.evictions += 1

    def invalidate(self, chunk_ids: Iterable[int]) -> int:
        """Drop entries for chunks that no longer exist (store eviction,
        series drop, archiving); returns how many were resident."""
        dropped = 0
        with self._lock:
            for cid in chunk_ids:
                entry = self._entries.pop(cid, None)
                if entry is not None:
                    self._bytes -= entry[0].nbytes + entry[1].nbytes
                    dropped += 1
            self.invalidations += dropped
        return dropped

    def clear(self) -> None:
        """Empty the cache (counters are preserved — they are lifetime
        telemetry, not contents)."""
        with self._lock:
            self._entries.clear()
            self._bytes = 0

    def stats(self) -> ChunkCacheStats:
        with self._lock:
            return ChunkCacheStats(
                hits=self.hits,
                misses=self.misses,
                evictions=self.evictions,
                invalidations=self.invalidations,
                entries=len(self._entries),
                bytes=self._bytes,
            )
