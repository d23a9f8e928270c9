"""The one byte-bounded LRU: the chunk cache and the query-result cache.

As the **chunk cache** it holds decoded sealed chunks in one of two
shapes, both read-only arrays made by one writer
(:func:`repro.storage.tsdb._decode`):

* ``chunk id -> values`` (8 B a sample) for a chunk sealed in a seal
  group (:class:`~repro.storage.rollup.SealGroup`) — its ``K`` chunks
  share one time column, which the group holds (``chunk.times``), so an
  entry stores only what is the chunk's own;
* ``chunk id -> (times, values)`` (16 B a sample) for a chunk sealed
  alone, restored from a manifest or found by a recovery scan.

Sealed chunks are immutable — never
rewritten, only dropped wholesale by eviction or archiving — so caching
their decompressed arrays is *exact*: no coherence problem, only a
capacity bound (InfluxDB's TSM block cache, Gorilla's in-memory block
tier).  One instance can be shared by many stores — the sharded store
routes every shard through one cache, so the bound is global — and
chunk ids are process-unique (restored chunks get fresh ids), so a
crash-recovered store can share a warm cache without aliasing.  Over
the out-of-core tier (:mod:`repro.storage.diskier`) it is the *warm*
tier: a repeat read of spilled data costs a hit, not a disk decode.

As the serving plane's **result cache**
(:attr:`repro.serve.frontend.QueryFrontend.result_cache`) it holds
finished answers keyed on normalized query plans.  An answer is only
immutable until its metric changes, so each entry records the store's
per-metric mutation epoch (``query_epoch``), and a read under another
epoch drops the entry as ``stale``: the cache never serves an answer
the store would not produce right now.  Chunk entries carry epoch 0
and are read under it, so they are never stale.

Every entry is ``key -> (epoch, value, nbytes)``, ``nbytes`` stated by
the caller.  An entry larger than the whole bound is refused rather
than admitted by evicting everything else; ``max_bytes=0`` refuses
everything.  The counters feed the ``selfmon.store.cache_*`` and
``selfmon.serve.cache_*`` series.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable, Iterable

__all__ = ["CHUNK_CACHE_BYTES", "CacheStats", "LRUCache"]

#: a store's chunk-cache bound when none is passed in
CHUNK_CACHE_BYTES = 32 << 20


@dataclass(frozen=True, slots=True)
class CacheStats:
    """Point-in-time counters of one cache (lifetime totals, except
    ``entries`` and ``bytes``)."""

    hits: int
    misses: int
    stale: int           # entries dropped because their epoch moved
    evictions: int       # entries dropped by the LRU byte bound
    invalidations: int   # entries dropped by :meth:`LRUCache.invalidate`
    entries: int
    bytes: int

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class LRUCache:
    """LRU over ``key -> (epoch, value, nbytes)``, bounded by the
    resident ``nbytes``.  Callers must treat returned values as
    immutable — they are shared between every hit."""

    def __init__(self, max_bytes: int) -> None:
        if max_bytes < 0:
            raise ValueError("max_bytes must be >= 0")
        self.max_bytes = int(max_bytes)
        self._entries: OrderedDict[Hashable, tuple[int, object, int]] = (
            OrderedDict()
        )
        self._bytes = 0
        self._hits = 0
        self._misses = 0
        self._stale = 0
        self._evictions = 0
        self._invalidations = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def resident_bytes(self) -> int:
        return self._bytes

    def get(self, key: Hashable, epoch: int = 0):
        """The value cached under ``key``, or None; an entry recorded
        under another epoch is dropped and counts as stale and a miss."""
        entry = self._entries.get(key)
        if entry is None:
            self._misses += 1
            return None
        if entry[0] != epoch:
            del self._entries[key]
            self._bytes -= entry[2]
            self._stale += 1
            self._misses += 1
            return None
        self._entries.move_to_end(key)
        self._hits += 1
        return entry[1]

    def put(self, key: Hashable, value, nbytes: int,
            epoch: int = 0) -> None:
        """Admit ``value`` (``nbytes`` of it), evicting LRU entries to
        fit; an entry larger than the whole bound is refused."""
        if nbytes > self.max_bytes:
            return
        old = self._entries.pop(key, None)
        if old is not None:
            self._bytes -= old[2]
        self._entries[key] = (epoch, value, nbytes)
        self._bytes += nbytes
        while self._bytes > self.max_bytes:
            _, (_, _, gone) = self._entries.popitem(last=False)
            self._bytes -= gone
            self._evictions += 1

    def invalidate(self, keys: Iterable[Hashable]) -> int:
        """Drop the entries of keys that no longer exist (store eviction,
        series drop, archiving); returns how many were resident."""
        dropped = 0
        for key in keys:
            entry = self._entries.pop(key, None)
            if entry is not None:
                self._bytes -= entry[2]
                dropped += 1
        self._invalidations += dropped
        return dropped

    def clear(self) -> None:
        """Drop every entry; the counters survive (lifetime telemetry)."""
        self._entries.clear()
        self._bytes = 0

    def stats(self) -> CacheStats:
        return CacheStats(
            hits=self._hits,
            misses=self._misses,
            stale=self._stale,
            evictions=self._evictions,
            invalidations=self._invalidations,
            entries=len(self._entries),
            bytes=self._bytes,
        )
