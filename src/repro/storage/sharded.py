"""Sharded time-series store: K independent TSDBs behind one store API.

One :class:`~repro.storage.tsdb.TimeSeriesStore` eventually serializes
every ingest on one series map — the same wall the paper's sites hit
with single-instance PMDB/InfluxDB deployments before sharding their
stores.  :class:`ShardedTimeSeriesStore` partitions the series space
across K plain stores with *stable* series->shard hashing
(CRC-32 of ``metric@component``, so a series lands on the same shard in
every run and only an explicit shard-count change repartitions),
fans ingest batches out by shard, fans ``keys`` back in, and
merges per-shard counters into one O(1) ``stats()``.  The query layer
(``query`` / ``query_components`` / ``downsample`` /
``aggregate_across``, over ``_series_view``) is the
shared :class:`~repro.storage.tsdb.SeriesQueryMixin`, so callers cannot
tell K shards from one store — the acceptance oracle the sharding
tests enforce.

Shards are :class:`~repro.core.lifecycle.Supervised`: a failed shard
(``fail_shard``) degrades the store to the remaining shards — writes
bound for it divert into a bounded *redo buffer* (visible as ledger
``pending``; overflow evicts oldest as accounted ``lost``), reads
against it return empty — and on ``recover_shard`` the redo buffer is
replayed into the healed shard, so the only data lost under an outage
is what the redo bound explicitly evicted — or, if the process dies
first, what :meth:`~ShardedTimeSeriesStore.simulate_crash` hands the
ledger as ``crash-redo`` (redo buffers live in memory only).
"""

from __future__ import annotations

from collections import deque
from dataclasses import fields
from functools import reduce
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from ..core.hashing import stable_bucket
from ..core.lifecycle import Health
from ..core.metric import MetricKey, SeriesBatch
from ..core.soa import memo_by_identity
from ..core.tracectx import HOP_INGEST
from .chunkcache import ChunkCache, ChunkCacheStats
from .diskier import DiskTier, RecoveryReport, merge_disk_stats
from .tsdb import SeriesQueryMixin, StoreStats, TimeSeriesStore

if TYPE_CHECKING:  # pragma: no cover
    from ..runtime.executor import ExecutionModel

__all__ = ["ShardedTimeSeriesStore"]


class ShardedTimeSeriesStore(SeriesQueryMixin):
    """K :class:`TimeSeriesStore` shards behind the single-store API.

    All shards share one decompressed-chunk cache, so the cache memory
    bound is global rather than K× per-shard (chunk ids are
    process-unique, so shards can never alias each other's entries).

    With ``disk_dir=`` each shard owns a tier under ``shard-<i>`` and is
    opened like any plain store: whatever its directory holds is
    restored, and ``recovery`` is the field-wise merge of the shards'
    reports (``None`` in memory).  :meth:`reopen` is a restart on the
    same directories; :meth:`simulate_crash` and :meth:`close` end this
    instance's use of them.
    """

    def __init__(self, shards: int = 4, chunk_size: int = 512,
                 cache: ChunkCache | None = None,
                 redo_points: int = 100_000,
                 pyramid_levels: "tuple[float, ...] | None" = None,
                 disk_dir: "str | None" = None,
                 hot_bytes: int = 64 << 20,
                 segment_bytes: int = 64 << 20,
                 sync_every_bytes: int = 1 << 20) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        self.n_shards = int(shards)
        self.chunk_size = int(chunk_size)
        self.cache = cache if cache is not None else ChunkCache()
        self._tier_budgets = dict(hot_bytes=hot_bytes,
                                  segment_bytes=segment_bytes,
                                  sync_every_bytes=sync_every_bytes)
        self.disk_dir = disk_dir
        if disk_dir is not None:
            found = {p.name for p in Path(disk_dir).glob("shard-*")}
            if found and found != {f"shard-{i}" for i in range(self.n_shards)}:
                # series route by CRC mod K: opening under another K
                # would leave some unreachable and the rest misplaced
                raise ValueError(
                    f"{disk_dir}: holds {len(found)} shard directories "
                    f"({', '.join(sorted(found))}), but the store being "
                    f"opened declares {self.n_shards}"
                )
        self.shards: list[TimeSeriesStore] = []
        try:
            for i in range(self.n_shards):
                # one tier per shard under a common root: per-shard
                # segment files and WALs, so shard-parallel ingest never
                # shares a file handle; the hot budget is per shard
                tier = None if disk_dir is None else DiskTier(
                    Path(disk_dir) / f"shard-{i}", **self._tier_budgets)
                self.shards.append(TimeSeriesStore(
                    chunk_size=chunk_size, cache=self.cache,
                    pyramid_levels=pyramid_levels, disk=tier))
        except BaseException:
            self.close()    # a shard refused its directory: none stays open
            raise
        self.pyramid_levels = self.shards[0].pyramid_levels
        self.recovery = None if disk_dir is None else reduce(
            RecoveryReport.merged, (s.recovery for s in self.shards))
        # store-wide epoch component: health flips change what reads
        # return without touching any shard's per-metric epochs
        self._health_epoch = 0
        #: optional DeliveryLedger stamped at redo defer/evict/replay
        self.ledger = None
        #: optional simulated-clock callable for ingest freshness stamps
        self.clock = None
        self._health = [Health.OK] * self.n_shards
        # per-shard FIFO of batches parked while the shard is failed
        self._redo: list[deque[SeriesBatch]] = [
            deque() for _ in range(self.n_shards)
        ]
        self.redo_points = int(redo_points)   # bound per shard, in points
        self._redo_depth = [0] * self.n_shards
        self.redo_deferred = 0    # points ever parked
        self.redo_evicted = 0     # points evicted by the bound (lost)
        self.redo_replayed = 0    # points replayed on recovery
        # per-components-array routing memo: synchronized sweeps publish
        # the same component arrays every tick, so the CRC walk runs
        # once per (array, metric) instead of once per batch; entries
        # die with the array (weakref.finalize), so id() cannot alias
        self._route_memo: dict[int, dict[str, list]] = {}

    # -- routing ------------------------------------------------------------

    def shard_of(self, metric: str, component: str) -> int:
        """Stable series -> shard mapping (the repartitioning contract:
        the answer changes only when ``n_shards`` does)."""
        return stable_bucket(f"{metric}@{component}", self.n_shards)

    def _routing(self, metric: str, components: np.ndarray,
                 n: int) -> list[tuple[int, np.ndarray, np.ndarray]]:
        """``(shard, row mask, components[mask])`` per owning shard in
        ascending shard order, memoized per component array.

        Component arrays are immutable once published, and the fleet
        collectors republish one name column per fleet every tick
        (:func:`~repro.core.soa.name_column`), so the memo keys on array
        identity and each shard sees the *same* sub-column tick after
        tick — its head blocks' row memo hits too.  Finalizers evict
        entries when the array dies, before its ``id`` can be reused;
        arrays built per batch (merges, redo truncation) just miss.
        """
        key = id(components)
        per = self._route_memo.get(key)
        if per is not None:
            route = per.get(metric)
            if route is not None:
                return route
        idx = np.fromiter(
            (self.shard_of(metric, str(c)) for c in components),
            dtype=np.int64,
            count=n,
        )
        route = [(int(i), mask, components[mask])
                 for i in np.unique(idx) for mask in (idx == i,)]
        if per is None:
            per = {}
            memo_by_identity(self._route_memo, components, per)
        per[metric] = route
        return route

    def _owner(self, metric: str, component: str) -> TimeSeriesStore:
        return self.shards[self.shard_of(metric, component)]

    # -- supervised lifecycle -------------------------------------------------

    def shard_health(self) -> list[Health]:
        """Per-shard condition (the supervision-stage surface)."""
        return list(self._health)

    def health(self) -> Health:
        """Worst shard condition: one failed shard degrades the store."""
        if any(h is Health.FAILED for h in self._health):
            return Health.DEGRADED if self.n_shards > 1 else Health.FAILED
        return Health.OK

    def fail_shard(self, i: int) -> None:
        """Take shard ``i`` out: subsequent writes for it park in the
        redo buffer, reads against it return empty."""
        self._health[i] = Health.FAILED
        self._health_epoch += 1

    def recover_shard(self, i: int) -> int:
        """Bring shard ``i`` back and replay its redo buffer into it.

        Returns the number of points replayed.  Replayed points are
        stamped ``stored`` on the ledger here — ingest-time accounting
        deliberately skipped them (they were ``pending``, not stored).
        """
        self._health[i] = Health.OK
        self._health_epoch += 1
        replayed = 0
        redo = self._redo[i]
        while redo:
            batch = redo.popleft()
            n = self.shards[i].append(batch)
            replayed += n
            if self.ledger is not None:
                self.ledger.stored_batch(batch, n)
        self._redo_depth[i] = 0
        self.redo_replayed += replayed
        return replayed

    def fail(self, reason: str = "") -> None:
        """Supervised surface: fail every shard."""
        for i in range(self.n_shards):
            self.fail_shard(i)

    def heal(self) -> None:
        """Supervised surface: recover every failed shard."""
        for i in range(self.n_shards):
            if self._health[i] is not Health.OK:
                self.recover_shard(i)

    def redo_pending_points(self) -> int:
        """Points parked in redo buffers (the ledger ``pending`` gauge)."""
        return sum(self._redo_depth)

    def _defer(self, i: int, piece: SeriesBatch) -> None:
        """Park a failed shard's sub-batch, evicting oldest past the
        bound (evictions are exact accounted loss)."""
        redo = self._redo[i]
        redo.append(piece)
        self._redo_depth[i] += len(piece)
        self.redo_deferred += len(piece)
        while self._redo_depth[i] > self.redo_points and len(redo) > 1:
            old = redo.popleft()
            self._redo_depth[i] -= len(old)
            self.redo_evicted += len(old)
            if self.ledger is not None:
                self.ledger.lost_batch("shard-redo-overflow", old)
        if self._redo_depth[i] > self.redo_points:
            # a single batch larger than the bound: truncate its head
            old = redo.popleft()
            excess = self._redo_depth[i] - self.redo_points
            kept = SeriesBatch(old.metric, old.components[excess:],
                               old.times[excess:], old.values[excess:])
            redo.appendleft(kept)
            self._redo_depth[i] -= excess
            self.redo_evicted += excess
            if self.ledger is not None:
                self.ledger.lost_points(
                    "shard-redo-overflow", old.metric, excess
                )

    # -- ingest ---------------------------------------------------------------

    def split(self, batch: SeriesBatch) -> list[tuple[int, SeriesBatch]]:
        """Partition a batch into per-owning-shard pieces.

        Returns ``(shard_index, piece)`` pairs in ascending shard
        order.  Stamps the ingest hop on the whole batch first: the
        pieces are fresh SeriesBatch objects that do not carry the
        trace, so this is the last sight of the full hop vector.
        Health is *not* consulted — callers decide whether a piece is
        appended or deferred.
        """
        n = len(batch)
        if n == 0:
            return []
        if self.clock is not None and batch.trace is not None:
            batch.trace.stamp(HOP_INGEST, self.clock())
        return [
            (i, SeriesBatch(batch.metric, comps, batch.times[mask],
                            batch.values[mask]))
            for i, mask, comps in self._routing(batch.metric,
                                                batch.components, n)
        ]

    def append(self, batch: SeriesBatch) -> int:
        """Split a batch by owning shard and ingest each piece.

        Returns points actually stored; pieces bound for a failed shard
        divert into its redo buffer and do not count (they are the
        ledger's ``pending`` until recovery replays them).
        """
        stored = 0
        for i, piece in self.split(batch):
            if self._health[i] is Health.FAILED:
                self._defer(i, piece)
                continue
            stored += self.shards[i].append(piece)
        return stored

    def append_many(self, batches: Iterable[SeriesBatch]) -> int:
        return sum(self.append(b) for b in batches)

    def append_parallel(
        self,
        batches: "Sequence[SeriesBatch]",
        executor: "ExecutionModel | None" = None,
    ) -> list:
        """Ingest many batches with shard-level concurrency.

        Batches are split serially in publish order; each healthy
        shard's pieces then ingest as one worker task that consumes
        them *in that order*, so every series (which lives on exactly
        one shard) sees the same append sequence as the serial path —
        shard-level parallelism with per-shard serialization means the
        stores themselves need no locks.  Deferred pieces (failed
        shards) park in redo buffers serially, exactly as ``append``
        would.

        Returns one entry per batch: points stored (int), or the first
        exception a piece of that batch raised — callers account a
        raising batch the same way a raising ``append`` is accounted.
        """
        results: list = [0] * len(batches)
        per_shard: list[list[tuple[int, SeriesBatch]]] = [
            [] for _ in range(self.n_shards)
        ]
        for j, batch in enumerate(batches):
            for i, piece in self.split(batch):
                if self._health[i] is Health.FAILED:
                    self._defer(i, piece)
                    continue
                per_shard[i].append((j, piece))
        busy = [i for i in range(self.n_shards) if per_shard[i]]

        def shard_task(i: int):
            shard, pieces = self.shards[i], per_shard[i]

            def run():
                out = []
                for j, piece in pieces:
                    try:
                        out.append((j, shard.append(piece), None))
                    except Exception as exc:
                        out.append((j, 0, exc))
                return out
            return run

        if executor is not None and executor.parallel and len(busy) > 1:
            shard_results = executor.map_ordered(
                [shard_task(i) for i in busy]
            )
        else:
            shard_results = [shard_task(i)() for i in busy]
        errors: dict[int, BaseException] = {}
        for rows in shard_results:
            for j, stored, exc in rows:
                if exc is not None:
                    errors.setdefault(j, exc)
                results[j] += stored
        for j, exc in errors.items():
            results[j] = exc
        return results

    def flush(self) -> None:
        """Seal every open head chunk on every shard."""
        for s in self.shards:
            s.flush()

    # -- query (fan-out) ------------------------------------------------------

    def keys(self, metric: str | None = None) -> list[MetricKey]:
        """Series names across every healthy shard, in single-store
        order (a failed shard's series are unreachable until recovery)."""
        out: list[MetricKey] = []
        for i, s in enumerate(self.shards):
            if self._health[i] is Health.FAILED:
                continue
            out.extend(s.keys(metric))
        return sorted(out, key=str)

    def components(self, metric: str) -> list[str]:
        return [k.component for k in self.keys(metric)]

    def _series_view(self, metric: str, component: str):
        """Chunk-level surface every read resolves series through: one
        series lives on exactly one shard, and while that shard is failed
        the answer is ``None`` — reads against it degrade to empty
        instead of raising.
        """
        i = self.shard_of(metric, component)
        if self._health[i] is Health.FAILED:
            return None
        return self.shards[i]._series_view(metric, component)

    def query_epoch(self, metric: str) -> int:
        """Store-wide mutation epoch of a metric: per-shard epochs plus
        the health epoch (failing or recovering a shard changes read
        results without writing to any series)."""
        return self._health_epoch + sum(
            s.query_epoch(metric) for s in self.shards
        )

    # -- maintenance / stats ---------------------------------------------------

    def drop_series(self, metric: str, component: str) -> bool:
        return self._owner(metric, component).drop_series(metric, component)

    def stats(self) -> StoreStats:
        """Merged O(1) stats: a sum of K O(1) per-shard counters."""
        per = [s.stats() for s in self.shards]
        return StoreStats(*(sum(getattr(p, f.name) for p in per)
                            for f in fields(StoreStats)))

    def per_shard_stats(self) -> list[StoreStats]:
        """Per-shard counters (the ``selfmon.store.shard_*`` surface)."""
        return [s.stats() for s in self.shards]

    def cache_stats(self) -> ChunkCacheStats:
        """Counters of the shared decompressed-chunk cache."""
        return self.cache.stats()

    # hierarchical storage: archive / locate over the disk tier ----------------

    def archive_before(self, t_cut: float) -> int:
        """Age-demote on every shard; chunks newly demoted in total."""
        return sum(s.archive_before(t_cut) for s in self.shards)

    def locate_archived(self, metric: str, component: str) -> list:
        """The owning shard's disk-only chunks of one series (refs are
        relative to that shard's tier)."""
        return self._owner(metric, component).locate_archived(metric,
                                                              component)

    # hooks used by the out-of-core disk tier -----------------------------------

    def disk_stats(self):
        """Merged per-shard disk-tier counters, or None when in-memory."""
        per = [s.disk_stats() for s in self.shards]
        per = [p for p in per if p is not None]
        return merge_disk_stats(per) if per else None

    def snapshot(self) -> list:
        """Snapshot every disk-backed shard (per-shard manifests)."""
        return [s.snapshot() for s in self.shards if s.disk is not None]

    def reopen(self) -> "ShardedTimeSeriesStore":
        """A new store of the same declared shape and tier budgets over
        the same directories — what a restart does, after :meth:`close`
        or :meth:`simulate_crash`.  Every shard comes back healthy and
        no redo state survives (it never reached disk)."""
        return ShardedTimeSeriesStore(
            shards=self.n_shards, chunk_size=self.chunk_size,
            cache=ChunkCache(self.cache.max_bytes),
            redo_points=self.redo_points,
            pyramid_levels=self.pyramid_levels, disk_dir=self.disk_dir,
            **self._tier_budgets)

    def simulate_crash(self) -> None:
        """Power loss on every shard's tier.  Redo-parked batches were
        never WAL-logged, so they die with the process: each is stamped
        ``lost`` under ``crash-redo`` here, at the moment it is dropped,
        and visible ``pending`` never turns into silence."""
        for s in self.shards:
            s.simulate_crash()
        for i, redo in enumerate(self._redo):
            while redo:
                batch = redo.popleft()
                if self.ledger is not None:
                    self.ledger.lost_batch("crash-redo", batch)
            self._redo_depth[i] = 0

    def close(self) -> None:
        """Sync and release every shard's file handles."""
        for s in self.shards:
            s.close()

    def points_by_metric(self) -> dict[str, int]:
        """Per-metric stored point counts merged across shards."""
        out: dict[str, int] = {}
        for s in self.shards:
            for metric, n in s.points_by_metric().items():
                out[metric] = out.get(metric, 0) + n
        return out
