"""Hierarchical (hot/cold) storage tiering with archive and reload.

Table I (*Data Storage and Formats*): "hierarchical storage models with
the ability to locate and reload data as needed are desirable" and
"Solutions must address both the mechanics of the archiving and
reloading and tracking the locations and contents of archived data."

:class:`TieredStore` wraps a hot :class:`TimeSeriesStore`; ``archive()``
moves sealed chunks older than a cutoff into a cold tier (zlib-packed
blobs, optionally persisted to a directory) while a catalog records
exactly which series/time-spans live cold.  Queries that touch archived
spans transparently reload the needed chunks first — long-term analyses
("revisiting historical data in conjunction with current data") just
work, at reload cost the stats expose.
"""

from __future__ import annotations

import pickle
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..core.metric import MetricKey, SeriesBatch
from .tsdb import TimeSeriesStore

__all__ = ["ArchiveEntry", "TieredStore"]


@dataclass
class ArchiveEntry:
    """Catalog record: where one series' cold chunks are and what they span."""

    key: MetricKey
    t_min: float
    t_max: float
    n_chunks: int
    location: str               # "memory" or a file path
    blob: bytes | None = None   # present when location == "memory"


class TieredStore:
    """Hot TSDB + cold archive with a catalog."""

    def __init__(
        self,
        hot: TimeSeriesStore | None = None,
        cold_dir: str | Path | None = None,
    ) -> None:
        self.hot = hot or TimeSeriesStore()
        self.cold_dir = Path(cold_dir) if cold_dir else None
        if self.cold_dir:
            self.cold_dir.mkdir(parents=True, exist_ok=True)
        self.catalog: list[ArchiveEntry] = []
        self.reloads = 0
        self.archived_chunks = 0

    # -- ingest passes straight to the hot tier ------------------------------------

    def append(self, batch: SeriesBatch) -> int:
        return self.hot.append(batch)

    # -- archiving -------------------------------------------------------------------

    def archive_before(self, t_cut: float) -> int:
        """Move all sealed data older than ``t_cut`` to the cold tier.

        Returns the number of chunks archived.  The hot head (still
        mutable) is sealed first so nothing straddles the boundary.
        """
        self.hot.flush()
        moved = 0
        for key in list(self.hot.keys()):
            chunks, spans = self.hot.export_series(key)
            old = [
                (c, s) for c, s in zip(chunks, spans) if s[1] < t_cut
            ]
            if not old:
                continue
            payload = zlib.compress(pickle.dumps(old))
            t_min = min(s[0] for _, s in old)
            t_max = max(s[1] for _, s in old)
            entry = ArchiveEntry(
                key=key,
                t_min=t_min,
                t_max=t_max,
                n_chunks=len(old),
                location="memory",
                blob=payload,
            )
            if self.cold_dir:
                fname = (
                    f"{key.metric}_{key.component}_{int(t_min)}.cold"
                ).replace("/", "_")
                path = self.cold_dir / fname
                path.write_bytes(payload)
                entry.location = str(path)
                entry.blob = None
            self.catalog.append(entry)
            self.hot.evict_chunks_before(key, t_cut)
            moved += len(old)
        self.archived_chunks += moved
        return moved

    # -- reload ----------------------------------------------------------------------

    def _load_entry(self, entry: ArchiveEntry) -> list[tuple[bytes, tuple[float, float]]]:
        if entry.blob is not None:
            payload = entry.blob
        else:
            payload = Path(entry.location).read_bytes()
        return pickle.loads(zlib.decompress(payload))

    def reload(self, key: MetricKey, t0: float, t1: float) -> int:
        """Bring archived chunks overlapping [t0, t1) back into the hot
        tier; returns the number of chunks reloaded."""
        reloaded = 0
        remaining: list[ArchiveEntry] = []
        for entry in self.catalog:
            if entry.key != key or entry.t_max < t0 or entry.t_min >= t1:
                remaining.append(entry)
                continue
            old = self._load_entry(entry)
            self.hot.import_chunks(
                key, [c for c, _ in old], [s for _, s in old]
            )
            reloaded += entry.n_chunks
            if entry.location != "memory":
                Path(entry.location).unlink(missing_ok=True)
        self.catalog = remaining
        if reloaded:
            self.reloads += 1
        return reloaded

    # -- transparent query --------------------------------------------------------------

    def query(
        self,
        metric: str,
        component: str,
        t0: float = -np.inf,
        t1: float = np.inf,
    ) -> SeriesBatch:
        """Range query that reloads cold spans as needed."""
        key = MetricKey(metric, component)
        if any(
            e.key == key and not (e.t_max < t0 or e.t_min >= t1)
            for e in self.catalog
        ):
            self.reload(key, t0, t1)
        return self.hot.query(metric, component, t0, t1)

    # -- introspection ------------------------------------------------------------------

    def cold_spans(self, metric: str, component: str) -> list[tuple[float, float]]:
        key = MetricKey(metric, component)
        return sorted(
            (e.t_min, e.t_max) for e in self.catalog if e.key == key
        )

    def stats(self):
        """Counters of the hot tier (the cold archive is catalogued)."""
        return self.hot.stats()

    def cache_stats(self):
        """Counters of the hot tier's decompressed-chunk cache."""
        return self.hot.cache_stats()

    def cold_bytes(self) -> int:
        total = 0
        for e in self.catalog:
            if e.blob is not None:
                total += len(e.blob)
            else:
                p = Path(e.location)
                if p.exists():
                    total += p.stat().st_size
        return total
