"""Storage backends: TSDB (plain or sharded, optionally over the disk
tier — constructing one over a directory restores what is there),
relational, log index, job index."""

from .chunkcache import CacheStats, LRUCache
from .diskier import ChunkRef, DiskTier, DiskTierStats, RecoveryReport
from .jobstore import Allocation, JobIndex
from .logstore import LogStore, tokenize
from .sharded import ShardedTimeSeriesStore
from .sqlstore import JobRow, SqlStore
from .tsdb import (
    ChunkSummary,
    SeriesQueryMixin,
    StoreStats,
    TimeSeriesStore,
    compress_chunk,
    decompress_chunk,
)

__all__ = [
    "Allocation",
    "JobIndex",
    "LogStore",
    "tokenize",
    "CacheStats",
    "LRUCache",
    "ChunkRef",
    "ChunkSummary",
    "DiskTier",
    "DiskTierStats",
    "RecoveryReport",
    "ShardedTimeSeriesStore",
    "JobRow",
    "SqlStore",
    "SeriesQueryMixin",
    "StoreStats",
    "TimeSeriesStore",
    "compress_chunk",
    "decompress_chunk",
]
