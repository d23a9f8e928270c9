"""Storage backends: TSDB (plain or sharded, optionally over the disk
tier — constructing one over a directory restores what is there),
relational, log index, job index."""

from .chunkcache import ChunkCache, ChunkCacheStats
from .diskier import ChunkRef, DiskTier, DiskTierStats, RecoveryReport
from .jobstore import Allocation, JobIndex
from .logstore import LogStore, tokenize
from .sharded import ShardedTimeSeriesStore
from .sqlstore import JobRow, SqlStore, TestResultRow
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
    "ChunkCache",
    "ChunkCacheStats",
    "ChunkRef",
    "ChunkSummary",
    "DiskTier",
    "DiskTierStats",
    "RecoveryReport",
    "ShardedTimeSeriesStore",
    "JobRow",
    "SqlStore",
    "TestResultRow",
    "SeriesQueryMixin",
    "StoreStats",
    "TimeSeriesStore",
    "compress_chunk",
    "decompress_chunk",
]
