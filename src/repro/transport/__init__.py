"""Data transport: pluggable tiers from flat bus to aggregator tree.

Every mover implements :class:`~repro.transport.base.Transport`:
``MessageBus`` (flat synchronous fan-out, the RabbitMQ class),
``PartitionedBus`` (topic-hash partitions with bounded lanes, the
Kafka class), and ``AggregatorTree`` (LDMS-style multi-level
coalescing fan-in, the one LDMS-class tree).  Syslog forwarding with
storm loss lives in :mod:`repro.transport.syslogfwd`.
"""

from .aggtree import AggregatorTree, TreeTransportStats
from .base import (
    BusStats,
    MatchCacheInfo,
    PatternMatcher,
    Subscription,
    Transport,
    make_transport,
)
from .bus import MessageBus
from .message import (
    Envelope,
    decode_binary,
    decode_json,
    encode_binary,
    encode_json,
)
from .partitioned import PartitionedBus, PartitionedBusStats
from .syslogfwd import ForwarderStats, SyslogForwarder

__all__ = [
    "AggregatorTree",
    "TreeTransportStats",
    "BusStats",
    "MatchCacheInfo",
    "PatternMatcher",
    "Subscription",
    "Transport",
    "make_transport",
    "MessageBus",
    "PartitionedBus",
    "PartitionedBusStats",
    "Envelope",
    "decode_binary",
    "decode_json",
    "encode_binary",
    "encode_json",
    "ForwarderStats",
    "SyslogForwarder",
]
