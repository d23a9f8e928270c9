"""Data transport: pluggable tiers from flat bus to aggregator tree.

One core, :class:`~repro.transport.base.Transport`, owns subscriptions,
the publish edge, the fan-out and the accounting; the three tiers
differ only in where an accepted envelope waits: nowhere
(``MessageBus``, flat synchronous fan-out, the RabbitMQ class), in a
topic-hashed bounded partition until ``pump`` (``PartitionedBus``, the
Kafka class), or in a leaf coalescing window (``AggregatorTree``,
LDMS-style multi-level fan-in).  Syslog forwarding with storm loss
lives in :mod:`repro.transport.syslogfwd`.
"""

from .aggtree import AggregatorTree, TreeTransportStats
from .base import (
    BusStats,
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
