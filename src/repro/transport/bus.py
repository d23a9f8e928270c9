"""In-process pub/sub message bus (the AMQP/RabbitMQ class).

NERSC's infrastructure "includes a message queuing system (RabbitMQ)"
fanning data from many producers to many consumers.  Table I
(*Architecture*): "We will need to direct the data and analysis results
to multiple consumers" with "multiple flexible data paths ... easily
configured and changed".

This bus is the flat (single-broker) tier of
:class:`~repro.transport.base.Transport`: an accepted envelope waits
nowhere — ``publish`` fans it out to every matching subscription
before it returns.  Topic routing with ``*`` wildcards, per-consumer
bounded drop-oldest queues (backpressure during event storms is
exactly the Splunk-cost scenario the paper mentions), isolation of a
raising subscriber callback and the delivery statistics all live in
the shared core.
"""

from __future__ import annotations

from repro.core.tracectx import HOP_PUBLISH

from .base import BusStats, Subscription, Transport

__all__ = ["Subscription", "MessageBus", "BusStats"]


class MessageBus(Transport):
    """Topic router with wildcard subscriptions and synchronous fan-out."""

    tier = "flat"

    def publish(self, topic: str, payload, source: str = "") -> int:
        """Publish one payload; returns the number of consumers reached.

        Every matching subscriber is offered the envelope even when an
        earlier subscriber's callback raises (the raise is isolated and
        counted in that subscription's ``errors``).
        """
        self._accept(topic, payload, source, HOP_PUBLISH)
        return self._deliver(self._envelope(topic, payload, source))
