"""One contract, every transport tier.

The flat bus, the partitioned bus and the aggregator tree share one
core (subscriptions, route memo, publish edge, fan-out, accounting) and
differ only in where an envelope waits, so every tier — and the chaos
wrapper around one — must pass the same cases.  Each publish is
followed by ``flush()``, which releases whatever the tier holds.
"""

import fnmatch

import numpy as np
import pytest

from repro.core.metric import SeriesBatch
from repro.obs.chaos import ChaosTransport
from repro.sites.config import TRANSPORT_TIERS
from repro.transport.base import ROUTE_MEMO_MAX, make_transport
from repro.transport.partitioned import PartitionedBus

BUILDERS = {tier: (lambda t=tier: make_transport(t))
            for tier in TRANSPORT_TIERS}
BUILDERS["chaos-partitioned"] = lambda: ChaosTransport(PartitionedBus())


@pytest.fixture(params=sorted(BUILDERS))
def transport(request):
    return BUILDERS[request.param]()


def batch(value: float, n: int = 1, t: float = 0.0) -> SeriesBatch:
    return SeriesBatch.sweep("m", t, [f"c{i}" for i in range(n)],
                             np.full(n, value))


def send(transport, topic, payload, source=""):
    transport.publish(topic, payload, source)
    transport.flush()


def values(sub):
    return [float(env.payload.values[0]) for env in sub.drain()]


def test_tier_names_its_table_i_row(transport):
    assert transport.tier in TRANSPORT_TIERS
    assert make_transport(transport.tier).tier == transport.tier


def test_raising_callback_is_isolated_and_counted(transport):
    seen_before, seen_after = [], []

    def boom(env):
        raise RuntimeError("consumer bug")

    transport.subscribe("metrics.*", callback=seen_before.append)
    bad = transport.subscribe("metrics.*", callback=boom, name="broken")
    transport.subscribe("metrics.*", callback=seen_after.append)
    queued = transport.subscribe("metrics.*", name="queued")
    send(transport, "metrics.t", batch(1.0))
    assert len(seen_before) == len(seen_after) == len(queued.drain()) == 1
    assert bad.errors == 1 and bad.received == 0
    assert isinstance(bad.last_error, RuntimeError)
    s = transport.stats()
    assert s.errors == 1 and s.delivered == 3


def test_pull_subscription_drops_oldest(transport):
    sub = transport.subscribe("metrics.t", maxlen=3)
    for i in range(5):
        send(transport, "metrics.t", batch(float(i)))
    assert values(sub) == [2.0, 3.0, 4.0]
    assert sub.dropped == 2
    assert transport.stats().dropped == 2


def test_queue_depths_suffix_shared_names_after_the_lanes(transport):
    transport.subscribe("metrics.*")
    transport.subscribe("metrics.*")
    send(transport, "metrics.t", batch(1.0))
    depths = transport.queue_depths()
    lanes = transport.lane_depths()
    assert list(depths)[:len(lanes)] == list(lanes)
    assert {k: depths[k] for k in ("metrics.*", "metrics.*#1")} == \
        {"metrics.*": 1, "metrics.*#1": 1}


def test_route_memo_follows_subscribe_and_unsubscribe(transport):
    broad = transport.subscribe("metrics.*")
    send(transport, "metrics.x", batch(1.0))       # routes metrics.x
    narrow = transport.subscribe("metrics.x")
    send(transport, "metrics.x", batch(2.0))
    assert values(narrow) == [2.0]                 # sees it once added
    transport.unsubscribe(broad)
    send(transport, "metrics.x", batch(3.0))
    assert values(broad) == [1.0, 2.0]             # stops once removed
    assert values(narrow) == [3.0]


def test_route_memo_is_bounded(transport):
    sub = transport.subscribe("metrics.*")
    for i in range(ROUTE_MEMO_MAX + 10):
        transport.publish(f"metrics.m{i}", i)
    transport.flush()
    assert len(sub) == ROUTE_MEMO_MAX + 10
    inner = getattr(transport, "inner", transport)
    assert 0 < len(inner._routes) <= ROUTE_MEMO_MAX


TOPICS = ["metrics.node.power_w", "metrics.cpu", "metrics", "metricsX.a",
          "events.hwerr", "selfmon.bus.dropped", "a.b.c"]
PATTERNS = ["metrics.*", "*.power_w", "events.hwerr", "*",
            "selfmon.*.dropped", "metrics.[nc]*", "?vents.*", "a.*.c"]


def test_routing_equals_fnmatch(transport):
    subs = {p: transport.subscribe(p, name=p) for p in PATTERNS}
    for _ in range(2):                             # cold, then memoized
        for i, topic in enumerate(TOPICS):
            send(transport, topic, batch(float(i)))
    for pattern, sub in subs.items():
        got = [env.topic for env in sub.drain()]
        want = [t for t in TOPICS if fnmatch.fnmatchcase(t, pattern)]
        assert got == want * 2, pattern


def test_ledger_balances_and_nothing_is_left_in_flight(transport):
    ledger = transport.ledger

    def store(env):
        ledger.stored_batch(env.payload, len(env.payload))

    transport.subscribe("metrics.*", callback=store)
    for k in range(12):
        transport.publish(f"metrics.m{k % 3}", batch(1.0, n=k + 1, t=k),
                          source=f"s{k % 4}")
        report = ledger.balance(in_flight=transport.in_flight_points())
        assert report.balanced, report.render()
    transport.flush()
    assert transport.in_flight_points() == 0
    report = ledger.balance(in_flight=0)
    assert report.balanced and report.lost == 0
    assert report.published == report.stored == sum(range(1, 13))
