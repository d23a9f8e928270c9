"""One contract, every transport tier.

The flat bus, the partitioned bus and the aggregator tree share one
core (subscriptions, route memo, publish edge, fan-out, accounting) and
differ only in where an envelope waits, so every tier — and one with
idle transport chaos installed — must pass the same cases.  Each
publish is followed by ``flush()``, which releases whatever the tier
holds.  Transport faults (drop, duplicate, stall) then act on every
tier the same way, through the tier's own loss edge.
"""

import fnmatch
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.metric import SeriesBatch
from repro.obs.chaos import (
    TransportDropStorm,
    TransportDuplication,
    TransportStall,
    transport_chaos,
)
from repro.sites.config import TRANSPORT_TIERS
from repro.transport.base import ROUTE_MEMO_MAX, make_transport


def _idle_chaos(tier):
    bus = make_transport(tier)
    transport_chaos(bus)
    return bus


BUILDERS = {tier: (lambda t=tier: make_transport(t))
            for tier in TRANSPORT_TIERS}
BUILDERS["chaos-partitioned"] = lambda: _idle_chaos("partitioned")


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
    assert 0 < len(transport._routes) <= ROUTE_MEMO_MAX


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


# -- transport faults act on every tier --------------------------------------

def storing(transport):
    """A storing consumer on ``metrics.*``; returns the stored batches."""
    ledger, stored = transport.ledger, []

    def store(env):
        ledger.stored_batch(env.payload, len(env.payload))
        stored.append(env.payload)

    transport.subscribe("metrics.*", callback=store, name="store")
    return stored


def feed(transport, k0, k1):
    for k in range(k0, k1):
        transport.publish(f"metrics.m{k % 3}", batch(float(k), n=k % 5 + 1,
                                                     t=float(k)),
                          source=f"s{k % 4}")


@pytest.fixture(params=TRANSPORT_TIERS)
def tier(request):
    return request.param


def test_chaos_drop_is_accounted_loss_on_every_tier(tier):
    transport = make_transport(tier)
    storing(transport)
    site = SimpleNamespace(bus=transport)
    TransportDropStorm(start=0.0, drop_every=3).apply(site)
    feed(transport, 0, 30)
    transport.flush()
    assert transport.stats().dropped == 10      # every third publish
    report = transport.ledger.balance(in_flight=transport.in_flight_points())
    assert report.balanced and report.in_flight == 0
    dropped_points = sum(k % 5 + 1 for k in range(2, 30, 3))
    assert report.lost_by_cause == {"chaos-drop": dropped_points}
    assert report.stored == report.published - dropped_points


def test_chaos_duplicate_is_delivered_twice_and_balances(tier):
    transport = make_transport(tier)
    storing(transport)
    TransportDuplication(start=0.0, duplicate_every=2).apply(
        SimpleNamespace(bus=transport))
    feed(transport, 0, 10)
    transport.flush()
    duplicated = sum(k % 5 + 1 for k in range(1, 10, 2))
    report = transport.ledger.balance(in_flight=0)
    assert report.balanced and report.lost == 0
    assert report.duplicated == duplicated
    assert report.stored == sum(k % 5 + 1 for k in range(10)) + duplicated
    assert transport.stats().dropped == 0


def test_chaos_stall_holds_everything_in_flight(tier):
    transport = make_transport(tier)
    storing(transport)
    site = SimpleNamespace(bus=transport)
    stall = TransportStall(start=0.0)
    stall.apply(site)
    feed(transport, 0, 10)
    assert transport.pump(1e9) == 0 and transport.flush() == 0
    held = transport.in_flight_points()
    report = transport.ledger.balance(in_flight=held)
    assert report.balanced and report.lost == 0
    # the flat tier delivers inside publish: a stall has nothing to hold
    assert (held == 0) == (tier == "flat")
    stall.revert(site)
    transport.flush()
    report = transport.ledger.balance(in_flight=transport.in_flight_points())
    assert report.in_flight == 0 and report.stored == report.published


@pytest.mark.parametrize("order", ["fifo", "lifo"])
def test_overlapping_faults_revert_to_an_untouched_twin(tier, order):
    transport, twin = make_transport(tier), make_transport(tier)
    stored, twin_stored = storing(transport), storing(twin)
    site = SimpleNamespace(bus=transport)
    faults = [TransportDropStorm(start=0.0, drop_every=4),
              TransportDuplication(start=0.0, duplicate_every=3),
              TransportStall(start=0.0)]
    for f in faults:
        f.apply(site)
    feed(transport, 0, 24)
    for f in (faults if order == "fifo" else faults[::-1]):
        f.revert(site)
    chaos = transport_chaos(transport)
    assert (chaos.drop_every, chaos.duplicate_every, chaos.stall_pumps) \
        == (0, 0, False)
    transport.flush()
    before = transport.stats()
    del stored[:]
    feed(transport, 24, 48)
    feed(twin, 24, 48)
    transport.flush()
    twin.flush()
    after, want = transport.stats(), twin.stats()
    for field in ("published", "delivered", "dropped", "errors"):
        assert getattr(after, field) - getattr(before, field) \
            == getattr(want, field), field
    assert [(b.metric, b.values.tolist()) for b in stored] == \
        [(b.metric, b.values.tolist()) for b in twin_stored]
    report = transport.ledger.balance(in_flight=0)
    assert report.balanced and report.unaccounted == 0
    assert set(report.lost_by_cause) <= {"chaos-drop"}
