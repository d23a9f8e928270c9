"""Unit tests for the pub/sub message bus."""

import pytest

from repro.transport.bus import MessageBus


@pytest.fixture()
def bus():
    return MessageBus()


class TestRouting:
    def test_exact_topic_delivery(self, bus):
        sub = bus.subscribe("metrics.power")
        bus.publish("metrics.power", {"v": 1})
        bus.publish("metrics.temp", {"v": 2})
        got = sub.drain()
        assert len(got) == 1
        assert got[0].payload == {"v": 1}

    def test_wildcard_delivery(self, bus):
        sub = bus.subscribe("metrics.*")
        bus.publish("metrics.power", 1)
        bus.publish("metrics.temp", 2)
        bus.publish("events.hwerr", 3)
        assert len(sub.drain()) == 2

    def test_multiple_consumers_fanout(self, bus):
        a = bus.subscribe("t")
        b = bus.subscribe("t")
        n = bus.publish("t", 1)
        assert n == 2
        assert len(a.drain()) == 1 and len(b.drain()) == 1

    def test_no_subscribers_is_fine(self, bus):
        assert bus.publish("nowhere", 1) == 0

    def test_unsubscribe_stops_delivery(self, bus):
        sub = bus.subscribe("t")
        bus.unsubscribe(sub)
        bus.publish("t", 1)
        assert sub.drain() == []

    def test_seq_increments(self, bus):
        sub = bus.subscribe("t")
        bus.publish("t", 1)
        bus.publish("t", 2)
        seqs = [e.seq for e in sub.drain()]
        assert seqs == sorted(seqs) and len(set(seqs)) == 2


class TestCallbacks:
    def test_callback_delivery_is_synchronous(self, bus):
        seen = []
        bus.subscribe("t", callback=seen.append)
        bus.publish("t", 42)
        assert seen[0].payload == 42

    def test_raising_callback_does_not_abort_fanout(self, bus):
        """A misbehaving subscriber must not starve later consumers."""
        seen_before, seen_after = [], []

        def boom(env):
            raise RuntimeError("consumer bug")

        bus.subscribe("t", callback=seen_before.append, name="healthy-1")
        bad = bus.subscribe("t", callback=boom, name="broken")
        bus.subscribe("t", callback=seen_after.append, name="healthy-2")
        queued = bus.subscribe("t", name="queued")

        hits = bus.publish("t", 1)
        # both healthy callbacks and the queue got the envelope
        assert len(seen_before) == len(seen_after) == 1
        assert len(queued.drain()) == 1
        assert hits == 3                       # the raise is not a delivery
        assert bad.errors == 1
        assert isinstance(bad.last_error, RuntimeError)
        assert bad.received == 0

    def test_errors_accumulate_per_subscription(self, bus):
        def boom(env):
            raise ValueError("again")

        bad = bus.subscribe("t", callback=boom)
        for i in range(5):
            bus.publish("t", i)
        assert bad.errors == 5
        assert bus.stats().errors == 5

    def test_callback_recovers_after_transient_error(self, bus):
        calls = []

        def flaky(env):
            if env.payload == "bad":
                raise RuntimeError("transient")
            calls.append(env.payload)

        sub = bus.subscribe("t", callback=flaky)
        bus.publish("t", "ok-1")
        bus.publish("t", "bad")
        bus.publish("t", "ok-2")
        assert calls == ["ok-1", "ok-2"]
        assert sub.errors == 1
        assert sub.received == 2


class TestBackpressure:
    def test_queue_overflow_drops_oldest(self, bus):
        sub = bus.subscribe("t", maxlen=3)
        for i in range(5):
            bus.publish("t", i)
        got = [e.payload for e in sub.drain()]
        assert got == [2, 3, 4]
        assert sub.dropped == 2

    def test_overflow_keeps_exactly_the_newest_window(self, bus):
        """Drop-oldest under a storm: the retained window slides."""
        sub = bus.subscribe("t", maxlen=10)
        for i in range(1000):
            bus.publish("t", i)
        assert sub.dropped == 990
        assert sub.received == 1000
        got = [e.payload for e in sub.drain()]
        assert got == list(range(990, 1000))
        # queue empty again: new publishes are retained without drops
        bus.publish("t", "fresh")
        assert sub.dropped == 990
        assert [e.payload for e in sub.drain()] == ["fresh"]

    def test_overflow_isolated_per_subscription(self, bus):
        tiny = bus.subscribe("t", maxlen=2)
        roomy = bus.subscribe("t", maxlen=100)
        for i in range(10):
            bus.publish("t", i)
        assert tiny.dropped == 8
        assert roomy.dropped == 0
        assert len(roomy) == 10

    def test_drain_max_items(self, bus):
        sub = bus.subscribe("t")
        for i in range(10):
            bus.publish("t", i)
        assert len(sub.drain(max_items=4)) == 4
        assert len(sub) == 6

    def test_queue_depths_snapshot(self, bus):
        a = bus.subscribe("x", name="a")
        bus.subscribe("x", callback=lambda env: None, name="cb")
        for i in range(7):
            bus.publish("x", i)
        depths = bus.queue_depths()
        assert depths["a"] == 7
        assert depths["cb"] == 0               # callbacks never queue
        a.drain()
        assert bus.queue_depths()["a"] == 0

    def test_queue_depths_disambiguates_shared_names(self, bus):
        bus.subscribe("t")
        bus.subscribe("t")
        bus.publish("t", 1)
        depths = bus.queue_depths()
        assert len(depths) == 2
        assert all(d == 1 for d in depths.values())


class TestStats:
    def test_stats_account_everything(self, bus):
        sub = bus.subscribe("t", maxlen=2)
        bus.subscribe("t")
        for i in range(4):
            bus.publish("t", i)
        s = bus.stats()
        assert s.published == 4
        assert s.delivered == 8
        assert s.dropped == 2
        assert s.subscriptions == 2
        assert s.errors == 0
        assert s.queue_depths == {"t": 2, "t#1": 4}
