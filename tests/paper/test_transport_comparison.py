"""Transport comparison: pub/sub bus vs LDMS-class tree vs syslog.

Section IV-B: sites juggle "a variety of transport mechanisms" with
different fidelity/overhead tradeoffs, and "multiple transports may in
some cases be necessary and even desirable".  We measure throughput of
each class and loss behaviour under an event storm — the scenario that
also blows up Splunk bills — plus the two transport-tier wins of the
refactor: the memoized match cache on the flat bus's hot path, and the
aggregator tree's upstream message reduction at Trinity scale (27,648
per-node publishers).
"""

import numpy as np
import pytest

from repro.core.events import Event, EventKind, Severity
from repro.core.metric import SeriesBatch
from repro.transport.aggtree import AggregatorTree
from repro.transport.bus import MessageBus
from repro.transport.syslogfwd import SyslogForwarder

N_NODES = 256


def make_events(n, t0=0.0, rate=1000.0):
    return [
        Event(t0 + i / rate, f"n{i % N_NODES}", EventKind.CONSOLE,
              Severity.INFO, f"event number {i}")
        for i in range(n)
    ]


class TestBusThroughput:
    def test_bench_bus_fanout(self):
        bus = MessageBus()
        sink = bus.subscribe("metrics.*", maxlen=100_000)
        batch = SeriesBatch.sweep("m", 0.0, [f"n{i}" for i in range(64)],
                                  np.ones(64))

        def publish_sweep():
            for _ in range(100):
                bus.publish("metrics.m", batch)
            return sink.drain()

        out = publish_sweep()
        assert len(out) == 100


class TestMatchCache:
    """The flat bus's hottest line is topic/pattern fnmatch; the
    bounded memo cache turns it into a dict hit on recurring pairs."""

    TOPICS = [f"metrics.m{i}" for i in range(32)]
    PATTERNS = ["metrics.*", "events.*", "selfmon.*", "*.m0"]

    def _loaded_bus(self, cache_size):
        bus = MessageBus(match_cache_size=cache_size)
        for pat in self.PATTERNS:
            bus.subscribe(pat, callback=lambda env: None)
        return bus

    def _publish_storm(self, bus, rounds=200):
        for _ in range(rounds):
            for t in self.TOPICS:
                bus.publish(t, None)

    def test_bench_cached_publish(self):
        bus = self._loaded_bus(4096)
        self._publish_storm(bus)
        info = bus.match_cache_info()
        assert info.hits > 100 * info.misses     # steady state: all hits
        assert info.size == len(self.TOPICS) * len(self.PATTERNS)

    def test_bench_uncached_publish(self):
        bus = self._loaded_bus(0)
        self._publish_storm(bus)
        assert bus.match_cache_info().size == 0

    def test_cache_beats_fnmatch_on_recurring_topics(self):
        """Identical storms, cached vs uncached: the memo absorbs the
        recurring pairs and routes exactly what fnmatch routes."""
        cached, uncached = self._loaded_bus(4096), self._loaded_bus(0)
        for bus in (cached, uncached):
            self._publish_storm(bus, rounds=50)
        assert cached.match_cache_info().hits > 0
        assert uncached.match_cache_info().size == 0
        assert uncached.match_cache_info().hits == 0
        assert cached.stats().delivered == uncached.stats().delivered > 0


class TestAggregatorTreeAtScale:
    """Table I's scale row: a Trinity-class machine (27,648 nodes) each
    publishing per-node batches must not translate into 27,648 messages
    at the store — the tree coalesces them to one merged batch per
    metric per window, with zero data loss."""

    N_SCALE = 27_648

    def test_upstream_message_reduction_at_trinity_scale(self):
        tree = AggregatorTree(leaves=432, fan_in=8, window_s=0.0,
                              leaf_queue_len=10**6,
                              default_queue_len=10**6)
        delivered_points = 0
        delivered_msgs = 0

        def sink(env):
            nonlocal delivered_points, delivered_msgs
            delivered_msgs += 1
            delivered_points += len(env.payload)

        tree.subscribe("metrics.*", callback=sink)
        n_sweeps = 3
        for sweep in range(n_sweeps):
            now = 60.0 * sweep
            for node in range(self.N_SCALE):
                tree.publish(
                    "metrics.node.power_w",
                    SeriesBatch.sweep("node.power_w", now,
                                      [f"n{node}"], [100.0 + node]),
                    source=f"n{node}",
                )
            tree.pump(now=now)
        tree.flush()

        s = tree.stats()
        published = s.batches_in
        reduction = published / s.upstream_messages
        print(f"\naggregator tree at {self.N_SCALE} nodes x {n_sweeps} "
              f"sweeps: {published} published batches -> "
              f"{s.upstream_messages} upstream messages "
              f"({reduction:.0f}x reduction, {s.levels} levels)")
        assert published == self.N_SCALE * n_sweeps
        assert reduction >= 5.0                       # acceptance floor
        # zero data loss, zero duplication, point-for-point
        assert s.dropped_batches == 0
        assert delivered_points == s.points_in == published
        assert delivered_msgs == s.upstream_messages

    def test_reduction_scales_with_window(self):
        """A wider window coalesces more sweeps per upstream message."""
        def run(window_s):
            tree = AggregatorTree(leaves=16, fan_in=4, window_s=window_s,
                                  leaf_queue_len=10**5)
            tree.subscribe("metrics.*", callback=lambda env: None)
            for sweep in range(10):
                now = 60.0 * sweep
                for node in range(512):
                    tree.publish(
                        "metrics.node.power_w",
                        SeriesBatch.sweep("node.power_w", now,
                                          [f"n{node}"], [1.0]),
                        source=f"n{node}",
                    )
                tree.pump(now=now)
            tree.flush()
            return tree.stats().coalesce_ratio

        per_sweep = run(0.0)
        per_5min = run(300.0)
        print(f"\ncoalesce ratio: window 0s = {per_sweep:.0f}x, "
              f"window 300s = {per_5min:.0f}x")
        assert per_5min > per_sweep


class TestTreeFanIn:
    """One leaf daemon per node, ``fan_in`` children per aggregator:
    the LDMS-class shape, from one wide level to a deep narrow tree."""

    def sweep(self, tree, now):
        for i in range(N_NODES):
            tree.publish("metrics.m",
                         SeriesBatch.sweep("m", now, [f"n{i}"], [1.0]),
                         source=f"n{i}")
        return tree.pump(now)

    @pytest.mark.parametrize("fan_in", [4, 16, 256])
    def test_bench_tree_sweep(self, fan_in):
        tree = AggregatorTree(leaves=N_NODES, fan_in=fan_in)
        got = []
        tree.subscribe("metrics.*",
                       callback=lambda env: got.append(len(env.payload)))
        self.sweep(tree, 60.0)
        # every sweep reaches the root whole, as one coalesced message
        assert got and set(got) == {N_NODES}

    def test_deeper_trees_forward_through_more_levels(self):
        flat = AggregatorTree(leaves=N_NODES, fan_in=256)
        deep = AggregatorTree(leaves=N_NODES, fan_in=4)
        for tree in (flat, deep):
            tree.subscribe("metrics.*", callback=lambda env: None)
            self.sweep(tree, 0.0)
        sf, sd = flat.stats(), deep.stats()
        print(f"\nper sweep: fan-in 256 = {sf.levels} levels, "
              f"fan-in 4 = {sd.levels} levels; both forward "
              f"{sd.leaf_messages} leaf messages as "
              f"{sd.upstream_messages} upstream message")
        # fan-in changes how often a point is re-forwarded on the way
        # up, never what leaves the leaves or reaches the root
        assert sd.levels > sf.levels
        assert sd.leaf_messages == sf.leaf_messages
        assert sd.upstream_messages == sf.upstream_messages == 1
        assert sd.points_forwarded == sf.points_forwarded == N_NODES


class TestSyslogUnderStorm:
    def test_bench_forwarding(self):
        sink = []
        fwd = SyslogForwarder(sink.append, rate_per_s=1e9, burst=10**6)
        events = make_events(1000)
        fwd.forward(0.0, events)
        assert sink

    def test_loss_vs_storm_intensity(self):
        print("\nsyslog loss under event storms (capacity 1000 ev/s):")
        rows = []
        for storm in (500, 1000, 5000, 20000):
            sink = []
            fwd = SyslogForwarder(sink.append, rate_per_s=1000.0,
                                  burst=200, retry_buffer=500)
            # one second of storm, then 2 quiet seconds to drain retries
            fwd.forward(0.0, make_events(storm))
            fwd.forward(1.0, [])
            fwd.forward(2.0, [])
            s = fwd.stats()
            rows.append((storm, s.loss_rate))
            print(f"  {storm:6d} events/s -> delivered {s.forwarded}, "
                  f"lost {s.dropped} ({100 * s.loss_rate:.0f}%)")
        # loss must be monotone in storm intensity, zero when under rate
        assert rows[0][1] == 0.0
        assert all(b[1] >= a[1] for a, b in zip(rows, rows[1:]))
        assert rows[-1][1] > 0.5

    def test_bus_drops_oldest_not_newest_under_storm(self):
        bus = MessageBus()
        sub = bus.subscribe("t", maxlen=100)
        for i in range(1000):
            bus.publish("t", i)
        got = [e.payload for e in sub.drain()]
        assert got == list(range(900, 1000))
        assert bus.stats().dropped == 900

    def test_bus_stats_expose_depth_and_errors_under_storm(self):
        """The self-monitoring surfaces: per-subscription backlog and
        isolated callback failures are visible in BusStats."""
        bus = MessageBus()
        bus.subscribe("t", maxlen=50, name="slow-consumer")
        fails = bus.subscribe(
            "t", name="flaky-consumer",
            callback=lambda env: (_ for _ in ()).throw(RuntimeError("die")),
        )
        keeper = bus.subscribe("t", maxlen=10_000, name="keeper")
        for i in range(500):
            bus.publish("t", i)
        s = bus.stats()
        assert s.errors == 500
        assert fails.errors == 500
        assert s.queue_depths["slow-consumer"] == 50
        assert s.queue_depths["keeper"] == 500
        assert bus.queue_depths() == s.queue_depths
        # the flaky consumer never blocked the keeper's feed
        assert [e.payload for e in keeper.drain()] == list(range(500))

    def test_depth_tracks_producer_consumer_imbalance(self):
        bus = MessageBus()
        sub = bus.subscribe("metrics.*", maxlen=100_000, name="analysis")
        batch = SeriesBatch.sweep("m", 0.0, [f"n{i}" for i in range(8)],
                                  np.ones(8))
        depths = []
        for round_ in range(5):
            for _ in range(100):
                bus.publish("metrics.m", batch)
            depths.append(bus.queue_depths()["analysis"])
            sub.drain(max_items=50)            # consumer at half speed
        assert depths == [100, 150, 200, 250, 300]
