"""Unit tests for the partitioned (Kafka-class) transport tier."""

import pytest

from repro.transport.partitioned import PartitionedBus


@pytest.fixture()
def bus():
    return PartitionedBus(partitions=4, partition_queue_len=100)


class TestRouting:
    def test_partition_assignment_is_stable(self, bus):
        """Same topic -> same partition, across calls and instances."""
        topics = [f"metrics.m{i}" for i in range(50)]
        first = [bus.partition_of(t) for t in topics]
        assert first == [bus.partition_of(t) for t in topics]
        other = PartitionedBus(partitions=4)
        assert first == [other.partition_of(t) for t in topics]

    def test_topics_spread_across_partitions(self, bus):
        parts = {bus.partition_of(f"metrics.m{i}") for i in range(100)}
        assert len(parts) == 4

    def test_repartition_only_on_count_change(self, bus):
        other = PartitionedBus(partitions=8)
        moved = [
            t for t in (f"metrics.m{i}" for i in range(100))
            if bus.partition_of(t) != other.partition_of(t)
        ]
        assert moved            # different K really does repartition

    def test_partition_count_validation(self):
        with pytest.raises(ValueError):
            PartitionedBus(partitions=0)


class TestDeferredDelivery:
    def test_publish_defers_until_pump(self, bus):
        sub = bus.subscribe("metrics.*")
        assert bus.publish("metrics.power", 1) == 0
        assert sub.drain() == []                 # nothing delivered yet
        assert bus.pump() == 1
        assert [e.payload for e in sub.drain()] == [1]

    def test_wildcard_sees_all_partitions(self, bus):
        sub = bus.subscribe("metrics.*")
        topics = [f"metrics.m{i}" for i in range(20)]
        for t in topics:
            bus.publish(t, t)
        bus.pump()
        assert sorted(e.payload for e in sub.drain()) == sorted(topics)

    def test_per_topic_fifo_preserved(self, bus):
        sub = bus.subscribe("metrics.power")
        for i in range(10):
            bus.publish("metrics.power", i)
        bus.pump()
        assert [e.payload for e in sub.drain()] == list(range(10))

    def test_callbacks_fire_on_pump(self, bus):
        seen = []
        bus.subscribe("t", callback=seen.append)
        bus.publish("t", 42)
        assert seen == []
        bus.pump()
        assert seen[0].payload == 42

    def test_flush_equals_pump_all(self, bus):
        sub = bus.subscribe("*")
        bus.publish("a", 1)
        bus.publish("b", 2)
        assert bus.flush() == 2
        assert len(sub.drain()) == 2


class TestBoundedPartitions:
    def test_drop_oldest_counted_per_partition(self):
        bus = PartitionedBus(partitions=2, partition_queue_len=5)
        sub = bus.subscribe("metrics.storm")
        p = bus.partition_of("metrics.storm")
        for i in range(12):
            bus.publish("metrics.storm", i)
        drops = bus.lane_drops()
        assert drops[f"partition-{p}"] == 7
        assert sum(drops.values()) == 7
        bus.pump()
        # the newest window survived
        assert [e.payload for e in sub.drain()] == list(range(7, 12))

    def test_storm_isolated_to_its_partition(self):
        bus = PartitionedBus(partitions=8, partition_queue_len=4)
        quiet_topic = next(
            f"metrics.q{i}" for i in range(100)
            if bus.partition_of(f"metrics.q{i}")
            != bus.partition_of("metrics.storm")
        )
        sub = bus.subscribe(quiet_topic)
        bus.publish(quiet_topic, "safe")
        for i in range(1000):
            bus.publish("metrics.storm", i)
        bus.pump()
        assert [e.payload for e in sub.drain()] == ["safe"]

    def test_depths_reflect_backlog_then_drain(self, bus):
        bus.subscribe("metrics.*", callback=lambda env: None)
        for i in range(10):
            bus.publish(f"metrics.m{i}", i)
        assert sum(bus.lane_depths().values()) == 10
        bus.pump()
        assert sum(bus.lane_depths().values()) == 0


class TestStats:
    def test_stats_merge_partition_and_sub_accounting(self):
        bus = PartitionedBus(partitions=2, partition_queue_len=3)
        bus.subscribe("metrics.*", maxlen=2)
        p = bus.partition_of("metrics.storm")
        for i in range(5):
            bus.publish("metrics.storm", i)
        s = bus.stats()
        assert s.published == 5
        assert s.partitions == 2
        assert s.partition_dropped[p] == 2       # 5 into a 3-deep lane
        assert s.delivered == 0                  # not pumped yet
        bus.pump()
        s = bus.stats()
        assert s.delivered == 3
        # 2 dropped in the partition + 1 dropped by the maxlen=2 sub
        assert s.dropped == 3

    def test_queue_depths_include_partitions_and_subs(self, bus):
        bus.subscribe("metrics.*", name="ingest")
        bus.publish("metrics.a", 1)
        depths = bus.queue_depths()
        assert "ingest" in depths
        assert any(k.startswith("partition-") for k in depths)
