"""Property-based tests: the delivery ledger's balance identity.

The invariant the whole accounting plane rests on: at *every* point in
a run — mid-storm, mid-window, before or after a pump — every published
point is stored, accounted lost, or visibly in flight:

    published == stored + lost + pending + in_flight

No transport tier, queue size, overflow regime, or chaos fault may
create silence (unaccounted != 0).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.metric import SeriesBatch
from repro.obs.chaos import transport_chaos
from repro.sites.config import TRANSPORT_TIERS
from repro.transport.aggtree import AggregatorTree
from repro.transport.base import make_transport
from repro.transport.bus import MessageBus
from repro.transport.partitioned import PartitionedBus


def batch(metric: str, n: int, t: float) -> SeriesBatch:
    return SeriesBatch(
        metric,
        [f"n{i:03d}" for i in range(n)],
        [t] * n,
        [float(i) for i in range(n)],
    )


def attach(bus):
    """Wire a storing consumer onto ``bus``; returns the bus's ledger."""
    ledger = bus.ledger

    def store(env):
        if isinstance(env.payload, SeriesBatch) and ledger.tracks(env.topic):
            ledger.stored_batch(env.payload, len(env.payload))

    bus.subscribe("metrics.*", callback=store, name="store")
    return ledger


def assert_balanced(bus, ledger):
    report = ledger.balance(pending=0, in_flight=bus.in_flight_points())
    assert report.balanced, report.render()
    return report


#: (source id, points per batch) publish script
script = st.lists(
    st.tuples(st.integers(0, 7), st.integers(1, 40)),
    min_size=0,
    max_size=60,
)


class TestLedgerBalancesEveryTransport:
    @given(script=script)
    @settings(max_examples=100, deadline=None)
    def test_flat_bus(self, script):
        bus = MessageBus()
        ledger = attach(bus)
        for k, (src, n) in enumerate(script):
            bus.publish("metrics.test", batch("m.x", n, float(k)),
                        source=f"s{src}")
            assert_balanced(bus, ledger)    # holds mid-stream, every step
        bus.flush()
        report = assert_balanced(bus, ledger)
        # the flat bus delivers synchronously and never drops batches
        assert report.in_flight == 0 and report.lost == 0
        assert report.stored == sum(n for _, n in script)

    @given(script=script,
           partitions=st.integers(1, 6),
           queue_len=st.integers(1, 12))
    @settings(max_examples=100, deadline=None)
    def test_partitioned_bus_with_overflow(self, script, partitions,
                                           queue_len):
        bus = PartitionedBus(partitions=partitions,
                             partition_queue_len=queue_len)
        ledger = attach(bus)
        for k, (src, n) in enumerate(script):
            bus.publish("metrics.test", batch("m.x", n, float(k)),
                        source=f"s{src}")
            assert_balanced(bus, ledger)    # overflow counted as it evicts
        bus.flush()
        report = assert_balanced(bus, ledger)
        assert report.in_flight == 0       # flushed: queues are empty
        assert report.published == report.stored + report.lost
        if report.lost:
            assert report.lost_by_cause.get("partition-overflow") == \
                report.lost

    @given(script=script,
           leaves=st.integers(1, 6),
           fan_in=st.integers(2, 4),
           queue_len=st.integers(1, 12),
           pump_every=st.integers(1, 8))
    @settings(max_examples=100, deadline=None)
    def test_aggregator_tree_with_windows_and_overflow(
        self, script, leaves, fan_in, queue_len, pump_every
    ):
        bus = AggregatorTree(leaves=leaves, fan_in=fan_in,
                             leaf_queue_len=queue_len)
        ledger = attach(bus)
        for k, (src, n) in enumerate(script):
            bus.publish("metrics.test", batch("m.x", n, float(k)),
                        source=f"s{src}")
            # identity must hold while points sit in leaf windows
            assert_balanced(bus, ledger)
            if (k + 1) % pump_every == 0:
                bus.pump(float(k))
                assert_balanced(bus, ledger)
        bus.flush()
        report = assert_balanced(bus, ledger)
        assert report.in_flight == 0
        assert report.published == report.stored + report.lost
        if report.lost:
            assert report.lost_by_cause.get("leaf-overflow") == report.lost


class TestLedgerBalancesUnderChaos:
    @given(script=script,
           tier=st.sampled_from(TRANSPORT_TIERS),
           drop_every=st.integers(0, 5),
           duplicate_every=st.integers(0, 5))
    @settings(max_examples=100, deadline=None)
    def test_chaos_drops_and_duplicates_stay_accounted(
        self, script, tier, drop_every, duplicate_every
    ):
        bus = make_transport(tier)
        ledger = attach(bus)
        chaos = transport_chaos(bus)
        chaos.drop_every = drop_every
        chaos.duplicate_every = duplicate_every
        for k, (src, n) in enumerate(script):
            bus.publish("metrics.test", batch("m.x", n, float(k)),
                        source=f"s{src}")
            assert_balanced(bus, ledger)
        bus.flush()
        report = assert_balanced(bus, ledger)
        assert report.in_flight == 0
        if drop_every:
            assert report.lost == \
                report.lost_by_cause.get("chaos-drop", 0)
        else:
            assert report.lost == 0
        assert bus.stats().dropped == (
            len(script) // drop_every if drop_every else 0)
        if not duplicate_every:
            assert report.duplicated == 0

    @given(script=script, queue_len=st.integers(1, 10))
    @settings(max_examples=50, deadline=None)
    def test_chaos_over_partitioned_composes(self, script, queue_len):
        bus = PartitionedBus(partitions=2, partition_queue_len=queue_len)
        ledger = attach(bus)
        transport_chaos(bus).drop_every = 3
        for k, (src, n) in enumerate(script):
            bus.publish("metrics.test", batch("m.x", n, float(k)),
                        source=f"s{src}")
            assert_balanced(bus, ledger)
        bus.flush()
        report = assert_balanced(bus, ledger)
        assert report.in_flight == 0
        # two independent loss mechanisms, one exact ledger
        assert report.lost == (
            report.lost_by_cause.get("chaos-drop", 0)
            + report.lost_by_cause.get("partition-overflow", 0)
        )
