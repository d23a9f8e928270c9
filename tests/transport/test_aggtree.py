"""Unit tests for the LDMS-style aggregator-tree transport.

The load-bearing property (the acceptance oracle): coalescing merges
*messages*, never samples — every (series, t, value) point published
into the tree comes out of the root exactly once, compared against a
flat bus carrying the identical workload.
"""

import numpy as np
import pytest

from repro.core.metric import SeriesBatch
from repro.transport.aggtree import AggregatorTree
from repro.transport.bus import MessageBus


def point_set(envelopes):
    """Multiset of (topic, metric, component, t, value) delivered."""
    out = []
    for env in envelopes:
        b = env.payload
        for i in range(len(b)):
            out.append((env.topic, b.metric, str(b.components[i]),
                        float(b.times[i]), float(b.values[i])))
    return sorted(out)


def random_workload(rng, n_sources=40, n_publishes=300, n_metrics=5):
    """(topic, batch, source) triples: small per-source batches."""
    out = []
    for k in range(n_publishes):
        m = f"m{rng.integers(n_metrics)}"
        src = f"src{rng.integers(n_sources)}"
        n = int(rng.integers(1, 4))
        t0 = float(k)
        batch = SeriesBatch(
            f"metric.{m}",
            [f"{src}-c{j}" for j in range(n)],
            [t0 + 0.1 * j for j in range(n)],
            rng.normal(size=n),
        )
        out.append((f"metrics.{m}", batch, src))
    return out


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ValueError):
            AggregatorTree(leaves=0)
        with pytest.raises(ValueError):
            AggregatorTree(fan_in=1)
        with pytest.raises(ValueError):
            AggregatorTree(window_s=-1.0)

    def test_levels_follow_fan_in(self):
        assert AggregatorTree(leaves=1).levels == 1
        assert AggregatorTree(leaves=4, fan_in=4).levels == 2
        assert AggregatorTree(leaves=16, fan_in=4).levels == 3
        assert AggregatorTree(leaves=27, fan_in=3).levels == 4

    def test_leaf_assignment_is_stable_by_source(self):
        tree = AggregatorTree(leaves=8)
        assert (tree.leaf_of("metrics.a", "node-3")
                == tree.leaf_of("metrics.b", "node-3"))
        other = AggregatorTree(leaves=8)
        assert tree.leaf_of("t", "node-3") == other.leaf_of("t", "node-3")


class TestCoalescing:
    def test_batches_merge_per_topic(self):
        tree = AggregatorTree(leaves=4, fan_in=2)
        sub = tree.subscribe("metrics.power")
        for i in range(10):
            tree.publish(
                "metrics.power",
                SeriesBatch.sweep("node.power_w", float(i),
                                  [f"n{i}"], [float(i)]),
                source=f"node-{i}",
            )
        tree.pump(now=100.0)
        got = sub.drain()
        assert len(got) == 1                    # one merged message
        assert len(got[0].payload) == 10        # all ten points inside
        s = tree.stats()
        assert s.batches_in == 10
        assert s.upstream_messages == 1
        assert s.coalesce_ratio == 10.0

    def test_events_bypass_coalescing(self):
        tree = AggregatorTree(leaves=4)
        sub = tree.subscribe("events.*")
        n = tree.publish("events.hwerr", {"node": "n3"}, source="erd")
        assert n == 1                           # delivered synchronously
        assert [e.payload for e in sub.drain()] == [{"node": "n3"}]

    def test_window_holds_young_batches(self):
        tree = AggregatorTree(leaves=2, window_s=30.0)
        sub = tree.subscribe("metrics.*")
        tree.publish("metrics.a",
                     SeriesBatch.sweep("a", 100.0, ["c"], [1.0]), "s1")
        assert tree.pump(now=110.0) == 0        # 10s old < 30s window
        assert sub.drain() == []
        assert tree.pump(now=130.0) == 1        # 30s old: due
        assert len(sub.drain()) == 1

    def test_flush_forces_windowed_batches_out(self):
        tree = AggregatorTree(leaves=2, window_s=1e9)
        sub = tree.subscribe("metrics.*")
        tree.publish("metrics.a",
                     SeriesBatch.sweep("a", 0.0, ["c"], [1.0]), "s1")
        assert tree.pump(now=100.0) == 0
        assert tree.flush() == 1
        assert len(sub.drain()) == 1


class TestPointPreservation:
    """The satellite oracle: tree delivery == flat delivery, point-wise."""

    def _deliver(self, transport, workload, pump_times=()):
        got = []
        transport.subscribe("metrics.*", callback=got.append)
        for i, (topic, batch, src) in enumerate(workload):
            transport.publish(topic, batch, source=src)
            if pump_times and i % pump_times == 0:
                transport.pump(now=float(i))
        transport.flush()
        return got

    def test_no_loss_no_duplication_vs_flat_bus(self):
        rng = np.random.default_rng(0)
        workload = random_workload(rng)
        flat = self._deliver(MessageBus(), workload)
        tree = self._deliver(AggregatorTree(leaves=8, fan_in=3), workload)
        assert point_set(tree) == point_set(flat)

    def test_preserved_under_incremental_pumping_with_window(self):
        rng = np.random.default_rng(1)
        workload = random_workload(rng)
        flat = self._deliver(MessageBus(), workload)
        tree_t = AggregatorTree(leaves=4, fan_in=2, window_s=20.0)
        tree = self._deliver(tree_t, workload, pump_times=7)
        assert point_set(tree) == point_set(flat)
        s = tree_t.stats()
        assert s.points_forwarded == s.points_in
        assert s.dropped_batches == 0

    def test_drop_oldest_pressure_loses_audited_points_only(self):
        """Under leaf overflow the tree loses exactly the points its
        drop counters admit to — and never duplicates a survivor."""
        rng = np.random.default_rng(2)
        workload = random_workload(rng, n_publishes=600)
        tree_t = AggregatorTree(leaves=2, fan_in=2, leaf_queue_len=16)
        tree = self._deliver(tree_t, workload)
        flat = self._deliver(MessageBus(), workload)
        s = tree_t.stats()
        assert s.dropped_batches > 0             # pressure actually hit
        delivered = point_set(tree)
        published = point_set(flat)
        assert len(delivered) == s.points_in - s.dropped_points
        assert s.points_forwarded == len(delivered)
        # no duplication, no invention: delivered is a sub-multiset
        remaining = list(published)
        for p in delivered:
            remaining.remove(p)                  # raises if duplicated

    def test_single_leaf_single_level_degenerate_tree(self):
        rng = np.random.default_rng(3)
        workload = random_workload(rng, n_publishes=50)
        flat = self._deliver(MessageBus(), workload)
        tree = self._deliver(AggregatorTree(leaves=1, fan_in=2), workload)
        assert point_set(tree) == point_set(flat)


class TestSelfMonSurfaces:
    def test_leaf_depths_and_queue_depths(self):
        tree = AggregatorTree(leaves=4)
        tree.subscribe("metrics.*", name="ingest")
        tree.publish("metrics.a",
                     SeriesBatch.sweep("a", 0.0, ["c"], [1.0]), "s1")
        depths = tree.queue_depths()
        assert sum(v for k, v in depths.items()
                   if k.startswith("leaf-")) == 1
        assert "ingest" in depths
        tree.flush()
        assert sum(tree.lane_depths().values()) == 0
