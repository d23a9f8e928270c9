"""Clock-drift ablation: event-association accuracy vs timestamp discipline.

Section III-B: "Associating numerical or log events over components and
time is particularly tricky when a single global timestamp is
unavailable as local clock drift can result in erroneous associations."
We generate a causally ordered event trail across many nodes, stamp it
(a) with the global timebase and (b) with per-node drifting clocks of
increasing badness, and measure pairwise-order accuracy and incident-
clustering quality.
"""

import numpy as np

from repro.analysis.correlate import cluster_events, order_accuracy
from repro.core.clock import DriftModel
from repro.core.events import Event, EventKind, Severity

N_NODES = 32
N_EVENTS = 300
SPACING_S = 0.05   # cascade events land 50 ms apart across components


def make_trail(seed=0):
    """A causal cascade: events hop node to node every SPACING_S."""
    rng = np.random.default_rng(seed)
    events = []
    t = 1000.0
    for i in range(N_EVENTS):
        node = int(rng.integers(0, N_NODES))
        events.append(Event(
            t, f"n{node}", EventKind.CONSOLE, Severity.WARNING,
            f"cascade step {i}",
        ))
        t += SPACING_S
    return events


def stamp_with_drift(events, offset_s, seed=0):
    model = DriftModel(rate_sigma_ppm=20.0, initial_offset_s=offset_s,
                       seed=seed)
    clocks = {f"n{i}": model.make_clock() for i in range(N_NODES)}
    return [e.with_time(clocks[e.component].local_time(e.time))
            for e in events]


class TestDriftImpact:
    def test_accuracy_degrades_with_offset(self):
        truth = make_trail()
        print("\npairwise order accuracy vs clock discipline "
              f"(events {SPACING_S * 1000:.0f} ms apart):")
        rows = []
        for offset in (0.0, 0.01, 0.05, 0.2, 1.0):
            # offset 0.0 = the disciplined global timebase (no drift at
            # all); nonzero offsets also carry +-20 ppm rate error
            stamped = (list(truth) if offset == 0.0
                       else stamp_with_drift(truth, offset))
            # score only nearby pairs (<= 0.5 s apart): the causal
            # neighbours cross-component association actually stitches
            acc = order_accuracy(truth, stamped, max_separation_s=0.5)
            rows.append((offset, acc))
            label = ("global timestamp" if offset == 0.0
                     else f"+-{offset * 1000:.0f} ms offsets")
            print(f"  {label:>20}: {100 * acc:.1f}% of pairs ordered "
                  f"correctly")
        assert rows[0][1] > 0.999          # global timebase: perfect
        accs = [a for _, a in rows]
        assert all(b <= a + 1e-9 for a, b in zip(accs, accs[1:]))
        assert rows[-1][1] < 0.9           # 1 s offsets: badly corrupted

    def test_incident_clustering_fragments_under_drift(self):
        # three true incidents separated by quiet gaps
        truth = []
        t = 0.0
        for burst in range(3):
            t = burst * 3600.0
            for i in range(20):
                truth.append(Event(
                    t + i * 0.2, f"n{i % N_NODES}", EventKind.CONSOLE,
                    Severity.WARNING, f"incident {burst} step {i}",
                ))
        clean = cluster_events(truth, gap_s=30.0)
        assert len(clean) == 3
        stamped = stamp_with_drift(truth, offset_s=120.0, seed=4)
        drifted = cluster_events(stamped, gap_s=30.0)
        print(f"\nincidents found: global timestamps={len(clean)}, "
              f"2-minute clock offsets={len(drifted)} (truth: 3)")
        assert len(drifted) != 3, \
            "gross drift must corrupt incident grouping"

    def test_sync_discipline_restores_accuracy(self):
        truth = make_trail()
        model = DriftModel(rate_sigma_ppm=20.0, initial_offset_s=0.5,
                           seed=1)
        clocks = {f"n{i}": model.make_clock() for i in range(N_NODES)}
        for c in clocks.values():
            c.sync(999.0)   # NTP-style resync just before the trail
        stamped = [e.with_time(clocks[e.component].local_time(e.time))
                   for e in truth]
        acc = order_accuracy(truth, stamped, max_separation_s=0.5)
        print(f"\nafter resync: {100 * acc:.1f}% pairs correct")
        assert acc > 0.99

    def test_bench_order_accuracy(self):
        truth = make_trail()
        stamped = stamp_with_drift(truth, 0.05)
        acc = order_accuracy(truth, stamped)
        assert 0.0 <= acc <= 1.0
