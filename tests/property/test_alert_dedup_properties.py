"""Property-based tests: alert dedup of a detection batch == per-row raises.

The streaming and analysis-hook stages hand the action engine their hits
as ``(rule prefix, DetectionBatch)`` pairs, deduplicated with one mask
over the alert manager's last-raised columns.  The reference is the
scalar path: one ``ActionRequest`` per ``detections()`` row, in batch
order, through ``raise_alert``.  Draws cover every hit form under both
stage prefixes, repeated components within a batch, NaN and +/-inf
times, a gap of exactly ``renotify_s``, and SEC-style scalar raises of
the same rules interleaved with the batches.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.anomaly import DetectionBatch
from repro.core.events import Severity
from repro.core.soa import name_column
from repro.response.actions import ActionEngine, AlertManager
from repro.response.sec import ActionRequest

RENOTIFY = 10.0
POOL = [f"n{i}" for i in range(5)]
#: published once, as a fleet's sweeps are: the row lookup's memo hits
FLEET = name_column(POOL)

# multiples of the renotify window: gaps of exactly renotify_s are common
times = st.sampled_from([0.0, 5.0, 10.0, 20.0, 30.0, 35.0,
                         math.nan, math.inf, -math.inf])
readings = st.floats(allow_nan=True, allow_infinity=True, width=64)


@st.composite
def detection_batches(draw):
    if draw(st.booleans()):
        components = FLEET
    else:       # a fresh column, components repeating within it
        components = np.array(
            draw(st.lists(st.sampled_from(POOL), min_size=1, max_size=8)),
            dtype=object)
    n = len(components)
    at = np.array(draw(st.permutations(range(n)))[:draw(st.integers(1, n))],
                  dtype=np.intp)
    k = len(at)
    col = st.lists(readings, min_size=k, max_size=k).map(np.array)
    return draw(st.sampled_from(["stream", "stat"])), DetectionBatch(
        draw(st.sampled_from(["m", "k"])),
        draw(st.sampled_from(["outlier", "rate", "threshold", "shift",
                              "changepoint"])),
        components, at,
        np.array(draw(st.lists(times, min_size=k, max_size=k))),
        draw(col), draw(col), limit=draw(readings))


scalar_raises = st.builds(
    lambda t, comp, rule: ActionRequest(t, rule, "alert", comp,
                                        Severity.ERROR, "sec"),
    times, st.sampled_from(POOL),
    st.sampled_from(["stream.m.outlier", "stream.k.threshold",
                     "stat.m.shift", "stat.k.threshold", "sec_rule"]))

scripts = st.lists(st.one_of(detection_batches(), scalar_raises),
                   min_size=1, max_size=12)


def _same_time(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


class TestBatchDedupEqualsScalarReference:
    @given(script=scripts)
    @settings(max_examples=300, deadline=None)
    def test_same_alerts_and_counts(self, script):
        batched = ActionEngine(None, AlertManager(renotify_s=RENOTIFY))
        scalar = ActionEngine(None, AlertManager(renotify_s=RENOTIFY))
        for item in script:
            batched.execute([item])
            if isinstance(item, tuple):
                prefix, batch = item
                scalar.execute([
                    ActionRequest(
                        d.time, f"{prefix}.{d.metric}.{d.kind}", "alert",
                        d.component, Severity.WARNING,
                        f"{d.metric} {d.kind} on {d.component}: {d.detail}")
                    for d in batch.detections()])
            else:
                scalar.execute([item])
        got, want = batched.alerts, scalar.alerts
        assert got.suppressed == want.suppressed
        assert batched.executed == scalar.executed
        assert len(got.alerts) == len(want.alerts) == len(batched.audit)
        for a, b in zip(got.alerts, want.alerts):
            assert (a.severity, a.component, a.rule, a.message) == (
                b.severity, b.component, b.rule, b.message)
            assert _same_time(a.time, b.time)
        assert [(r.component, r.rule) for r in batched.audit] == [
            (r.component, r.rule) for r in scalar.audit]
