"""Property-based tests: federated answers == the merged-store oracle.

The federated front end answers cross-site queries by folding each
site's series into partial columns and reducing them
(:func:`repro.storage.rollup.reduce_partials`); the invariant is that
the merged answer is *bit-exact* against the oracle of one store
holding every site's series under ``site/component`` names, answered
through the ordinary raw ``aggregate_across`` path.  Values are drawn
integer-valued (so float summation is associativity-independent) mixed
with NaN/±inf specials; equal timestamps across sites exercise the
``last``-agg tiebreak, which must reproduce the raw path's stable
concat order.  A downed site must degrade to an *accounted* partial
answer — the oracle then simply excludes that site's series.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.metric import SeriesBatch
from repro.serve.federated import FederatedFrontend
from repro.serve.frontend import QueryFrontend
from repro.storage.rollup import DEFAULT_LEVELS
from repro.storage.tsdb import TimeSeriesStore

AGGS = ("mean", "sum", "min", "max", "last", "count")

#: sites in alphabetical order, so the federated site-major fan-out and
#: the merged store's sorted ``site/comp`` keys concatenate identically
SITES = ("alfa", "bravo", "charlie")

exact_values = st.one_of(
    st.integers(min_value=-(1 << 30), max_value=1 << 30).map(float),
    st.sampled_from([float("nan"), float("inf"), float("-inf"),
                     0.0, -0.0]),
)

times_ms = st.lists(
    st.integers(min_value=0, max_value=7_200_000),
    min_size=1, max_size=60,
).map(lambda ms: np.asarray(sorted(ms), dtype=np.float64) / 1000.0)

steps = st.sampled_from([10.0, 30.0, 60.0, 120.0, 600.0, 7.0, 77.0])

windows = st.tuples(
    st.floats(min_value=-100.0, max_value=7200.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=7300.0, allow_nan=False),
).map(lambda w: (min(w), max(w) + 1.0))


def _values(data, n):
    return np.asarray(
        data.draw(st.lists(exact_values, min_size=n, max_size=n)),
        dtype=np.float64,
    )


def _build(times, data, n_comps=2):
    """Per-site stores + frontends, and the merged single-store oracle.

    Every site gets the same timestamp grid (cross-site bucket overlap
    and equal-t ``last`` ties are the hard case) with independently
    drawn values; the merged store holds the same series under
    ``site/comp`` names.
    """
    frontends, merged = {}, TimeSeriesStore(chunk_size=16,
                                            pyramid_levels=DEFAULT_LEVELS)
    for site in SITES:
        store = TimeSeriesStore(chunk_size=16,
                                pyramid_levels=DEFAULT_LEVELS)
        for c in range(n_comps):
            v = _values(data, len(times))
            store.append(
                SeriesBatch.for_component("m.x", f"c{c}", times, v))
            merged.append(
                SeriesBatch.for_component("m.x", f"{site}/c{c}",
                                          times, v))
        frontends[site] = QueryFrontend(store)
    return FederatedFrontend(frontends), merged


def assert_batches_equal(got, want, ctx):
    assert np.array_equal(got.times, want.times), ctx
    assert np.array_equal(got.values, want.values, equal_nan=True), ctx


class TestFederatedEqualsMerged:
    @given(times=times_ms, step=steps, window=windows,
           agg=st.sampled_from(AGGS),
           unbounded=st.booleans(), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_aggregate_across_matches_merged_store(
            self, times, step, window, agg, unbounded, data):
        fed, merged = _build(times, data)
        t0, t1 = (-np.inf, np.inf) if unbounded else window
        got = fed.aggregate_across("m.x", None, t0, t1, step, agg)
        want = merged.aggregate_across("m.x", None, t0, t1, step, agg)
        assert_batches_equal(got, want, (step, agg, t0, t1))
        assert fed.stats().partial_answers == 0

    @given(times=times_ms, step=steps, window=windows,
           agg=st.sampled_from(AGGS), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_downed_site_degrades_to_accounted_partial(
            self, times, step, window, agg, data):
        fed, _ = _build(times, data)
        # oracle for a degraded federation: the survivors' series only
        survivors = TimeSeriesStore(chunk_size=16,
                                    pyramid_levels=DEFAULT_LEVELS)
        for site in SITES:
            if site == "bravo":
                continue
            store = fed.frontends[site].store
            for key in store.keys("m.x"):
                b = store.query(key.metric, key.component)
                survivors.append(SeriesBatch.for_component(
                    "m.x", f"{site}/{key.component}", b.times, b.values))
        fed.mark_down("bravo")
        t0, t1 = window
        got = fed.aggregate_across("m.x", None, t0, t1, step, agg)
        want = survivors.aggregate_across("m.x", None, t0, t1, step, agg)
        assert_batches_equal(got, want, (step, agg, window))
        s = fed.stats()
        assert s.partial_answers == 1 and s.down == ("bravo",)
        # recovery: marked back up, the answer is complete again
        fed.mark_up("bravo")
        full = fed.aggregate_across("m.x", None, t0, t1, step, agg)
        assert fed.stats().partial_answers == 1
        assert len(full) >= len(got) or not len(want)

    @given(times=times_ms, step=steps, window=windows,
           agg=st.sampled_from(AGGS), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_downsample_routes_to_the_owning_site(
            self, times, step, window, agg, data):
        fed, _ = _build(times, data)
        t0, t1 = window
        got = fed.downsample("m.x", "bravo/c1", t0, t1, step, agg)
        want = fed.frontends["bravo"].store.downsample(
            "m.x", "c1", t0, t1, step, agg, prune=False)
        assert_batches_equal(got, want, (step, agg, window))

    @given(times=times_ms, data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_qualified_components_enumerate_every_site(self, times, data):
        fed, merged = _build(times, data)
        assert fed.components("m.x") == \
            [str(k.component) for k in merged.keys("m.x")]

    def test_unknown_agg_matches_raw_error(self):
        fed, _ = _build(np.array([1.0]), _FixedData())
        with pytest.raises(ValueError, match="unknown agg 'p99'"):
            fed.aggregate_across("m.x", None, agg="p99")
        with pytest.raises(ValueError, match="step must be positive"):
            fed.aggregate_across("m.x", None, step=0.0)


    def test_repeated_component_counts_once(self):
        """A component named twice is one series, as in the merged
        store's ``query_components`` dict (first position wins)."""
        t, ones = np.arange(60) * 10.0, np.ones(60)
        frontends = {}
        for site, comp in (("x", "a"), ("y", "b")):
            store = TimeSeriesStore(chunk_size=16,
                                    pyramid_levels=DEFAULT_LEVELS)
            store.append(SeriesBatch.for_component("m", comp, t, ones))
            frontends[site] = QueryFrontend(store)
        fed = FederatedFrontend(frontends)
        sel = ["x/a", "x/a", "y/b"]
        assert list(fed.query_components("m", sel)) == ["x/a", "y/b"]
        got = fed.aggregate_across("m", sel, 0.0, 600.0, 60.0, "count")
        assert got.values.tolist() == [12.0] * 10


class _FixedData:
    """Stand-in for hypothesis ``data`` in the non-property error test."""

    def draw(self, strategy):
        return [1.0]
