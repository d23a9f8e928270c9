"""Property-based tests: a sweep stays columnar from the node to the detector.

Two equivalences.  A :class:`~repro.core.clock.ClockFleet` answers
``errors_at`` exactly as its clocks answer ``error_at`` one by one,
whatever was set through the views.  And
:meth:`~repro.core.soa.ComponentTable.rows` may hand its consumers a
``slice`` or an index array for the same rows: a table forced to return
index arrays (the shape every sweep had before) and the real one must
leave the streaming detectors and the store in byte-identical state.
"""

import dataclasses
import struct
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import streaming
from repro.analysis.streaming import StreamingRateWatch, StreamingStats
from repro.core.clock import ClockFleet
from repro.core.metric import SeriesBatch
from repro.core.soa import ComponentTable, name_column, row_indices
from repro.storage import TimeSeriesStore, tsdb

# -- the clock fleet against its clocks ------------------------------------------

rates = st.floats(min_value=-500.0, max_value=500.0)
offsets = st.floats(min_value=-10.0, max_value=10.0)
nows = st.floats(min_value=0.0, max_value=3e7)     # a year of seconds


def _bits(clocks, now):
    return np.array([c.error_at(now) for c in clocks]).tobytes()


class TestClockFleetAgainstItsClocks:
    @given(drawn=st.lists(st.tuples(rates, offsets), min_size=1, max_size=16),
           times=st.lists(nows, min_size=1, max_size=4), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_errors_at_is_bit_identical_to_the_scalar_clocks(
            self, drawn, times, data):
        fleet = ClockFleet(*zip(*drawn))
        clocks = fleet.clocks()
        rows = st.integers(min_value=0, max_value=len(clocks) - 1)
        for now in times:
            assert fleet.errors_at(now).tobytes() == _bits(clocks, now)
            for i in data.draw(st.lists(rows, max_size=4)):
                clocks[i].sync(now)             # NTP reaches a subset
            assert fleet.errors_at(now).tobytes() == _bits(clocks, now)
            clocks[data.draw(rows)].offset = data.draw(offsets)
            clocks[data.draw(rows)].rate_ppm = data.draw(rates)
            later = now + data.draw(st.floats(min_value=0.0, max_value=1e5))
            assert fleet.errors_at(later).tobytes() == _bits(clocks, later)


# -- slice rows against index-array rows -----------------------------------------

class _IndexArrayTable(ComponentTable):
    """The table as it was: ``rows`` is always an index array."""

    def rows(self, components):
        rows, unique = super().rows(components)
        return row_indices(rows), unique


FLEET = name_column([f"n{i:02d}" for i in range(10)])
LATE = name_column([f"n{i:02d}" for i in range(12)])    # two late joiners
_special = st.sampled_from([float("nan"), float("inf"), float("-inf")])
values = st.one_of(
    st.floats(min_value=-1e6, max_value=1e6), st.integers(0, 50).map(float),
    _special)


@st.composite
def sweeps(draw):
    """A batch sequence on one metric: ``(components, times, values)``."""
    out, t = [], 0.0
    for _ in range(draw(st.integers(min_value=1, max_value=14))):
        t += draw(st.sampled_from([0.0, 1.0, 60.0]))
        kind = draw(st.sampled_from(
            ["sweep", "sweep", "sweep", "permuted", "subset", "strided",
             "join", "repeat", "skewed"]))
        comps, times = FLEET, None
        if kind == "permuted":
            comps = FLEET[draw(st.permutations(range(len(FLEET))))]
        elif kind == "subset":      # a strict sub-run: ragged from here on
            lo = draw(st.integers(min_value=0, max_value=6))
            comps = FLEET[lo:lo + draw(st.integers(min_value=1, max_value=4))]
        elif kind == "strided":
            comps = FLEET[::draw(st.sampled_from([2, 3, -1]))]
        elif kind == "join":
            comps = LATE
        elif kind == "repeat":
            comps = FLEET[draw(st.lists(st.integers(0, 9), min_size=2,
                                        max_size=12))]
        elif kind == "skewed":      # a sweep whose rows disagree on the time
            times = t + np.array(draw(st.lists(
                st.sampled_from([0.0, 0.5]), min_size=len(FLEET),
                max_size=len(FLEET))))
        if times is None:
            times = np.full(len(comps), t)
        vals = draw(st.lists(values, min_size=len(comps),
                             max_size=len(comps)))
        out.append((comps, times, np.array(vals, dtype=np.float64)))
    return out


def _freeze(x):
    """Nested state as hashable, bit-exact, NaN-comparable values."""
    if isinstance(x, np.ndarray):
        return (str(x.dtype), x.shape, x.tobytes())
    if isinstance(x, float):
        return struct.pack("<d", x)
    if isinstance(x, dict):
        return tuple((k, _freeze(v)) for k, v in x.items())
    if isinstance(x, (list, tuple)):
        return tuple(_freeze(v) for v in x)
    if dataclasses.is_dataclass(x):
        return _freeze(dataclasses.astuple(x))
    return x


def _table_state(tbl):
    return (tuple(tbl.index.items()), tbl.size,
            {c: getattr(tbl, c)[:tbl.size].tobytes() for c in tbl.columns})


def _run(batches, chunk_size, table):
    """Everything observable after feeding ``batches`` to the three
    consumers of ``ComponentTable.rows``, built on ``table``."""
    with mock.patch.object(streaming, "ComponentTable", table), \
            mock.patch.object(tsdb, "ComponentTable", table):
        stats = StreamingStats()
        watch = StreamingRateWatch("m", max_rate_per_s=0.25)
        store = TimeSeriesStore(chunk_size=chunk_size,
                                pyramid_levels=(10.0, 60.0))
        fulls = []
        write = tsdb._HeadBlock.write

        def spy(block, rows, t, v):
            full = write(block, rows, t, v)
            if full is not None:
                fulls.append(full.tolist())
            return full

        with mock.patch.object(tsdb._HeadBlock, "write", spy):
            for comps, times, vals in batches:
                batch = SeriesBatch("m", comps, times, vals)
                stats.observe(batch)
                watch.observe(batch)
                store.append(batch)
    block = store._blocks["m"]
    exported = block.export_series(store.pyramid_levels)
    heads, sealed = {}, {}
    for key in store.keys():
        s, _, _, row = store._series_view(key.metric, key.component)
        c = block.counts[row]
        t = block.times if block.row_times is None else block.row_times[row]
        heads[key] = _freeze((t[:c], block.values[row, :c]))
        sealed[key] = None if s is None else (
            _freeze(exported[key.metric, key.component]),
            [c.blob for c in s.chunks])
    return {
        "stats": {m: _table_state(t) for m, t in stats._tables.items()},
        "watch": _table_state(watch._table),
        "detections": _freeze([d for found in watch.drain()
                               for d in found.detections()]),
        "heads": heads,
        "sealed": sealed,
        "block": (_table_state(block.table), block.n_head, block.n_times,
                  block.row_times is None,
                  block.counts[:block.table.size].tobytes()),
        "full_rows": fulls,
        "store": dataclasses.astuple(store.stats()),
    }


class TestSliceRowsAgainstIndexArrayRows:
    @given(batches=sweeps(), chunk_size=st.integers(min_value=2, max_value=6))
    @settings(max_examples=150, deadline=None)
    def test_detectors_and_store_cannot_tell_a_slice_from_an_index_array(
            self, batches, chunk_size):
        got = _run(batches, chunk_size, ComponentTable)
        want = _run(batches, chunk_size, _IndexArrayTable)
        for part in want:
            assert got[part] == want[part], part

    def test_the_covered_shapes_really_occur(self):
        """The drawn sequences are only worth their name if the real
        table answers them with slices *and* index arrays, a sweep fills
        ``chunk_size`` and a sweep lands on a ragged block."""
        kinds, ragged_writes = set(), 0
        rows = ComponentTable.rows
        write = tsdb._HeadBlock.write

        def spy_rows(tbl, comps):
            out = rows(tbl, comps)
            kinds.add(type(out[0]))
            return out

        def spy_write(block, rows_, t, v):
            nonlocal ragged_writes
            ragged_writes += block.row_times is not None
            return write(block, rows_, t, v)

        rng = np.random.default_rng(0)
        batches = [(FLEET, np.full(10, 60.0 * i), rng.normal(size=10))
                   for i in range(4)]
        batches += [(FLEET[2:5], np.full(3, 300.0), rng.normal(size=3)),
                    (FLEET[::-1], np.full(10, 360.0), rng.normal(size=10)),
                    (FLEET, np.full(10, 420.0), rng.normal(size=10))]
        with mock.patch.object(ComponentTable, "rows", spy_rows), \
                mock.patch.object(tsdb._HeadBlock, "write", spy_write):
            out = _run(batches, 3, ComponentTable)
        assert kinds == {slice, np.ndarray}
        assert ragged_writes > 0
        # the third sweep filled every row; the reversed one the three
        # rows the sub-run had put ahead, in batch order
        assert list(range(10)) in out["full_rows"]
        assert [4, 3, 2] in out["full_rows"]
