"""Unit tests for the component -> row mapper and its index expressions."""

import numpy as np

from repro.core.metric import SeriesBatch
from repro.core.soa import ComponentTable, name_column, row_indices
from repro.storage import ShardedTimeSeriesStore, tsdb


def _table(n=8):
    tbl = ComponentTable(x=0.0)
    tbl.rows(name_column([f"n{i}" for i in range(n)]))
    return tbl


def _col(*names):
    return np.array(names, dtype=object)


class TestRowsIndexExpression:
    def test_a_first_sweep_of_new_components_is_a_slice(self):
        tbl = ComponentTable()
        rows, unique = tbl.rows(_col("a", "b", "c"))
        assert rows == slice(0, 3) and unique
        assert tbl.size == 3

    def test_a_contiguous_ascending_run_is_a_slice_wherever_it_starts(self):
        tbl = _table()
        assert tbl.rows(_col("n0", "n1", "n2", "n3"))[0] == slice(0, 4)
        assert tbl.rows(_col("n3", "n4", "n5"))[0] == slice(3, 6)
        assert tbl.rows(_col("n6"))[0] == slice(6, 7)

    def test_a_late_joiner_extends_the_run(self):
        tbl = _table(3)
        rows, unique = tbl.rows(_col("n1", "n2", "new"))
        assert rows == slice(1, 4) and unique

    def test_reversed_strided_repeated_and_gapped_are_index_arrays(self):
        tbl = _table()
        for names, unique in [
            (("n3", "n2", "n1"), True),                 # reversed
            (("n0", "n2", "n4"), True),                 # strided
            (("n1", "n1", "n2"), False),                # repeated
            (("n0", "n1", "n1", "n3"), False),          # repeated, span n - 1
            (("n0", "n1", "n3", "n4"), True),           # a single gap
            (("n1", "n0", "n2", "n3"), True),           # permuted run
        ]:
            rows, uniq = tbl.rows(_col(*names))
            assert isinstance(rows, np.ndarray), names
            assert rows.tolist() == [tbl.row(c) for c in names]
            assert uniq is unique

    def test_an_empty_batch_is_an_empty_index_array(self):
        rows, unique = _table().rows(_col())
        assert isinstance(rows, np.ndarray) and len(rows) == 0 and unique

    def test_the_memo_returns_the_same_object_for_the_same_array(self):
        tbl = _table()
        run, gapped = _col("n2", "n3"), _col("n2", "n5")
        for comps in (run, gapped):
            first = tbl.rows(comps)[0]
            assert tbl.rows(comps)[0] is first
        # an equal array is mapped afresh, to an equal expression
        assert tbl.rows(_col("n2", "n3"))[0] == slice(2, 4)

    def test_row_indices_is_the_array_form(self):
        assert row_indices(slice(2, 5)).tolist() == [2, 3, 4]
        idx = np.array([4, 1])
        assert row_indices(idx) is idx

    def test_a_slice_and_its_indices_address_the_same_state(self):
        tbl = _table()
        tbl.x[:8] = np.arange(8.0)
        rows = tbl.rows(_col("n2", "n3", "n4"))[0]
        assert tbl.x[rows].tolist() == tbl.x[row_indices(rows)].tolist()
        assert np.shares_memory(tbl.x[rows], tbl.x)     # a view, and a copy
        assert not np.shares_memory(tbl.x[row_indices(rows)], tbl.x)


class TestShardSubColumns:
    def test_every_shard_gets_a_slice_from_its_first_sweep_on(
            self, monkeypatch):
        seen = []

        class Spy(ComponentTable):
            def rows(self, components):
                out = super().rows(components)
                seen.append(out[0])
                return out

        monkeypatch.setattr(tsdb, "ComponentTable", Spy)
        store = ShardedTimeSeriesStore(shards=4, chunk_size=8)
        names = name_column([f"n{i:03d}" for i in range(64)])
        for tick in range(3):
            store.append(SeriesBatch.sweep(
                "m", 60.0 * tick, names, np.arange(64.0)))
        assert len(seen) == 3 * 4
        assert all(isinstance(r, slice) for r in seen)
        assert sum(r.stop - r.start for r in seen[:4]) == 64
