"""Struct-of-arrays state keyed by component: the one component -> row mapper.

Whole synchronized sweeps (27,648-component batches at Trinity scale)
are consumed as arrays, so per-series state must be addressable by row,
not as one Python object per series.  :class:`ComponentTable` mirrors the
:class:`~repro.cluster.node.NodeStore` design: a ``component -> row``
index plus optional parallel float64 state columns, grown
amortized-doubling as new components appear.  The streaming detectors
index whole sweeps against the columns — with a slice when a sweep's
rows are one run, which a fleet sweep's always are — and the time-series
store's head blocks (:mod:`repro.storage.tsdb`) use the same table,
without columns, to turn a sweep into one column write.

The only irreducibly per-component work is the string -> row mapping;
the table memoizes it by the *identity* of the components array, so
collectors that republish the same component array (the fleet-wide name
columns of ``NodeStore``, ``GpuStore`` and ``Network`` are built once)
pay for the mapping once.  Component arrays must therefore be
treated as immutable once published — the same rule
:class:`~repro.core.metric.SeriesBatch` already implies by exposing
views, not copies.
"""

from __future__ import annotations

import weakref

import numpy as np

__all__ = ["ComponentTable", "memo_by_identity", "name_column", "row_indices"]


def memo_by_identity(memo: dict, array: np.ndarray, value) -> None:
    """File ``value`` under ``id(array)`` for as long as ``array`` lives:
    a finalizer evicts the entry when the array dies, before its ``id``
    can be reused.  An object that cannot be weakly referenced is not
    filed — never memo on a raw ``id()``."""
    try:
        weakref.finalize(array, memo.pop, id(array), None)
    except TypeError:
        return
    memo[id(array)] = value


def name_column(names) -> np.ndarray:
    """A fleet's component names as one read-only object column.

    Built once by whoever owns the fleet and handed to every sweep, so
    ``SeriesBatch`` adopts it without a copy and every identity memo
    downstream (:meth:`ComponentTable.rows`, the sharded store's
    routing) hits from the second tick on.
    """
    col = np.array(names, dtype=object)
    col.flags.writeable = False
    return col


def row_indices(rows: slice | np.ndarray) -> np.ndarray:
    """:meth:`ComponentTable.rows`' index expression as an index array."""
    return np.arange(rows.start, rows.stop) if isinstance(rows, slice) else rows


class ComponentTable:
    """Component -> row index plus parallel float64 state columns.

    ``columns`` maps column name -> fill value for newly added rows
    (e.g. ``n=0.0, mean=0.0, minimum=math.inf``).  Columns are exposed
    as attributes; rows beyond :attr:`size` are uninitialized capacity.
    Components are keyed by their ``str`` form, so a row and a
    :class:`~repro.core.metric.MetricKey` always name the same series.
    """

    def __init__(self, **columns: float) -> None:
        self._fill = {k: float(v) for k, v in columns.items()}
        self.index: dict[str, int] = {}
        self.size = 0
        self._cap = 0
        for name, fill in self._fill.items():
            setattr(self, name, np.empty(0, dtype=np.float64))
        # identity-memoized mapping of the most recent components array
        self._memo_comps: np.ndarray | None = None
        self._memo_rows: slice | np.ndarray | None = None
        self._memo_unique = True

    def __len__(self) -> int:
        return self.size

    @property
    def columns(self) -> tuple[str, ...]:
        return tuple(self._fill)

    def _ensure(self, need: int) -> None:
        """Grow every column to hold ``need`` rows (amortized doubling)."""
        if need <= self._cap:
            return
        cap = max(16, self._cap)
        while cap < need:
            cap *= 2
        for name, fill in self._fill.items():
            old = getattr(self, name)
            new = np.full(cap, fill, dtype=np.float64)
            new[: len(old)] = old
            setattr(self, name, new)
        self._cap = cap

    def rows(self, components: np.ndarray
             ) -> tuple[slice | np.ndarray, bool]:
        """Row index per component, registering new components.

        Returns ``(rows, unique)`` where ``unique`` is True when no
        component repeats within ``components`` — the signal consumers
        use to take the sort-free indexing fast path.  ``rows`` is an
        index expression: a ``slice`` when the components are a
        contiguous ascending run of distinct rows (every fleet sweep,
        and every shard's sub-column of one), an index array otherwise —
        so ``column[rows]`` is a view or a copy, and a consumer must be
        correct for both (read what it needs of a column before storing
        to it); :func:`row_indices` is the array form where rows must
        pair with something per row.  The result is memoized by array
        identity, so repeated sweeps over the same component array skip
        the per-component mapping, and the run test, entirely.
        """
        if components is self._memo_comps:
            return self._memo_rows, self._memo_unique
        index = self.index
        before = self.size
        at = []
        for c in components.tolist():
            r = index.get(c)
            at.append(self.add(str(c)) if r is None else r)
        n = len(at)
        # all-new components are unique by construction; otherwise check
        unique = self.size - before == n or len(set(at)) == n
        # plain list work: a small batch with a fresh array pays for this
        # on every call, and must not pay more for a slice than an array
        rows = (slice(at[0], at[0] + n)
                if n and at == list(range(at[0], at[0] + n))
                else np.array(at, dtype=np.intp))
        self._memo_comps = components
        self._memo_rows = rows
        self._memo_unique = unique
        return rows, unique

    def add(self, component: str) -> int:
        """Row of one component, registering it when new."""
        r = self.index.get(component)
        if r is None:
            r = self.index[component] = self.size
            self.size += 1
            self._ensure(self.size)
        return r

    def row(self, component: str) -> int | None:
        """Row of one component, or None when it was never observed."""
        return self.index.get(component)
