"""Normalized query plans: the serving plane's unit of identity.

A :class:`QueryPlan` is the canonical, hashable description of one read
— the result-cache key and what the store is asked.  Two textually
different calls that mean the same read (list vs tuple components, a
component named twice, int vs float bounds) normalize to the same plan,
so they share one cache entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

__all__ = ["QueryPlan"]


def _selection(components: Sequence[str] | None) -> tuple[str, ...] | None:
    """A component selection as the store reads it: a repeat counts
    once, first position wins (``query_components``' dict order, which
    is what ranks ``last`` tie-breaks)."""
    if components is None:
        return None
    return tuple(dict.fromkeys(map(str, components)))


@dataclass(frozen=True, slots=True)
class QueryPlan:
    """One normalized read: what is being asked, not how to answer it.

    ``kind`` is ``"range"`` (raw samples of one series), ``"sweep"``
    (range over many series), ``"latest"`` (each series' newest sample
    in the window, one sweep-shaped batch), ``"downsample"``,
    ``"aggregate"`` (with ``agg`` empty: the partial columns every agg
    reduces from) or ``"first"`` (a selection's earliest sample time).
    Unused fields are ``None``/0 so equal questions hash equal.
    """

    kind: str
    metric: str
    component: str | None
    components: tuple[str, ...] | None
    t0: float
    t1: float
    step: float
    agg: str

    @classmethod
    def range_query(cls, metric: str, component: str,
                    t0: float, t1: float) -> "QueryPlan":
        return cls("range", metric, str(component), None,
                   float(t0), float(t1), 0.0, "")

    @classmethod
    def sweep(cls, metric: str, components: Sequence[str] | None,
              t0: float, t1: float) -> "QueryPlan":
        return cls("sweep", metric, None, _selection(components),
                   float(t0), float(t1), 0.0, "")

    @classmethod
    def latest(cls, metric: str, components: Sequence[str] | None,
               t0: float, t1: float) -> "QueryPlan":
        return cls("latest", metric, None, _selection(components),
                   float(t0), float(t1), 0.0, "")

    @classmethod
    def downsample(cls, metric: str, component: str, t0: float, t1: float,
                   step: float, agg: str) -> "QueryPlan":
        return cls("downsample", metric, str(component), None,
                   float(t0), float(t1), float(step), str(agg))

    @classmethod
    def aggregate(cls, metric: str, components: Sequence[str] | None,
                  t0: float, t1: float, step: float,
                  agg: str) -> "QueryPlan":
        return cls("aggregate", metric, None, _selection(components),
                   float(t0), float(t1), float(step), str(agg))

    @classmethod
    def first_time(cls, metric: str,
                   components: Sequence[str] | None) -> "QueryPlan":
        return cls("first", metric, None, _selection(components),
                   0.0, 0.0, 0.0, "")
