"""Lightweight trace spans over the monitoring pipeline's own execution.

Balis et al. ("Towards observability of scientific applications") argue
that the data path itself — not just the data — needs span-based
tracing.  A :class:`Tracer` provides exactly that for this stack:

* ``with tracer.span("collect", collector=name):`` times a region,
* spans nest (a stack tracks the active span; children record their
  parent and depth), so one pipeline tick produces a root ``tick`` span
  with a child per stage,
* finished spans land in a bounded ring buffer (the exporter surface:
  recent history without unbounded growth); a full ring evicts the
  oldest span and *counts* the eviction (``dropped``, exported as the
  ``selfmon.trace.dropped`` gauge) — history loss is accounted, never
  silent,
* per-name aggregates (count / total / max wall time) are maintained
  incrementally, so reading summary timings never walks the ring.

Overhead is the design constraint (Table I: monitoring must have
documented, *bounded* impact): a span costs two ``perf_counter`` calls
plus a few attribute writes, and the tracer is always on — its cost is
measured by the benchmark, not avoided by a switch.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Iterator

__all__ = ["Span", "Tracer"]


class Span:
    """One timed region of the pipeline; usable as a context manager."""

    __slots__ = ("tracer", "name", "attrs", "parent_name", "depth",
                 "started_at", "duration_s")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict) -> None:
        self.tracer = tracer
        self.name = name
        self.attrs = attrs
        self.parent_name: str | None = None
        self.depth = 0
        self.started_at = 0.0
        self.duration_s = 0.0

    def __enter__(self) -> "Span":
        stack = self.tracer._stack
        if stack:
            top = stack[-1]
            self.parent_name = top.name
            self.depth = top.depth + 1
        stack.append(self)
        self.started_at = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.duration_s = time.perf_counter() - self.started_at
        self.tracer._stack.pop()
        self.tracer._record(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Span({self.name!r}, {1000 * self.duration_s:.3f} ms, "
                f"depth={self.depth})")


class Tracer:
    """Produces spans and keeps a bounded history plus running aggregates."""

    def __init__(self, maxlen: int = 4096) -> None:
        self.maxlen = int(maxlen)
        self._ring: deque[Span] = deque(maxlen=self.maxlen)
        self._stack: list[Span] = []
        #: spans evicted from the full ring (accounted exporter loss)
        self.dropped = 0
        # name -> [count, total_s, max_s]
        self._agg: dict[str, list[float]] = {}

    # -- producing spans ---------------------------------------------------

    def span(self, name: str, **attrs) -> Span:
        """Open a span; use as ``with tracer.span("stage"):``."""
        return Span(self, name, attrs)

    def _record(self, span: Span) -> None:
        if self.maxlen and len(self._ring) >= self.maxlen:
            self.dropped += 1      # deque eviction is about to fire
        self._ring.append(span)
        agg = self._agg.get(span.name)
        if agg is None:
            self._agg[span.name] = [1, span.duration_s, span.duration_s]
        else:
            agg[0] += 1
            agg[1] += span.duration_s
            if span.duration_s > agg[2]:
                agg[2] = span.duration_s

    # -- reading back ------------------------------------------------------

    def spans(self, name: str | None = None) -> list[Span]:
        """Finished spans still in the ring, oldest first."""
        if name is None:
            return list(self._ring)
        return [s for s in self._ring if s.name == name]

    def __iter__(self) -> Iterator[Span]:
        return iter(self._ring)

    def __len__(self) -> int:
        return len(self._ring)

    def slowest(self, n: int = 5, name: str | None = None) -> list[Span]:
        """The ``n`` slowest spans currently held in the ring."""
        pool = self._ring if name is None else self.spans(name)
        return sorted(pool, key=lambda s: -s.duration_s)[:n]

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per-span-name totals over the tracer's whole lifetime."""
        return {
            name: {
                "count": int(c),
                "total_s": t,
                "max_s": mx,
                "mean_ms": 1000.0 * t / c if c else 0.0,
            }
            for name, (c, t, mx) in self._agg.items()
        }

    def snapshot_counts(self) -> dict[str, tuple[int, float]]:
        """(count, total_s) per name — cheap deltas for cadence sampling."""
        return {name: (int(c), t) for name, (c, t, _) in self._agg.items()}

    def clear(self) -> None:
        self._ring.clear()
        self._agg.clear()
        self.dropped = 0
