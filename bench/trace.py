"""Wall-time spans recorded from the benchmark's side of every layer boundary.

The program under test is not edited: :class:`Tracer` interposes timing
wrappers on the public callables reachable from a built stack
(:func:`instrument_pipeline`, :func:`instrument_store`,
:func:`instrument_federation`).  A span is ``(id, parent, layer, start,
end, thread, phase)``; spans stay in memory and are written only when
the run ends (:meth:`Tracer.dump`).

A layer's **self time** is its spans' duration minus the part their child
spans cover, so on one thread the self times of all layers sum exactly to
the duration of the root spans — the ledger identity
:meth:`Tracer.ledger` checks.  Worker-thread spans (the ``lanl`` preset's
two-worker executor) have no main-thread parent: they are reported as busy
time and never subtracted from anything.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time

import numpy as np

__all__ = [
    "Tracer",
    "instrument_codecs",
    "instrument_federation",
    "instrument_pipeline",
    "instrument_store",
]

# stage span name -> ledger layer; stages whose body is one call into a
# plane that has its own span (freshness, response, selfmon, the metric
# plane) share the ``stages.other`` row for their few lines of glue
_STAGE_LAYERS = {
    "event-plane": "stages.event_plane",
    "job-tracking": "stages.job_tracking",
    "supervision": "stages.supervision",
    "streaming": "analysis.streaming",
    "analysis-hooks": "analysis.hooks",
}

_FRONTEND_METHODS = ("components", "query", "query_components",
                     "downsample", "aggregate_across")
_STORE_READS = ("query", "query_components", "downsample", "aggregate_across")


class Tracer:
    """Span recorder plus the interposer that feeds it."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.phase = 0                    # harness-set label: 1 = window
        self.unresolved: list[str] = []   # seams that no longer exist
        self._ids = itertools.count()
        self._local = threading.local()
        self._patched: list[tuple] = []
        self._main = threading.get_ident()

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    def traced(self, fn, layer: str):
        """``fn`` wrapped in a span of ``layer``."""
        spans, ids, stack_of = self.spans, self._ids, self._stack
        clock, ident = time.perf_counter, threading.get_ident

        def call(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            phase = self.phase
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, layer, t0, t1, ident(), phase))

        return call

    def run(self, layer: str, fn, *args, **kwargs):
        """Call ``fn`` once under a span (harness-issued operations)."""
        return self.traced(fn, layer)(*args, **kwargs)

    # -- interposing ---------------------------------------------------------

    def wrap(self, obj, attr: str, layer: str) -> None:
        """Replace ``obj.attr`` with a traced wrapper, remembering the
        original.  A seam that no longer resolves is noted, not fatal:
        its layer simply reports no time."""
        if obj is None:
            return
        fn = getattr(obj, attr, None)
        if fn is None:
            self.unresolved.append(f"{type(obj).__name__}.{attr}")
            return
        # restore by deleting the instance attribute when the original
        # lived on the class, so the object ends exactly as it began
        own = attr in getattr(obj, "__dict__", {})
        setattr(obj, attr, self.traced(fn, layer))
        self._patched.append((obj, attr, fn, own))

    def restore(self) -> None:
        """Undo every :meth:`wrap` (module- and class-level ones matter:
        they outlive the stack under test)."""
        for obj, attr, fn, own in reversed(self._patched):
            if own:
                setattr(obj, attr, fn)
            else:
                delattr(obj, attr)
        self._patched.clear()

    # -- analysis ------------------------------------------------------------

    def ledger(self, phase: int = 1) -> dict:
        """Per-layer self time and span count over the spans of ``phase``.

        Returns ``{"layers": {layer: (self_s, count)}, "root_s": total
        duration of main-thread root spans, "worker_busy_s": duration of
        worker-thread root spans, "spans": n}``.  Only main-thread spans
        enter ``layers``, so ``sum(self_s) == root_s`` up to float error.
        """
        rows = [s for s in self.spans if s[6] == phase]
        out = {"layers": {}, "root_s": 0.0, "worker_busy_s": 0.0,
               "spans": len(rows)}
        if not rows:
            return out
        sid = np.fromiter((s[0] for s in rows), dtype=np.int64)
        parent = np.fromiter((s[1] for s in rows), dtype=np.int64)
        dur = np.fromiter((s[4] - s[3] for s in rows), dtype=np.float64)
        main = np.fromiter((s[5] == self._main for s in rows), dtype=bool)
        names = sorted({s[2] for s in rows})
        index = {n: i for i, n in enumerate(names)}
        layer = np.fromiter((index[s[2]] for s in rows), dtype=np.int64)
        # a parent opened in another phase is outside this ledger: its
        # children count as roots here
        known = np.isin(parent, sid)
        has_parent = (parent >= 0) & known
        covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=int(sid.max()) + 1)
        self_s = dur - covered[sid]
        for name, i in index.items():
            pick = main & (layer == i)
            if pick.any():
                out["layers"][name] = (float(self_s[pick].sum()),
                                       int(pick.sum()))
        out["root_s"] = float(dur[main & ~has_parent].sum())
        out["worker_busy_s"] = float(dur[~main & ~has_parent].sum())
        return out

    def dump(self, path: str) -> None:
        """Write every span as one JSON document."""
        with open(path, "w") as f:
            json.dump({
                "columns": ["id", "parent", "layer", "start_s", "end_s",
                            "thread", "phase"],
                "spans": self.spans,
            }, f)

    def warn_unresolved(self) -> None:
        for seam in self.unresolved:
            print(f"bench: warning: trace seam {seam} no longer resolves; "
                  "its layer reports no time", file=sys.stderr)


# -- the seams ---------------------------------------------------------------


def instrument_codecs(tr: Tracer) -> None:
    """Module- and class-level seams shared by every store in the process:
    slotted ``SeriesPyramid`` instances reject instance patching, and the
    codec functions are module globals looked up at call time."""
    from repro.storage import rollup, tsdb

    tr.wrap(tsdb, "compress_chunk", "storage.compress")
    tr.wrap(tsdb, "decompress_chunk", "storage.decode")
    tr.wrap(rollup.SeriesPyramid, "add_sealed", "storage.rollup")


def instrument_store(tr: Tracer, store) -> None:
    """Write and read seams of one numeric store (plain or sharded).

    Called again after ``crash_and_recover``, which swaps the store.
    """
    shards = getattr(store, "shards", None)
    if shards is None:
        shards = [store]
        tr.wrap(store, "append", "storage.append")
    else:
        # the sharded front's own time is routing: split by owning shard,
        # then hand each piece to that shard's (separately spanned) append
        tr.wrap(store, "append", "storage.shard_route")
        tr.wrap(store, "append_parallel", "storage.shard_route")
        for shard in shards:
            tr.wrap(shard, "append", "storage.append")
    for shard in shards:
        disk = getattr(shard, "disk", None)
        tr.wrap(disk, "wal_append", "storage.wal")
        tr.wrap(disk, "append_blob", "storage.segment")
        tr.wrap(disk, "enforce_budget", "storage.spill")
        tr.wrap(disk, "load", "storage.diskload")
    for attr in _STORE_READS:
        tr.wrap(store, attr, "storage.read")


def instrument_pipeline(tr: Tracer, p) -> None:
    """Every layer boundary reachable from one built pipeline."""
    tr.wrap(p, "step", "runtime.tick_loop")
    tr.wrap(p.machine, "step", "cluster.simulate")
    if p.machine.scheduler.health_gate is not None:
        # product code the simulator calls back into on every job start
        tr.wrap(p.machine.scheduler, "health_gate", "sources.health_gate")
    tr.wrap(p.scheduler, "poll", "sources.scheduler")
    for c in p.scheduler.collectors:
        tr.wrap(c, "collect", "sources.collect")
    tr.wrap(p.bus, "publish", "transport.publish")
    tr.wrap(p.bus, "pump", "transport.pump")
    tr.wrap(p.bus, "flush", "transport.pump")
    instrument_store(tr, p.tsdb)
    for stage in p.stages:
        tr.wrap(stage, "run", _STAGE_LAYERS.get(stage.name, "stages.other"))
        for det in getattr(stage, "detectors", ()):
            # detectors run inside bus.publish (flat) or pump (deferred);
            # without their own span that time would land on transport
            tr.wrap(det, "observe", "analysis.streaming")
    tr.wrap(p.selfmon, "maybe_emit", "obs.selfmon")
    tr.wrap(p.freshness, "record", "obs.freshness")
    tr.wrap(p.sec, "feed", "response.sec")
    tr.wrap(p.sec, "tick", "response.sec")
    tr.wrap(p.actions, "execute", "response.actions")
    tr.wrap(p.logs, "append", "storage.logstore")
    tr.wrap(p.sql, "upsert_job", "storage.sql")
    for attr in _FRONTEND_METHODS:
        tr.wrap(p.frontend, attr, "serve.frontend")
    if p.executor.parallel:
        # the coordinator's wait for workers, kept off the caller's row
        tr.wrap(p.executor, "map_ordered", "runtime.barrier")


def instrument_federation(tr: Tracer, fed) -> None:
    tr.wrap(fed, "step", "sites.federation")
    tr.wrap(fed.frontend(), "aggregate_across", "serve.federated")
    for p in fed.pipelines.values():
        instrument_pipeline(tr, p)
