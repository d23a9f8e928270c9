"""Execution models: the tick loop as a pluggable worker topology.

The paper's sites run collection, aggregation, and ingest as genuinely
distributed daemons; our reproduction historically executed everything
as a single-threaded in-process tick loop.  An :class:`ExecutionModel`
makes the concurrency a deployment knob:

``SerialExecutor``
    today's behaviour, the default — every plane runs inline in the
    main thread, bit-identical to the historic tick loop.

``ThreadedExecutor``
    a pool of N workers that the *data-parallel* planes fan out over:
    due-collector sweeps (:meth:`repro.sources.base.CollectionScheduler.poll`),
    per-shard TSDB ingest
    (:meth:`repro.storage.sharded.ShardedTimeSeriesStore.append_parallel`),
    and aggregation-tree leaf coalescing
    (:meth:`repro.transport.aggtree.AggregatorTree.pump`).  Threads —
    not processes — because every plane shares in-process state
    (stores, ledgers, simulated machine) that does not pickle; what
    the pool buys is the bench ledger's
    ``runtime.worker_busy_ms_per_tick`` against
    ``runtime.barrier_wait_ms_per_tick``.

The determinism contract both models honour: workers only ever run
*pure compute* (a collector reading the frozen machine state, a shard
appending its private pieces, a leaf coalescing its private buffer).
Every shared-state mutation — transport publish, ledger stamps,
supervision records, freshness folds — happens in the main thread, in
a deterministic order, at the :meth:`map_ordered` barrier.  That is why
a seeded scenario produces identical ledger totals, health timelines,
and query results under either executor (asserted by the
serial-vs-threaded equivalence suite).

The stage loop itself (:meth:`ExecutionModel.run_tick`) always runs
serially in the main thread: stages synchronize at tick barriers
against the simulated clock, and concurrency lives *inside* the
data-parallel planes, not between stages.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Sequence

__all__ = [
    "ExecStats",
    "ExecutionModel",
    "SerialExecutor",
    "ThreadedExecutor",
    "make_executor",
]


@dataclass
class ExecStats:
    """Lifetime telemetry of one executor (the ``selfmon.exec.*`` feed).

    ``busy_s`` sums per-task wall time across workers; ``map_wall_s``
    is the coordinator wall time spent inside :meth:`map_ordered`, so
    ``busy_s / (workers * map_wall_s)`` is the worker busy fraction.
    ``barrier_wait_s`` is the coordinator time blocked collecting
    results after the last submission; ``handoff_peak`` the largest
    task backlog handed to the pool beyond its worker count.
    """

    barriers: int = 0
    tasks: int = 0
    busy_s: float = 0.0
    map_wall_s: float = 0.0
    barrier_wait_s: float = 0.0
    handoff_peak: int = 0


def _timed(fn: Callable[[], Any]) -> tuple[Any, float]:
    t0 = time.perf_counter()
    return fn(), time.perf_counter() - t0


class ExecutionModel:
    """How the pipeline's data-parallel planes execute for one tick."""

    #: short identity used as the ``selfmon.exec.*`` component name
    name = "serial"
    #: worker count; ``parallel`` planes engage only when > 1
    workers = 1

    def __init__(self) -> None:
        self.stats = ExecStats()

    @property
    def parallel(self) -> bool:
        return self.workers > 1

    def map_ordered(
        self, fns: Sequence[Callable[[], Any]]
    ) -> list[Any]:
        """Run every thunk and return their results in submission order.

        This is the tick barrier: the call returns only when every
        thunk has finished, and the result order is the submission
        order regardless of completion order — callers then apply
        shared-state mutations serially in that deterministic order.
        Thunks must not raise (plane callers wrap their work in
        exception-capturing closures so one failure cannot abort the
        barrier).
        """
        raise NotImplementedError

    def run_tick(self, pipeline, dt: float) -> None:
        """Advance the machine one tick and run the monitoring plane.

        Every tick opens a root ``tick`` span and iterates the
        dependency-scheduled stage list, one child span per stage, so
        the introspector can attribute wall time to exactly the stage
        that spent it.  Requests returned by a stage accumulate and are
        executed by the response stage at its position in the order.
        Stages always run serially in the calling thread; parallel
        executors fan out *inside* the data-parallel planes only.
        """
        tracer = pipeline.tracer
        pending = pipeline._pending_requests
        sup = pipeline.supervisor
        with tracer.span("tick"):
            pipeline.ticks += 1
            pipeline.machine.step(dt)
            now = pipeline.machine.now
            keys = pipeline._stage_keys
            for stage in pipeline.stages:
                if sup is not None:
                    key = keys.get(stage.name)
                    if key is None:
                        key = keys[stage.name] = "stage:" + stage.name
                    if not sup.should_run(key, now):
                        continue   # quarantined: degrade the tick
                with tracer.span(stage.name):
                    if sup is None:
                        raised = stage.run(pipeline, now)
                    else:
                        try:
                            raised = stage.run(pipeline, now)
                        except Exception as exc:
                            # a failing stage degrades the tick instead
                            # of killing it; the breaker quarantines a
                            # repeat offender under backoff
                            sup.record(
                                key, False, now,
                                reason=f"raised {type(exc).__name__}",
                            )
                            continue
                        sup.record(key, True, now)
                    if raised:
                        pending.extend(raised)

    def shutdown(self) -> None:
        """Release worker resources (idempotent; no-op when serial)."""

    def snapshot(self) -> dict[str, float | int | str]:
        """Point-in-time executor vitals (the selfmon/introspect feed)."""
        s = self.stats
        denom = s.map_wall_s * self.workers
        return {
            "name": self.name,
            "workers": self.workers,
            "barriers": s.barriers,
            "tasks": s.tasks,
            "busy_fraction": (s.busy_s / denom) if denom > 0 else 0.0,
            "barrier_wait_ms": 1000.0 * s.barrier_wait_s,
            "handoff_depth": s.handoff_peak,
        }


class SerialExecutor(ExecutionModel):
    """Today's behaviour: every plane inline, in order, one thread."""

    name = "serial"
    workers = 1

    def map_ordered(self, fns):
        s = self.stats
        s.barriers += 1
        t0 = time.perf_counter()
        out = [fn() for fn in fns]
        wall = time.perf_counter() - t0
        s.tasks += len(out)
        s.busy_s += wall
        s.map_wall_s += wall
        return out


class ThreadedExecutor(ExecutionModel):
    """N pooled workers fanning out the data-parallel planes.

    The pool is created lazily on first use and torn down by
    :meth:`shutdown`.  Results are collected in submission order —
    worker scheduling can interleave task *execution* arbitrarily, but
    the barrier re-serializes the *results*, which is all the callers'
    determinism contract needs.
    """

    name = "threaded"

    def __init__(self, workers: int = 4) -> None:
        super().__init__()
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = int(workers)
        self._pool: ThreadPoolExecutor | None = None

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="repro-exec"
            )
        return self._pool

    def map_ordered(self, fns):
        s = self.stats
        s.barriers += 1
        if len(fns) <= 1:           # nothing to overlap: skip the pool
            t0 = time.perf_counter()
            out = [fn() for fn in fns]
            wall = time.perf_counter() - t0
            s.tasks += len(out)
            s.busy_s += wall
            s.map_wall_s += wall
            return out
        pool = self._ensure_pool()
        backlog = len(fns) - self.workers
        if backlog > s.handoff_peak:
            s.handoff_peak = backlog
        t0 = time.perf_counter()
        futures = [pool.submit(_timed, fn) for fn in fns]
        t_submitted = time.perf_counter()
        results: list[Any] = []
        busy = 0.0
        for f in futures:
            r, task_wall = f.result()
            results.append(r)
            busy += task_wall
        t1 = time.perf_counter()
        s.tasks += len(results)
        s.busy_s += busy
        s.map_wall_s += t1 - t0
        s.barrier_wait_s += t1 - t_submitted
        return results

    def shutdown(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


def make_executor(spec=None) -> ExecutionModel:
    """Resolve a worker count (``SiteConfig.workers``) to an executor.

    ``None`` is the :class:`SerialExecutor` default; an ``int`` N picks
    :class:`ThreadedExecutor` over N workers (N <= 1 collapses to
    serial); an :class:`ExecutionModel` instance passes through.
    """
    if spec is None:
        return SerialExecutor()
    if isinstance(spec, ExecutionModel):
        return spec
    if isinstance(spec, bool) or not isinstance(spec, int):
        # bool is an int and would silently collapse to 0/1 workers
        raise TypeError(
            f"executor must be None, an int worker count, or an "
            f"ExecutionModel; got {type(spec).__name__}"
        )
    return SerialExecutor() if spec <= 1 else ThreadedExecutor(spec)
