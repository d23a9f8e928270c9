"""Worker-scaling harness for the ``scale --workers`` sweep.

Builds the Trinity-sized synchronized-sweep scenario the analysis-plane
benchmark already uses — 27,648 components, one sample per component
per tick — but monitored end to end through the pipeline, with the
remote-I/O latency model from :mod:`repro.runtime.latency` on both
distributed edges: every collector sweep pays a scrape RTT and every
store-shard append pays a write RTT.  Wall time per step is then
dominated by waiting, which is exactly the cost a threaded execution
model overlaps; the sweep measures how much of it each worker count
hides.

Deliberately lean: tracing, self-monitoring, and freshness are off so
the measurement isolates the execution model, not the observability
planes (the equivalence tests cover those with full planes on).
"""

from __future__ import annotations

import time

__all__ = [
    "DEFAULT_COMPONENTS",
    "DEFAULT_FLEETS",
    "build_scaling_pipeline",
    "measure_workers",
    "sweep_workers",
]

#: Trinity-haswell scale: components per synchronized sweep
DEFAULT_COMPONENTS = 27_648
#: fleet slices (= concurrent scrape RTTs a parallel sweep can overlap)
DEFAULT_FLEETS = 4


def build_scaling_pipeline(
    workers: int,
    n_components: int = DEFAULT_COMPONENTS,
    fleets: int = DEFAULT_FLEETS,
    shards: int = 4,
    scrape_rtt_s: float = 0.005,
    write_rtt_s: float = 0.01,
    seed: int = 7,
):
    """One lean pipeline over ``fleets`` remote collector slices and a
    ``shards``-way store one write-RTT away, on ``workers`` workers."""
    from ..obs.trace import Tracer
    from ..pipeline import MonitoringPipeline
    from ..sites import SiteConfig, build_machine
    from ..storage.sharded import ShardedTimeSeriesStore
    from .latency import LatentStore, RemoteFleetCollector

    per_fleet, extra = divmod(n_components, fleets)
    collectors = []
    first = 0
    for i in range(fleets):
        n = per_fleet + (1 if i < extra else 0)
        collectors.append(RemoteFleetCollector(
            f"fleet-{i}", interval_s=10.0, n_components=n,
            rtt_s=scrape_rtt_s, first_component=first,
        ))
        first += n

    store = ShardedTimeSeriesStore(shards=shards)
    store.shards = [LatentStore(s, rtt_s=write_rtt_s)
                    for s in store.shards]

    # a 24-node machine with an all but idle queue: the monitored
    # fleet is the synthetic remote collectors, not the simulator
    config = SiteConfig(
        blades_per_chassis=1,
        gpu_nodes=(),
        mean_interarrival_s=100_000.0,
        seed=seed,
        selfmon_interval_s=None,
        freshness=False,
        workers=workers,
    )
    return MonitoringPipeline(
        build_machine(config),
        config,
        collectors=collectors,
        tracer=Tracer(enabled=False),
        tsdb=store,
    )


def measure_workers(
    workers: int,
    n_steps: int = 20,
    **build_kw,
) -> dict:
    """Run ``n_steps`` ticks on ``workers`` workers; return vitals."""
    pipeline = build_scaling_pipeline(workers, **build_kw)
    try:
        t0 = time.perf_counter()
        for _ in range(n_steps):
            pipeline.step()
        wall = time.perf_counter() - t0
        stats = pipeline.tsdb.stats()
        rtt_paid = sum(c.rtt_paid_s for c in pipeline.scheduler.collectors)
        rtt_paid += sum(s.rtt_paid_s for s in pipeline.tsdb.shards)
        return {
            "workers": int(workers),
            "steps": int(n_steps),
            "wall_s": wall,
            "steps_per_s": n_steps / wall if wall > 0 else float("inf"),
            "samples": int(stats.samples),
            "rtt_paid_s": rtt_paid,
            "executor": pipeline.executor.snapshot(),
        }
    finally:
        pipeline.executor.shutdown()


def sweep_workers(
    worker_counts=(1, 2, 4),
    n_steps: int = 20,
    **build_kw,
) -> list[dict]:
    """Measure each worker count; ``speedup`` is relative to the first
    (serial) arm."""
    rows = [measure_workers(w, n_steps=n_steps, **build_kw)
            for w in worker_counts]
    base = rows[0]["wall_s"]
    for row in rows:
        row["speedup"] = base / row["wall_s"] if row["wall_s"] else 0.0
    return rows
