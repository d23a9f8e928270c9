"""Scheduler/queue telemetry (NERSC backlog, CSC wait-time inputs).

NERSC "monitors the batch queue backlog - large or sudden changes in
outstanding demand can indicate for example a spike in jobs that fail
immediately upon starting (quickly emptying the queue) or a blockage in
the queue (quickly filling it)" (Section II-3).  CSC uses queue-length
display to give users realistic wait-time expectations (Section II-4).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..core.events import Event, EventKind, Severity
from ..core.metric import SeriesBatch
from ..core.soa import name_column
from .base import Collector, CollectorOutput

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.machine import Machine

__all__ = ["QueueStatsCollector"]


class QueueStatsCollector(Collector):
    """Queue depth + backlog sweep, plus scheduler lifecycle events."""

    metrics = ("queue.depth", "queue.backlog_nodeh")

    def __init__(self, interval_s: float = 60.0) -> None:
        super().__init__("queue_stats", interval_s)
        self._scheduler = name_column(["scheduler"])   # both sweeps' column

    def collect(self, machine: "Machine", now: float) -> CollectorOutput:
        sched = machine.scheduler
        out = CollectorOutput(
            batches=[
                SeriesBatch.sweep(
                    "queue.depth", now, self._scheduler,
                    [float(sched.queue_depth)],
                ),
                SeriesBatch.sweep(
                    "queue.backlog_nodeh", now, self._scheduler,
                    [sched.backlog_node_hours()],
                ),
            ]
        )
        # surface scheduler lifecycle records as events for the log path
        for rec in sched.drain_events():
            out.events.append(
                Event(
                    time=rec.time,
                    component="scheduler",
                    kind=EventKind.SCHEDULER,
                    severity=Severity.INFO,
                    message=(
                        f"{rec.action} job={rec.job_id} app={rec.app} "
                        f"nodes={rec.n_nodes} {rec.detail}"
                    ).strip(),
                    fields={
                        "action": rec.action,
                        "job_id": rec.job_id,
                        "app": rec.app,
                        "n_nodes": rec.n_nodes,
                    },
                )
            )
        return out
