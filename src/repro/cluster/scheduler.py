"""Batch scheduler: queue, backfill, placement policies, health gating.

Three paper stories live here:

* **Figure 1 (NCSA)** — Topologically-Aware Scheduling: placing a job's
  nodes close together in the interconnect changed shared-network
  utilization system-wide.  :class:`TopoAwarePlacement` packs allocations
  into as few dragonfly groups / torus regions as possible;
  :class:`ScatteredPlacement` is the pre-TAS baseline.
* **CSCS (Section II-5)** — "no job should start on a node with a
  problem, and a problem should only be encountered by at most one batch
  job": the scheduler accepts a *health gate* callable consulted per node
  at job start, and the CSCS policy wires pre-/post-job health checks to
  it.
* **NERSC / CSC (Sections II-3/4)** — queue depth and backlog monitoring:
  the scheduler exposes queue depth and outstanding node-hours, and a
  *queue blockage* fault mode stops launches (NERSC's "blockage in the
  queue, quickly filling it").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol

import numpy as np

from .topology import Topology
from .workload import Job, JobState

__all__ = [
    "PlacementPolicy",
    "ScatteredPlacement",
    "PackedPlacement",
    "TopoAwarePlacement",
    "SchedulerEvent",
    "BatchScheduler",
]


class PlacementPolicy(Protocol):
    """Chooses nodes for a job from the free pool."""

    name: str

    def place(
        self, topo: Topology, free: list[str], n_nodes: int, rng: np.random.Generator
    ) -> list[str] | None:
        """Return the chosen nodes, or None when placement is impossible."""


class ScatteredPlacement:
    """Pre-TAS baseline: nodes drawn uniformly from the free pool.

    Fragmented allocations spread a job's traffic across many groups and
    global links, maximizing sharing (and contention) with other jobs.
    """

    name = "scattered"

    def place(self, topo, free, n_nodes, rng):
        if len(free) < n_nodes:
            return None
        picks = rng.choice(len(free), size=n_nodes, replace=False)
        return [free[i] for i in sorted(picks)]


class PackedPlacement:
    """First-fit in node order: contiguous cnames, ignorant of topology."""

    name = "packed"

    def place(self, topo, free, n_nodes, rng):
        if len(free) < n_nodes:
            return None
        return sorted(free)[:n_nodes]


class TopoAwarePlacement:
    """TAS: fill whole topological groups before spilling to the next.

    Nodes are bucketed by their topology group (dragonfly electrical
    group / torus x-slab); the job takes groups with the most free nodes
    first, so most of its traffic stays on intra-group links and the
    shared global links carry less cross-job interference.
    """

    name = "tas"

    def place(self, topo, free, n_nodes, rng):
        if len(free) < n_nodes:
            return None
        by_group: dict[int, list[str]] = {}
        for n in free:
            by_group.setdefault(topo.node_group[n], []).append(n)
        # fullest groups first; deterministic tiebreak on group id
        groups = sorted(
            by_group.items(), key=lambda kv: (-len(kv[1]), kv[0])
        )
        chosen: list[str] = []
        for _, nodes in groups:
            nodes.sort()
            take = min(len(nodes), n_nodes - len(chosen))
            chosen.extend(nodes[:take])
            if len(chosen) == n_nodes:
                return chosen
        return None  # unreachable given the len check above


@dataclass(frozen=True, slots=True)
class SchedulerEvent:
    """Job lifecycle record (becomes an ``EventKind.SCHEDULER`` event)."""

    time: float
    action: str          # submit | start | end | fail | cancel | held
    job_id: int
    app: str
    n_nodes: int
    detail: str = ""


class BatchScheduler:
    """FCFS + conservative backfill over a fixed node inventory."""

    def __init__(
        self,
        topo: Topology,
        placement: PlacementPolicy | None = None,
        health_gate: Callable[[str], bool] | None = None,
        admission_control: Callable[[Job], bool] | None = None,
        backfill: bool = True,
        seed: int = 0,
    ) -> None:
        self.topo = topo
        self.placement = placement or ScatteredPlacement()
        self.health_gate = health_gate
        # whole-job admission hook (power budgets, maintenance windows);
        # consulted before placement — Section III-C's "scheduling and
        # allocation based on application and resource state"
        self.admission_control = admission_control
        self.backfill = backfill
        self._rng = np.random.default_rng(seed)

        self.queue: list[Job] = []
        self.running: list[Job] = []
        self.completed: list[Job] = []
        self.allocated: dict[str, int] = {}   # node -> job id
        self.events: list[SchedulerEvent] = []
        self.blocked = False   # queue-blockage fault: nothing launches
        self.unavailable: set[str] = set()  # nodes drained by operators

    # -- external surface -----------------------------------------------------

    def submit(self, job: Job, now: float) -> None:
        self.queue.append(job)
        self.events.append(
            SchedulerEvent(now, "submit", job.id, job.app.name, job.n_nodes)
        )

    def drain_node(self, node: str) -> None:
        """Take a node out of service (response action: mark-down)."""
        self.unavailable.add(node)

    def return_node(self, node: str) -> None:
        self.unavailable.discard(node)

    def set_blocked(self, blocked: bool) -> None:
        self.blocked = blocked

    @property
    def queue_depth(self) -> int:
        return len(self.queue)

    def backlog_node_hours(self) -> float:
        """Outstanding demand: sum over queued jobs of nodes x walltime."""
        return sum(j.n_nodes * j.walltime_req / 3600.0 for j in self.queue)

    def free_nodes(self) -> list[str]:
        return [
            n
            for n in self.topo.nodes
            if n not in self.allocated and n not in self.unavailable
        ]

    # -- scheduling cycle --------------------------------------------------------

    def tick(self, now: float) -> list[Job]:
        """Run one scheduling cycle; returns jobs started this cycle."""
        if self.blocked:
            return []
        started: list[Job] = []
        free = self.free_nodes()
        i = 0
        blocked_head_size: int | None = None
        while i < len(self.queue):
            job = self.queue[i]
            if blocked_head_size is not None:
                if not self.backfill or job.n_nodes >= blocked_head_size:
                    i += 1
                    continue
            placed = self._try_start(job, free, now)
            if placed:
                started.append(job)
                self.queue.pop(i)
                taken = set(job.nodes)
                free = [n for n in free if n not in taken]
                continue
            if blocked_head_size is None:
                # FCFS head can't start; only strictly smaller jobs may
                # backfill around it (conservative, avoids starvation)
                blocked_head_size = job.n_nodes
            i += 1
        return started

    def _try_start(self, job: Job, free: list[str], now: float) -> bool:
        if self.admission_control is not None and not self.admission_control(job):
            return False
        candidates = free
        if self.health_gate is not None:
            candidates = [n for n in free if self.health_gate(n)]
        nodes = self.placement.place(
            self.topo, candidates, job.n_nodes, self._rng
        )
        if nodes is None:
            return False
        job.start(now, nodes)
        for n in nodes:
            self.allocated[n] = job.id
        self.running.append(job)
        self.events.append(
            SchedulerEvent(
                now, "start", job.id, job.app.name, job.n_nodes,
                detail=f"placement={self.placement.name}",
            )
        )
        return True

    def complete(self, job: Job, now: float,
                 state: JobState = JobState.COMPLETED) -> None:
        """Finish a running job and release its nodes."""
        job.finish(now, state)
        self.running.remove(job)
        self.completed.append(job)
        for n in job.nodes:
            self.allocated.pop(n, None)
        action = "end" if state is JobState.COMPLETED else state.value
        self.events.append(
            SchedulerEvent(now, action, job.id, job.app.name, job.n_nodes)
        )

    def kill_jobs_on_node(self, node: str, now: float) -> list[Job]:
        """Fail whatever is running on ``node`` (node crash semantics)."""
        victims = [j for j in self.running if node in j.nodes]
        for j in victims:
            self.complete(j, now, JobState.FAILED)
        return victims

    def drain_events(self) -> list[SchedulerEvent]:
        out = self.events
        self.events = []
        return out
