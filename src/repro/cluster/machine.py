"""The simulated platform: composition root and time-stepping loop.

A :class:`Machine` owns the topology, node/GPU state, network, shared
filesystem, batch scheduler, workload generator, machine-room
environment, and fault injector, and advances them together.  It is the
"system" of the paper; everything in :mod:`repro.sources` observes it
and nothing else mutates it.

The step order matters and mirrors how the real thing behaves:

1. faults fire/expire (conditions exist before anyone measures them),
2. new jobs arrive and the scheduler launches what fits,
3. running jobs express demands (CPU, traffic, I/O),
4. shared resources serve those demands under contention,
5. jobs progress at the rate contention allowed (victims slow down),
6. node/GPU/room physics advance,
7. discrete events emitted along the way land in the event buffer for
   the event-router source to drain.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..core.clock import DriftingClock, DriftModel, SimClock
from ..core.events import Event, EventKind, Severity
from .components import GpuStore
from .faults import FaultInjector
from .filesystem import IODemand, LustreFS
from .network import Flow, NetworkState
from .node import NodeStore
from .scheduler import BatchScheduler, PlacementPolicy
from .topology import Topology, build_dragonfly
from .workload import Job, JobGenerator, JobState

__all__ = ["RoomEnv", "Machine"]


class RoomEnv:
    """Machine-room environment (ORNL/NERSC facility monitoring target)."""

    def __init__(self, seed: int = 0) -> None:
        self.setpoint_c = 22.0
        self.ambient_c = 22.0
        self.humidity = 0.45
        self.baseline_corrosion = 150.0   # A/month coupon rate (benign)
        self.corrosion_rate = self.baseline_corrosion
        self.particulate = 12.0           # ug/m3
        self._rng = np.random.default_rng(seed)

    def step(self, dt: float) -> None:
        """Small mean-reverting walk around setpoints."""
        r = self._rng
        pull = min(1.0, dt / 600.0)
        self.ambient_c += (
            (self.setpoint_c - self.ambient_c) * pull * 0.2
            + r.normal(0, 0.02) * np.sqrt(dt)
        )
        self.humidity = float(
            np.clip(self.humidity + r.normal(0, 2e-4) * np.sqrt(dt), 0.2, 0.8)
        )
        self.particulate = float(
            max(1.0, self.particulate + r.normal(0, 0.02) * np.sqrt(dt))
        )


class Machine:
    """A complete simulated HPC platform."""

    def __init__(
        self,
        topo: Topology | None = None,
        *,
        placement: PlacementPolicy | None = None,
        job_generator: JobGenerator | None = None,
        gpu_nodes: Sequence[str] | str | None = None,
        health_gate: Callable[[str], bool] | None = None,
        gpu_failure_kills_job: bool = True,
        clock_drift: DriftModel | None = None,
        fs: LustreFS | None = None,
        seed: int = 0,
    ) -> None:
        self.topo = topo or build_dragonfly(groups=2, chassis_per_group=3,
                                            blades_per_chassis=4)
        self.clock = SimClock()
        self.seed = seed
        self.nodes = NodeStore(self.topo.nodes, seed=seed)
        self.network = NetworkState(self.topo, seed=seed + 1)
        self.fs = fs or LustreFS(seed=seed + 2)
        self.scheduler = BatchScheduler(
            self.topo,
            placement=placement,
            health_gate=health_gate,
            seed=seed + 3,
        )
        self.job_generator = job_generator
        self.room = RoomEnv(seed=seed + 4)
        self.faults = FaultInjector()
        self.gpu_failure_kills_job = gpu_failure_kills_job

        if gpu_nodes == "all":
            gpu_hosts = list(self.topo.nodes)
        elif gpu_nodes is None:
            gpu_hosts = []
        else:
            gpu_hosts = list(gpu_nodes)
        self.gpus = GpuStore(gpu_hosts, seed=seed + 5) if gpu_hosts else None

        drift = clock_drift or DriftModel(seed=seed + 6)
        #: every node's drifting clock as columns, in ``nodes.names`` order;
        #: ``node_clocks`` names the same clocks, each a view of its entry
        self.clock_fleet = drift.make_fleet(len(self.topo.nodes))
        self.node_clocks: dict[str, DriftingClock] = dict(
            zip(self.topo.nodes, self.clock_fleet.clocks())
        )

        self._event_buffer: list[Event] = []
        self.steps_taken = 0

    # -- events ---------------------------------------------------------------

    def emit_event(
        self,
        kind: EventKind,
        severity: Severity,
        component: str,
        message: str,
        fields: dict | None = None,
        local_clock: bool = False,
    ) -> Event:
        """Emit a discrete event stamped at the current (true) time.

        With ``local_clock=True`` the timestamp instead comes from the
        producing node's drifting clock — the realistic, messy case the
        correlation ablation studies.
        """
        t = self.clock.now
        if local_clock and component in self.node_clocks:
            t = self.node_clocks[component].local_time(t)
        ev = Event(
            time=t,
            component=component,
            kind=kind,
            severity=severity,
            message=message,
            fields=fields or {},
        )
        self._event_buffer.append(ev)
        return ev

    def drain_events(self) -> list[Event]:
        """Hand pending events to the event router (destructive read)."""
        out = self._event_buffer
        self._event_buffer = []
        return out

    # -- main loop ----------------------------------------------------------------

    def step(self, dt: float = 1.0) -> None:
        """Advance the whole machine by ``dt`` seconds."""
        now = self.clock.now

        # 1. faults
        self.faults.step(self, now)

        # 2. arrivals + scheduling
        if self.job_generator is not None:
            for job in self.job_generator.poll(now):
                self.scheduler.submit(job, now)
        started = self.scheduler.tick(now)
        for job in started:
            self.emit_event(
                EventKind.SCHEDULER, Severity.INFO, "scheduler",
                f"job {job.id} ({job.app.name}) started on "
                f"{len(job.nodes)} nodes",
                fields={"job_id": job.id, "nodes": list(job.nodes)},
            )

        # 3. demands
        util = np.zeros(self.nodes.n)
        flows: list[Flow] = []
        demands: list[IODemand] = []
        running = list(self.scheduler.running)
        for job in running:
            idxs = self.nodes.idxs(job.nodes)
            util[idxs] = np.maximum(util[idxs], job.demanded_util())
            flows.extend(job.flows(dt))
            d = job.io_demand(dt, self.fs.n_ost)
            if d is not None:
                demands.append(d)

        # 4. shared-resource service
        self.fs.step(dt, demands)
        self.network.step(dt, flows)

        # 5. job progress under contention
        offered = self.network.inject_offered_Bps
        achieved = self.network.inject_achieved_Bps
        for job in running:
            idxs = self.nodes.idxs(job.nodes)
            if self.nodes.hung[idxs].any():
                # a hung rank stalls the whole job at its next barrier;
                # power stays up (nodes still spin) but progress stops —
                # the KAUST power-signature scenario
                pass
            else:
                off = float(offered[idxs].sum())
                ach = float(achieved[idxs].sum())
                comm_eff = ach / off if off > 0 else 1.0
                io_eff = self.fs.job_io_fraction.get(job.id, 1.0)
                cpu_speed = float(self.nodes.pstate_frac[idxs].mean())
                job.advance(dt, comm_eff=comm_eff, io_eff=io_eff,
                            cpu_speed=cpu_speed)

            if job.done:
                self.scheduler.complete(job, now + dt)
                self.emit_event(
                    EventKind.SCHEDULER, Severity.INFO, "scheduler",
                    f"job {job.id} ({job.app.name}) completed, "
                    f"runtime {job.runtime:.0f}s",
                    fields={"job_id": job.id, "runtime": job.runtime},
                )
            elif (
                job.start_time is not None
                and (now + dt) - job.start_time > job.walltime_req
            ):
                self.scheduler.complete(job, now + dt, JobState.FAILED)
                self.emit_event(
                    EventKind.SCHEDULER, Severity.WARNING, "scheduler",
                    f"job {job.id} ({job.app.name}) hit walltime limit",
                    fields={"job_id": job.id},
                )

        # 6. physics
        self.nodes.step(dt, util, self.room.ambient_c)
        self.room.step(dt)
        if self.gpus is not None:
            gpu_util = util[self.nodes.idxs(self.gpus.host_nodes)]
            failed_now = self.gpus.step(
                dt, self.room.corrosion_rate, gpu_util
            )
            for gi in failed_now:
                host = self.gpus.host_nodes[gi]
                self.emit_event(
                    EventKind.HWERR, Severity.CRITICAL, host,
                    "GPU fell off the bus: Xid 79 (GPU has fallen off "
                    "the bus)",
                    fields={"gpu": f"{host}g0"},
                )
                if self.gpu_failure_kills_job:
                    for victim in self.scheduler.kill_jobs_on_node(
                        host, now + dt
                    ):
                        self.emit_event(
                            EventKind.SCHEDULER, Severity.ERROR,
                            "scheduler",
                            f"job {victim.id} failed: GPU fault on {host}",
                            fields={"job_id": victim.id, "node": host},
                        )

        self.clock.advance(dt)
        self.steps_taken += 1

    def run(
        self,
        duration: float,
        dt: float = 1.0,
        on_step: Callable[["Machine"], None] | None = None,
    ) -> None:
        """Step the machine for ``duration`` seconds of simulated time."""
        end = self.clock.now + duration
        while self.clock.now < end - 1e-9:
            self.step(dt)
            if on_step is not None:
                on_step(self)

    # -- convenience surfaces used by collectors ------------------------------------

    @property
    def now(self) -> float:
        return self.clock.now

    def running_job_on(self, node: str) -> Job | None:
        jid = self.scheduler.allocated.get(node)
        if jid is None:
            return None
        for j in self.scheduler.running:
            if j.id == jid:
                return j
        return None
