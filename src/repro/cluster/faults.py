"""Fault injection: the performance-impacting conditions the paper monitors.

Every site story in Section II is a *detection* story; this module
supplies the matching *conditions*, on a schedule, so examples, tests,
and benches can demonstrate detection with known ground truth:

=====================  ==========================================
Fault                  Paper story it exercises
=====================  ==========================================
HungNode               KAUST power-signature hung-node detection
LoadImbalance          KAUST Figure 3 cabinet power variation
CorrosionExcursion     ORNL sulfur-corrosion GPU failure wave
LinkFailure            ALCF/SNL HSN events; recovery-delay cascades
BerDegradation         ALCF link BER trend analysis
SlowOst                NCSA filesystem probe latency detection
MdsDegradation         NCSA metadata probe latency detection
ServiceDeath           LANL essential-service checks
MountLoss              LANL filesystem-mount checks
MemoryLeak             LANL free-memory checks
QueueBlockage          NERSC queue-backlog anomaly
ThermalExcursion       NERSC environmental monitoring
=====================  ==========================================

A :class:`FaultInjector` owns a schedule of faults, applies each at its
start time, reverts it when its window ends, and keeps the ground-truth
record that tests compare detector output against.  The monitor faults
of :mod:`repro.obs.chaos` are :class:`Fault` subclasses too, stepped by
a :class:`FaultInjector` of their own against the pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING
from ..core.events import EventKind, Severity

if TYPE_CHECKING:  # pragma: no cover
    from .machine import Machine

__all__ = [
    "Fault",
    "ConfigDrift",
    "HungNode",
    "LoadImbalance",
    "CorrosionExcursion",
    "LinkFailure",
    "BerDegradation",
    "SlowOst",
    "MdsDegradation",
    "ServiceDeath",
    "MountLoss",
    "MemoryLeak",
    "QueueBlockage",
    "ThermalExcursion",
    "FaultInjector",
]


@dataclass
class Fault:
    """Base fault: active over [start, start + duration).

    ``apply`` / ``revert`` receive what the fault breaks: the
    :class:`~repro.cluster.machine.Machine` for the faults here, the
    :class:`~repro.pipeline.MonitoringPipeline` for a monitor fault.
    """

    start: float
    duration: float | None = None   # None = until explicitly cleared
    name: str = "fault"
    target: str = ""

    applied: bool = field(default=False, init=False)
    reverted: bool = field(default=False, init=False)

    def apply(self, m: "Machine") -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def revert(self, m: "Machine") -> None:
        """Default: nothing to undo."""

    def active_at(self, t: float) -> bool:
        if t < self.start:
            return False
        return self.duration is None or t < self.start + self.duration

    def window(self) -> tuple[float, float | None]:
        end = None if self.duration is None else self.start + self.duration
        return (self.start, end)


@dataclass
class HungNode(Fault):
    """A node wedges: keeps drawing busy power but makes no progress."""

    node: str = ""
    name: str = "hung_node"

    def __post_init__(self) -> None:
        self.target = self.node

    def apply(self, m: "Machine") -> None:
        m.nodes.set_hung(self.node, True)
        m.emit_event(
            EventKind.CONSOLE, Severity.ERROR, self.node,
            "kernel: watchdog: BUG: soft lockup - CPU#3 stuck for 23s",
        )

    def revert(self, m: "Machine") -> None:
        m.nodes.set_hung(self.node, False)
        m.emit_event(
            EventKind.CONSOLE, Severity.NOTICE, self.node,
            "node recovered after warm reboot",
        )


@dataclass
class LoadImbalance(Fault):
    """Concentrate a running job's work onto a fraction of its ranks."""

    job_id: int | None = None      # None = largest running job at start
    frac_busy: float = 0.33
    wait_util: float = 0.15
    name: str = "load_imbalance"
    _job_ref: object = field(default=None, init=False, repr=False)

    def apply(self, m: "Machine") -> None:
        jobs = m.scheduler.running
        job = None
        if self.job_id is not None:
            job = next((j for j in jobs if j.id == self.job_id), None)
        elif jobs:
            job = max(jobs, key=lambda j: len(j.nodes))
        if job is None:
            return
        self._job_ref = job
        self.target = f"job.{job.id}"
        job.inject_imbalance(self.frac_busy, self.wait_util)

    def revert(self, m: "Machine") -> None:
        job = self._job_ref
        if job is not None:
            job.clear_imbalance()


@dataclass
class CorrosionExcursion(Fault):
    """Machine-room corrosive-gas excursion (ORNL sulfur scenario)."""

    rate: float = 1400.0   # A/month coupon rate; >> ASHRAE G1 limit
    name: str = "corrosion_excursion"

    def apply(self, m: "Machine") -> None:
        self.target = "room0"
        m.room.corrosion_rate = self.rate
        m.emit_event(
            EventKind.ENV, Severity.WARNING, "room0",
            f"corrosion coupon rate {self.rate:.0f} A/month exceeds "
            f"ASHRAE G1 severity",
        )

    def revert(self, m: "Machine") -> None:
        m.room.corrosion_rate = m.room.baseline_corrosion
        m.emit_event(
            EventKind.ENV, Severity.NOTICE, "room0",
            "corrosion coupon rate back within ASHRAE G1",
        )


@dataclass
class LinkFailure(Fault):
    """An HSN link fails; routes around it; recovery is delayed.

    Section III-A: "delays in recovery from HSN link failures may impact
    other components using the HSN" — while the link is out, traffic
    squeezes onto neighbors (captured naturally by rerouting), and the
    machine emits the cross-component event trail the correlation
    analysis stitches together.
    """

    link_index: int = 0
    name: str = "link_failure"

    def apply(self, m: "Machine") -> None:
        link = m.topo.link_by_index(self.link_index)
        self.target = link.name
        m.network.fail_link(self.link_index)
        m.emit_event(
            EventKind.NETWORK, Severity.ERROR, link.a,
            f"HSN link {link.name} ({link.klass}) failed: LCB lanes down",
            fields={"link_index": self.link_index, "peer": link.b},
        )
        m.emit_event(
            EventKind.NETWORK, Severity.WARNING, link.b,
            f"routing around failed link {link.name}; quiesce+reroute",
            fields={"link_index": self.link_index},
        )

    def revert(self, m: "Machine") -> None:
        link = m.topo.link_by_index(self.link_index)
        m.network.restore_link(self.link_index)
        m.emit_event(
            EventKind.NETWORK, Severity.NOTICE, link.a,
            f"HSN link {link.name} restored after maintenance",
            fields={"link_index": self.link_index},
        )


@dataclass
class BerDegradation(Fault):
    """A marginal cable's bit-error rate grows steadily (ALCF trend)."""

    link_index: int = 0
    decades_per_day: float = 1.0
    name: str = "ber_degradation"

    def apply(self, m: "Machine") -> None:
        link = m.topo.link_by_index(self.link_index)
        self.target = link.name
        m.network.start_ber_degradation(
            self.link_index, self.decades_per_day
        )

    def revert(self, m: "Machine") -> None:
        m.network.ber_growth[self.link_index] = 0.0


@dataclass
class SlowOst(Fault):
    """One OST degrades to a fraction of nominal bandwidth."""

    ost: int = 0
    bw_factor: float = 0.15
    name: str = "slow_ost"

    def apply(self, m: "Machine") -> None:
        self.target = f"{m.fs.name}-ost{self.ost}"
        m.fs.set_slow_ost(self.ost, self.bw_factor)
        m.emit_event(
            EventKind.FILESYSTEM, Severity.WARNING, self.target,
            f"ost{self.ost}: slow_io: request queue growing",
        )

    def revert(self, m: "Machine") -> None:
        m.fs.heal_ost(self.ost)


@dataclass
class MdsDegradation(Fault):
    """The metadata server degrades to a fraction of nominal op rate."""

    rate_factor: float = 0.2
    name: str = "mds_degradation"

    def apply(self, m: "Machine") -> None:
        self.target = f"{m.fs.name}-mds"
        m.fs.set_mds_degraded(self.rate_factor)

    def revert(self, m: "Machine") -> None:
        m.fs.set_mds_degraded(1.0)


@dataclass
class ServiceDeath(Fault):
    """An essential node daemon dies (LANL check target)."""

    node: str = ""
    service: str = "slurmd"
    name: str = "service_death"

    def __post_init__(self) -> None:
        self.target = f"{self.node}:{self.service}"

    def apply(self, m: "Machine") -> None:
        m.nodes.kill_service(self.node, self.service)
        m.emit_event(
            EventKind.CONSOLE, Severity.ERROR, self.node,
            f"systemd: {self.service}.service: main process exited",
        )

    def revert(self, m: "Machine") -> None:
        m.nodes.restore_service(self.node, self.service)


@dataclass
class MountLoss(Fault):
    """A node loses a required filesystem mount."""

    node: str = ""
    mount: str = "/scratch"
    name: str = "mount_loss"

    def __post_init__(self) -> None:
        self.target = f"{self.node}:{self.mount}"

    def apply(self, m: "Machine") -> None:
        m.nodes.drop_mount(self.node, self.mount)
        m.emit_event(
            EventKind.FILESYSTEM, Severity.ERROR, self.node,
            f"lustre: {self.mount}: connection to MDS lost, mount stale",
        )

    def revert(self, m: "Machine") -> None:
        m.nodes.restore_mount(self.node, self.mount)


@dataclass
class ConfigDrift(Fault):
    """A node's configuration silently diverges from the golden image
    (failed image push, manual tweak left behind) — the LANL
    configuration-verification target."""

    node: str = ""
    new_hash: int = 0xBAD
    name: str = "config_drift"

    def __post_init__(self) -> None:
        self.target = self.node

    def apply(self, m: "Machine") -> None:
        m.nodes.drift_config(self.node, self.new_hash)

    def revert(self, m: "Machine") -> None:
        m.nodes.restore_config(self.node)


@dataclass
class MemoryLeak(Fault):
    """System software leaks memory on a node (LANL free-memory check)."""

    node: str = ""
    gb_per_s: float = 0.02
    name: str = "memory_leak"

    def __post_init__(self) -> None:
        self.target = self.node

    def apply(self, m: "Machine") -> None:
        m.nodes.start_leak(self.node, self.gb_per_s)

    def revert(self, m: "Machine") -> None:
        m.nodes.stop_leak(self.node)


@dataclass
class QueueBlockage(Fault):
    """The scheduler stops launching (NERSC queue-fill anomaly)."""

    name: str = "queue_blockage"

    def apply(self, m: "Machine") -> None:
        self.target = "scheduler"
        m.scheduler.set_blocked(True)
        m.emit_event(
            EventKind.SCHEDULER, Severity.WARNING, "scheduler",
            "job launches suspended: prolog failures on multiple nodes",
        )

    def revert(self, m: "Machine") -> None:
        m.scheduler.set_blocked(False)
        m.emit_event(
            EventKind.SCHEDULER, Severity.NOTICE, "scheduler",
            "job launches resumed",
        )


@dataclass
class ThermalExcursion(Fault):
    """Machine-room cooling event: ambient temperature rises."""

    delta_c: float = 8.0
    name: str = "thermal_excursion"

    def apply(self, m: "Machine") -> None:
        self.target = "room0"
        m.room.ambient_c += self.delta_c
        m.emit_event(
            EventKind.ENV, Severity.WARNING, "room0",
            f"ambient temperature rose {self.delta_c:.1f} C: "
            f"chiller capacity reduced",
        )

    def revert(self, m: "Machine") -> None:
        m.room.ambient_c -= self.delta_c
        m.emit_event(
            EventKind.ENV, Severity.NOTICE, "room0",
            "ambient temperature back to setpoint",
        )


class FaultInjector:
    """Applies scheduled faults as time advances, against the machine
    (or, for monitor faults, the pipeline) passed to :meth:`step`."""

    def __init__(self, faults: list[Fault] | None = None) -> None:
        self.faults: list[Fault] = list(faults or [])

    def add(self, fault: Fault) -> Fault:
        self.faults.append(fault)
        return fault

    def step(self, m, now: float) -> None:
        for f in self.faults:
            if not f.applied and now >= f.start:
                f.apply(m)
                f.applied = True
            if (
                f.applied
                and not f.reverted
                and f.duration is not None
                and now >= f.start + f.duration
            ):
                f.revert(m)
                f.reverted = True

    def clear(self, m, fault: Fault) -> None:
        """Explicitly end an open-ended fault."""
        if fault.applied and not fault.reverted:
            fault.revert(m)
            fault.reverted = True

    def all_reverted(self) -> bool:
        """True when no applied fault is still in effect."""
        return all(f.reverted or not f.applied for f in self.faults)

    def ground_truth(self) -> list[dict]:
        """The injected-condition record tests compare detectors against."""
        return [
            {
                "name": f.name,
                "target": f.target,
                "start": f.start,
                "end": None if f.duration is None else f.start + f.duration,
                "applied": f.applied,
            }
            for f in self.faults
        ]
