"""Node health checks: the LANL periodic suite and the CSCS job gate.

LANL (Section II-1): system-wide custom tests every 10 minutes —
configurations, "verification that essential services and daemons are
functional, including filesystem mounts; and ensuring there is an
appropriate amount of free memory on compute nodes".

CSCS (Section II-5): "no job should start on a node with a problem, and
a problem should only be encountered by at most one batch job – the job
that was running when the problem first occurred."  The test suite runs
before and after each job; failing nodes are replaced (pre) or drained
(post).

:class:`NodeHealthSuite` implements the checks and doubles as the
periodic LANL-style collector; :class:`HealthGate` wires the suite into
the scheduler as the CSCS pre/post-job policy.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..cluster.node import ESSENTIAL_MOUNTS, ESSENTIAL_SERVICES
from ..core.events import Event, EventKind, Severity
from ..core.metric import SeriesBatch
from .base import Collector, CollectorOutput

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.machine import Machine
    from ..cluster.workload import Job

__all__ = [
    "CheckResult",
    "HealthCheck",
    "ConfigCheck",
    "ServiceCheck",
    "MountCheck",
    "FreeMemoryCheck",
    "ResponsivenessCheck",
    "GpuCheck",
    "ClockSyncCheck",
    "NodeHealthSuite",
    "HealthGate",
    "default_checks",
]


@dataclass(frozen=True, slots=True)
class CheckResult:
    check: str
    node: str
    passed: bool
    detail: str = ""


class HealthCheck(abc.ABC):
    """One per-node health predicate."""

    name: str = "check"

    @abc.abstractmethod
    def check(self, machine: "Machine", node: str) -> CheckResult:
        ...


class ServiceCheck(HealthCheck):
    """All essential daemons running (LANL)."""

    name = "services"

    def check(self, machine, node):
        n = machine.nodes.node(node)
        dead = [s for s in ESSENTIAL_SERVICES if not n.service_ok(s)]
        return CheckResult(
            self.name, node, not dead,
            f"dead: {','.join(dead)}" if dead else "",
        )


class MountCheck(HealthCheck):
    """All required filesystem mounts present (LANL)."""

    name = "mounts"

    def check(self, machine, node):
        n = machine.nodes.node(node)
        missing = [m for m in ESSENTIAL_MOUNTS if not n.mount_ok(m)]
        return CheckResult(
            self.name, node, not missing,
            f"missing: {','.join(missing)}" if missing else "",
        )


class FreeMemoryCheck(HealthCheck):
    """Appropriate free memory on compute nodes (LANL)."""

    name = "free_memory"

    def __init__(self, min_free_gb: float = 4.0) -> None:
        self.min_free_gb = float(min_free_gb)

    def check(self, machine, node):
        free = machine.nodes.node(node).mem_free_gb
        ok = free >= self.min_free_gb
        return CheckResult(
            self.name, node, ok,
            "" if ok else f"free {free:.1f} GiB < {self.min_free_gb} GiB",
        )


class ResponsivenessCheck(HealthCheck):
    """Node answers at all (hung/down detection)."""

    name = "responsive"

    def check(self, machine, node):
        n = machine.nodes.node(node)
        if not n.up:
            return CheckResult(self.name, node, False, "node down")
        if n.hung:
            return CheckResult(self.name, node, False, "node hung")
        return CheckResult(self.name, node, True)


class GpuCheck(HealthCheck):
    """GPU present and healthy (CSCS's Piz Daint GPU validation)."""

    name = "gpu"

    def check(self, machine, node):
        gpus = machine.gpus
        if gpus is None or node not in gpus.index:
            return CheckResult(self.name, node, True, "no gpu")
        i = gpus.index[node]
        if gpus.failed[i]:
            return CheckResult(self.name, node, False, "gpu failed")
        if gpus.ecc_dbe[i] > 0:
            return CheckResult(
                self.name, node, False,
                f"gpu reporting {int(gpus.ecc_dbe[i])} DBE ECC errors",
            )
        return CheckResult(self.name, node, True)


class ConfigCheck(HealthCheck):
    """Node configuration matches the fleet majority (LANL verifies
    "configurations (e.g. on burst buffer nodes)" every 10 minutes).

    The golden reference is the fleet's modal fingerprint, so the check
    needs no externally maintained truth — a lone drifted node stands
    out, and a fleet-wide (intentional) change is quiet.
    """

    name = "config"

    def check(self, machine, node):
        hashes = machine.nodes.config_hash
        values, counts = np.unique(hashes, return_counts=True)
        golden = int(values[counts.argmax()])
        mine = int(hashes[machine.nodes.idx(node)])
        ok = mine == golden
        return CheckResult(
            self.name, node, ok,
            "" if ok else f"config {mine:#x} != fleet golden {golden:#x}",
        )


class ClockSyncCheck(HealthCheck):
    """Local clock within tolerance of the global timebase."""

    name = "clock_sync"

    def __init__(self, max_offset_s: float = 1.0) -> None:
        self.max_offset_s = float(max_offset_s)

    def check(self, machine, node):
        err = abs(machine.node_clocks[node].error_at(machine.now))
        ok = err <= self.max_offset_s
        return CheckResult(
            self.name, node, ok,
            "" if ok else f"clock off by {err:.3f}s",
        )


def default_checks() -> list[HealthCheck]:
    return [
        ResponsivenessCheck(),
        ServiceCheck(),
        MountCheck(),
        FreeMemoryCheck(),
        GpuCheck(),
        ClockSyncCheck(),
        ConfigCheck(),
    ]


class NodeHealthSuite(Collector):
    """System-wide periodic health sweep (LANL 10-minute suite)."""

    metrics = ("health.pass_frac",)

    def __init__(
        self,
        checks: Sequence[HealthCheck] | None = None,
        interval_s: float = 600.0,
    ) -> None:
        super().__init__("node_health", interval_s)
        self.checks = list(checks) if checks is not None else default_checks()

    def run_node(self, machine: "Machine", node: str) -> list[CheckResult]:
        return [c.check(machine, node) for c in self.checks]

    def node_passes(self, machine: "Machine", node: str) -> bool:
        return all(r.passed for r in self.run_node(machine, node))

    def collect(self, machine: "Machine", now: float) -> CollectorOutput:
        fracs = np.empty(len(machine.nodes))
        out = CollectorOutput()
        for i, node in enumerate(machine.nodes.names):  # per-sample: allowed (checks run per node)
            results = self.run_node(machine, node)
            passed = sum(r.passed for r in results)
            fracs[i] = passed / len(results)
            for r in results:
                if not r.passed:
                    out.events.append(
                        Event(
                            time=now,
                            component=node,
                            kind=EventKind.HEALTH,
                            severity=Severity.WARNING,
                            message=(
                                f"health check {r.check} FAILED on {node}: "
                                f"{r.detail}"
                            ),
                            fields={"check": r.check, "detail": r.detail},
                        )
                    )
        out.batches.append(SeriesBatch.sweep(
            "health.pass_frac", now, machine.nodes.name_column, fracs))
        return out


class HealthGate:
    """CSCS policy: gate job starts on health; drain failures post-job.

    * Wire :meth:`gate` as the scheduler's ``health_gate`` so "no job
      should start on a node with a problem".
    * Call :meth:`post_job` when a job ends; nodes failing the suite are
      drained for "further testing and possible repair", so "a problem
      should only be encountered by at most one batch job".
    """

    def __init__(
        self,
        machine: "Machine",
        suite: NodeHealthSuite | None = None,
    ) -> None:
        self.machine = machine
        self.suite = suite or NodeHealthSuite()
        self.pre_rejections = 0
        self.drained: list[str] = []

    def gate(self, node: str) -> bool:
        ok = self.suite.node_passes(self.machine, node)
        if not ok:
            self.pre_rejections += 1
        return ok

    def post_job(self, job: "Job") -> list[str]:
        """Run the suite on a finished job's nodes; drain the failures."""
        bad: list[str] = []
        for node in job.nodes:
            if not self.suite.node_passes(self.machine, node):
                self.machine.scheduler.drain_node(node)
                self.machine.emit_event(
                    EventKind.HEALTH,
                    Severity.WARNING,
                    node,
                    f"post-job health check failed after job {job.id}; "
                    f"node drained for repair",
                    fields={"job_id": job.id},
                )
                bad.append(node)
        self.drained.extend(bad)
        return bad

    def repair_and_return(self, node: str) -> None:
        """Operator path: repaired node returns to service."""
        self.machine.scheduler.return_node(node)
        if node in self.drained:
            self.drained.remove(node)
