"""Action execution: alerts and automated responses, with an audit trail.

Table I (*Response*): "Reporting and alerting capabilities should be
easily configurable ... able to be triggered based on arbitrary
locations in the data and analysis pathways", and responses like
"issuing an alert or marking a node as down" (Section III-C) plus the
envisioned richer ones ("downclocking components", power redirection).

:class:`ActionEngine` executes :class:`~repro.response.sec.ActionRequest`
records against the machine:

* ``alert``          — record + deduplicate an alert (no machine effect);
* ``drain_node``     — take the component out of scheduling;
* ``return_node``    — give it back;
* ``kill_jobs``      — fail whatever runs on the component;
* ``downclock``      — cap the node's p-state (thermal response);
* ``power_cap``      — cap a set of nodes for power redirection.

Every execution is counted, appended to a bounded audit log (the newest
:data:`AUDIT_RECORDS` records) and emitted back into the event stream as
an ``ACTION`` event, so responses are themselves monitorable (feedback
"to both humans and software").
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

from ..core.events import EventKind, Severity
from .sec import ActionRequest

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.machine import Machine

__all__ = ["AUDIT_RECORDS", "Alert", "AuditRecord", "AlertManager",
           "ActionEngine"]

#: audit records an engine keeps (the newest); ``executed`` counts all
AUDIT_RECORDS = 4096


@dataclass(frozen=True, slots=True)
class Alert:
    time: float
    severity: Severity
    component: str
    rule: str
    message: str


class AlertManager:
    """Alert intake with per-(rule, component) dedup and renotify."""

    def __init__(self, renotify_s: float = 3600.0) -> None:
        self.renotify_s = float(renotify_s)
        self.alerts: list[Alert] = []
        self.suppressed = 0
        self._last: dict[tuple[str, str], float] = {}

    def raise_alert(
        self,
        time: float,
        severity: Severity,
        component: str,
        rule: str,
        message: str,
    ) -> Alert | None:
        key = (rule, component)
        last = self._last.get(key)
        if last is not None and time - last < self.renotify_s:
            self.suppressed += 1
            return None
        self._last[key] = time
        alert = Alert(time, severity, component, rule, message)
        self.alerts.append(alert)
        return alert

    def active(self, min_severity: Severity = Severity.WARNING) -> list[Alert]:
        return [a for a in self.alerts if a.severity >= min_severity]


@dataclass(frozen=True, slots=True)
class AuditRecord:
    time: float
    action: str
    component: str
    rule: str
    outcome: str


class ActionEngine:
    """Executes action requests against a machine, with audit."""

    def __init__(
        self,
        machine: "Machine",
        alert_manager: AlertManager | None = None,
    ) -> None:
        self.machine = machine
        self.alerts = alert_manager or AlertManager()
        self.audit: deque[AuditRecord] = deque(maxlen=AUDIT_RECORDS)
        #: cumulative executions, including those rotated out of ``audit``
        self.executed = 0
        self._handlers: dict[str, Callable[[ActionRequest], str]] = {
            "alert": self._do_alert,
            "drain_node": self._do_drain,
            "return_node": self._do_return,
            "kill_jobs": self._do_kill_jobs,
            "downclock": self._do_downclock,
            "power_cap": self._do_downclock,   # same mechanism here
        }

    def register(self, action: str,
                 handler: Callable[[ActionRequest], str]) -> None:
        """Add a custom action (Table I extensibility requirement)."""
        self._handlers[action] = handler

    def execute(self, requests: Sequence[ActionRequest]) -> list[AuditRecord]:
        done: list[AuditRecord] = []
        try:
            for req in requests:
                handler = self._handlers.get(req.action)
                if handler is None:
                    outcome = f"unknown action {req.action!r}"
                else:
                    outcome = handler(req)
                rec = AuditRecord(
                    req.time, req.action, req.component, req.rule, outcome
                )
                done.append(rec)
                if req.action != "alert":
                    # actions are themselves observable telemetry
                    self.machine.emit_event(
                        EventKind.ACTION,
                        Severity.NOTICE,
                        req.component,
                        f"action {req.action} by rule {req.rule}: {outcome}",
                        fields={"rule": req.rule, "action": req.action},
                    )
        finally:
            # what ran is audited even when a handler raises
            self.audit.extend(done)
            self.executed += len(done)
        return done

    # -- handlers ------------------------------------------------------------------

    def _do_alert(self, req: ActionRequest) -> str:
        alert = self.alerts.raise_alert(
            req.time, req.severity, req.component, req.rule, req.message
        )
        return "alert raised" if alert else "alert suppressed (dedup)"

    def _node_exists(self, component: str) -> bool:
        return component in self.machine.nodes.index

    def _do_drain(self, req: ActionRequest) -> str:
        if not self._node_exists(req.component):
            return f"not a node: {req.component}"
        self.machine.scheduler.drain_node(req.component)
        return "node drained"

    def _do_return(self, req: ActionRequest) -> str:
        if not self._node_exists(req.component):
            return f"not a node: {req.component}"
        self.machine.scheduler.return_node(req.component)
        return "node returned to service"

    def _do_kill_jobs(self, req: ActionRequest) -> str:
        if not self._node_exists(req.component):
            return f"not a node: {req.component}"
        victims = self.machine.scheduler.kill_jobs_on_node(
            req.component, self.machine.now
        )
        return f"killed {len(victims)} job(s)"

    def _do_downclock(self, req: ActionRequest) -> str:
        if not self._node_exists(req.component):
            return f"not a node: {req.component}"
        frac = float(req.fields.get("pstate_frac", 0.7))
        i = self.machine.nodes.idx(req.component)
        self.machine.nodes.pstate_frac[i] = frac
        return f"pstate capped to {frac:g}"
