"""Action execution: alerts and automated responses, with an audit trail.

Table I (*Response*): "Reporting and alerting capabilities should be
easily configurable ... able to be triggered based on arbitrary
locations in the data and analysis pathways", and responses like
"issuing an alert or marking a node as down" (Section III-C) plus the
envisioned richer ones ("downclocking components", power redirection).

:class:`ActionEngine` executes :class:`~repro.response.sec.ActionRequest`
records against the machine:

* ``alert``          — record + deduplicate an alert (no machine effect);
  every detector's :class:`~repro.analysis.anomaly.DetectionBatch`\\ es
  are alerts too, deduplicated as columns;
* ``drain_node``     — take the component out of scheduling;
* ``return_node``    — give it back;
* ``kill_jobs``      — fail whatever runs on the component;
* ``downclock``      — cap the node's p-state (thermal response);
* ``power_cap``      — cap a set of nodes for power redirection.

Every execution is counted.  A raised alert and every other action is
appended to a bounded audit log (the newest :data:`AUDIT_RECORDS`
records) — a suppressed duplicate is only counted — and every action
but an alert is emitted back into the event stream as an ``ACTION``
event, so responses are themselves monitorable (feedback "to both
humans and software").
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from ..analysis.anomaly import DetectionBatch
from ..core.events import EventKind, Severity
from ..core.soa import ComponentTable
from .sec import ActionRequest

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.machine import Machine

__all__ = ["AUDIT_RECORDS", "Alert", "AuditRecord", "AlertManager",
           "ActionEngine", "QueuedBatch"]

#: audit records an engine keeps (the newest); ``executed`` counts all
AUDIT_RECORDS = 4096

_RAISED = "alert raised"

#: a detector's hits as a stage queues them: ``(rule prefix, batch)``
QueuedBatch = tuple[str, DetectionBatch]


@dataclass(frozen=True, slots=True)
class Alert:
    time: float
    severity: Severity
    component: str
    rule: str
    message: str


class AlertManager:
    """Alert intake with per-(rule, component) dedup and renotify.

    The dedup state is columnar: one component -> row
    :class:`~repro.core.soa.ComponentTable` shared by every rule, and
    per rule one column of last-raised times (``-inf``: never raised).
    :meth:`raise_alert` reads and writes one cell; :meth:`raise_batch`
    dedups a :class:`DetectionBatch` of distinct components (a sweep's)
    with one row lookup, one mask and one scatter, and one that repeats
    a component (a series') hit by hit, and builds :class:`Alert`\\ s
    only for what it raises.
    """

    def __init__(self, renotify_s: float = 3600.0) -> None:
        self.renotify_s = float(renotify_s)
        self.alerts: list[Alert] = []
        self.suppressed = 0
        self._rows = ComponentTable()
        self._raised_at: dict[str, np.ndarray] = {}

    def _column(self, rule: str) -> np.ndarray:
        """``rule``'s last-raised times, one per table row."""
        col = self._raised_at.get(rule)
        have, n = (0 if col is None else len(col)), self._rows.size
        if have < n:
            # a fleet registers whole: its column is sized to it once
            grown = np.full(max(n, 2 * have), -np.inf)
            if have:
                grown[:have] = col
            col = self._raised_at[rule] = grown
        return col

    def raise_alert(
        self,
        time: float,
        severity: Severity,
        component: str,
        rule: str,
        message: str,
    ) -> Alert | None:
        r = self._rows.add(component)
        col = self._column(rule)
        # as Python floats: a -inf time against the never-raised -inf
        # is a quiet NaN gap, which raises
        if float(time) - float(col[r]) < self.renotify_s:
            self.suppressed += 1
            return None
        col[r] = time
        alert = Alert(time, severity, component, rule, message)
        self.alerts.append(alert)
        return alert

    def raise_batch(self, batch: DetectionBatch, rule: str) -> list[Alert]:
        """Every hit of ``batch`` as a warning alert under ``rule``, in
        batch order: exactly what :meth:`raise_alert` per hit would
        raise and suppress, messages included."""
        rows, unique = self._rows.rows(batch.components)
        hit = (batch.at + rows.start if isinstance(rows, slice)
               else rows[batch.at])
        col = self._column(rule)
        t = batch.times
        if unique:
            # written as the scalar test's negation: a NaN gap raises
            with np.errstate(over="ignore", invalid="ignore"):
                keep = ~(t - col[hit] < self.renotify_s)
            col[hit[keep]] = t[keep]
        else:
            # a repeated component (every series detector's batch) chains
            # through its own raises: its hits apply one by one, in batch
            # order, with :meth:`raise_alert`'s Python-float test
            keep = np.zeros(len(hit), dtype=bool)
            for j, (r, ti) in enumerate(zip(hit.tolist(), t.tolist())):  # per-sample: allowed
                if not ti - float(col[r]) < self.renotify_s:
                    col[r] = ti
                    keep[j] = True
        raised = np.flatnonzero(keep)
        self.suppressed += len(hit) - len(raised)
        metric, kind = batch.metric, batch.kind
        comps = batch.components[batch.at[raised]].tolist()
        new = [
            Alert(ti, Severity.WARNING, c, rule,
                  f"{metric} {kind} on {c}: {batch.detail(j)}")
            for j, ti, c in zip(raised.tolist(), t[raised].tolist(),
                                map(str, comps))  # per-sample: allowed
        ]
        self.alerts += new
        return new

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
        self._handlers: dict[str, Callable[[ActionRequest], str | None]] = {
            "alert": self._do_alert,
            "drain_node": self._do_drain,
            "return_node": self._do_return,
            "kill_jobs": self._do_kill_jobs,
            "downclock": self._do_downclock,
            "power_cap": self._do_downclock,   # same mechanism here
        }

    def register(self, action: str,
                 handler: Callable[[ActionRequest], str | None]) -> None:
        """Add a custom action (Table I extensibility requirement)."""
        self._handlers[action] = handler

    def execute(
        self, requests: Sequence[ActionRequest | QueuedBatch]
    ) -> list[AuditRecord]:
        """Run ``requests`` in order; returns what was audited.  A
        ``(prefix, batch)`` pair is a detector's hits, queued by a stage
        that names them with ``prefix``: every row is an executed
        warning alert under ``<prefix>.<metric>.<kind>``."""
        done: list[AuditRecord] = []
        try:
            for req in requests:
                if isinstance(req, tuple):
                    prefix, batch = req
                    rule = f"{prefix}.{batch.metric}.{batch.kind}"
                    done += [
                        AuditRecord(a.time, "alert", a.component, rule,
                                    _RAISED)
                        for a in self.alerts.raise_batch(batch, rule)
                    ]
                    self.executed += len(batch)
                    continue
                handler = self._handlers.get(req.action)
                if handler is None:
                    outcome = f"unknown action {req.action!r}"
                else:
                    outcome = handler(req)
                self.executed += 1
                if outcome is None:
                    continue    # a suppressed duplicate: counted only
                done.append(AuditRecord(
                    req.time, req.action, req.component, req.rule, outcome
                ))
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
        return done

    # -- handlers ------------------------------------------------------------------

    def _do_alert(self, req: ActionRequest) -> str | None:
        alert = self.alerts.raise_alert(
            req.time, req.severity, req.component, req.rule, req.message
        )
        return _RAISED if alert else None

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
