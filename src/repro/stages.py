"""Pipeline stages: the tick loop's work units as swappable objects.

``MonitoringPipeline.step()`` used to inline every stage of the data
path; each is now a :class:`Stage` — a named object whose ``run``
advances one plane of the monitoring system for one tick and returns
any :class:`~repro.response.sec.ActionRequest`\\ s it raised (the
streaming and analysis-hook stages: ``(rule prefix,``
:class:`~repro.analysis.anomaly.DetectionBatch` ``)`` pairs).
The tick loop reduces to "iterate stages under trace spans", so stages are
individually testable, reorderable, and replaceable (Table I:
"Extensibility and modularity are fundamental").  Each stage's name is
the per-tick child span the introspector reports a timing row for.

Stages that publish onto the transport end by :meth:`~repro.transport.base.Transport.pump`\\ ing
it, so deferred transports (partitioned bus, aggregator tree) deliver
what is due before downstream stages read the stores.  This module
must never import :mod:`repro.pipeline` at runtime — the import-cycle
gate in ``scripts/check.py`` enforces that the extraction stays acyclic.
"""

from __future__ import annotations

import logging
import math
from typing import TYPE_CHECKING, Protocol, Sequence, runtime_checkable

from .core.events import Event, EventKind, Severity
from .core.lifecycle import Health

if TYPE_CHECKING:  # pragma: no cover
    from .pipeline import AnalysisHook, MonitoringPipeline
    from .response.actions import QueuedBatch
    from .response.sec import ActionRequest

_log = logging.getLogger(__name__)

__all__ = [
    "Stage",
    "EventPlaneStage",
    "MetricPlaneStage",
    "JobTrackingStage",
    "StreamingStage",
    "AnalysisHooksStage",
    "SupervisionStage",
    "FreshnessStage",
    "ResponseStage",
    "SelfMonStage",
    "TickLoop",
    "default_stages",
]


@runtime_checkable
class Stage(Protocol):
    """One plane of the monitoring system, advanced once per tick.

    The tick runs the pipeline's stages in list order, so a stage comes
    after every stage whose data it consumes (:func:`default_stages`
    lists the data path in that order).
    """

    name: str

    def run(
        self, pipeline: "MonitoringPipeline", now: float
    ) -> Sequence["ActionRequest | QueuedBatch"]:
        """Advance this stage; returned requests flow to the response
        stage at the end of the same tick."""
        ...


class TickLoop:
    """The tick body: one machine step, then every stage in order, all
    in the calling thread.

    ``parallel``, :meth:`shutdown` and :meth:`snapshot` are constants:
    nothing runs on a worker thread, so there is no pool to release and
    no barrier to wait at.  The benchmark harness under ``bench/``
    still reads them.
    """

    parallel = False

    def run_tick(self, pipeline: "MonitoringPipeline", dt: float) -> None:
        """Advance the machine one tick and run the monitoring plane.

        Every tick opens a root ``tick`` span and iterates the
        stage list in order, one child span per stage, so
        the introspector can attribute wall time to exactly the stage
        that spent it.  Requests returned by a stage accumulate and are
        executed by the response stage at its position in the order.

        A raising stage degrades the tick instead of killing it: the
        exception is logged and recorded with the supervisor, whose
        breaker quarantines a repeat offender under backoff.
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
                key = keys.get(stage.name)
                if key is None:
                    key = keys[stage.name] = "stage:" + stage.name
                if not sup.should_run(key, now):
                    continue   # quarantined: degrade the tick
                with tracer.span(stage.name):
                    try:
                        raised = stage.run(pipeline, now)
                    except Exception as exc:
                        _log.warning("stage %r raised during tick: %r",
                                     stage.name, exc, exc_info=True)
                        sup.record(key, False, now,
                                   reason=f"raised {type(exc).__name__}")
                        continue
                    sup.record(key, True, now)
                    if raised:
                        pending.extend(raised)

    def shutdown(self) -> None:
        """Nothing to release."""

    def snapshot(self) -> dict[str, float]:
        """Nothing ever waits at a barrier."""
        return {"barrier_wait_ms": 0.0}


class EventPlaneStage:
    """Machine events -> router -> decoded -> log store + SEC."""

    name = "event-plane"

    def run(self, pipeline, now):
        pipeline.router.pump(pipeline.machine)
        fresh = pipeline.tap.drain()
        for ev in fresh:
            pipeline.bus.publish(f"events.{ev.kind.value}", ev, source="erd")
        pipeline.bus.pump(now)
        requests = pipeline.sec.feed(fresh)
        requests += pipeline.sec.tick(now)
        return requests


class MetricPlaneStage:
    """Due collectors sweep the machine; their events also feed the SEC
    rules — "triggered based on arbitrary locations in the data and
    analysis pathways" (Table I)."""

    name = "metric-plane"

    def run(self, pipeline, now):
        collected = pipeline.scheduler.poll(
            pipeline.machine, now, tick=pipeline.ticks
        )
        pipeline.bus.pump(now)
        if collected.events:
            return pipeline.sec.feed(collected.events)
        return ()


class JobTrackingStage:
    """Job tenancy: start/end records into the job index + SQL store."""

    name = "job-tracking"

    def __init__(self) -> None:
        self._tracked: set[int] = set()
        self._done: set[int] = set()

    def run(self, pipeline, now):
        sched = pipeline.machine.scheduler
        for job in sched.running:
            if job.id not in self._tracked and job.start_time is not None:
                pipeline.jobs.record_start(
                    job.id, job.app.name, job.nodes, job.start_time,
                    user=job.user,
                )
                pipeline.sql.upsert_job(
                    job.id, job.app.name, job.n_nodes, job.submit_time,
                    "running", start_time=job.start_time, nodes=job.nodes,
                )
                self._tracked.add(job.id)
        for job in sched.completed:
            if job.id in self._done:
                continue
            if job.id not in self._tracked and job.start_time is not None:
                pipeline.jobs.record_start(
                    job.id, job.app.name, job.nodes, job.start_time,
                    user=job.user,
                )
                self._tracked.add(job.id)
            if job.id in self._tracked and job.end_time is not None:
                pipeline.jobs.record_end(job.id, job.end_time)
                pipeline.sql.upsert_job(
                    job.id, job.app.name, job.n_nodes, job.submit_time,
                    job.state.value, start_time=job.start_time,
                    end_time=job.end_time, nodes=job.nodes,
                )
                self._done.add(job.id)
                # CSCS post-job check: when a health gate is installed,
                # every finished job's nodes are re-validated and
                # failures drained before anything else lands on them
                gate = getattr(pipeline, "health_gate", None)
                if gate is not None:
                    gate.post_job(job)
        return ()


class StreamingStage:
    """Streaming detectors saw the sweeps at ingest; drain them now.

    Detectors self-report (batches/samples consumed, detections,
    sweep-latency histogram — see ``_BusAttached``); the selfmon plane
    reads those counters off this stage's ``detectors`` list to emit
    the ``selfmon.analysis.*`` gauges.
    """

    name = "streaming"

    def __init__(self) -> None:
        self.detectors: list = []

    def detector(self, name: str):
        """Look up an installed detector by its (uniquified) name."""
        for det in self.detectors:
            if getattr(det, "name", None) == name:
                return det
        raise KeyError(
            f"no streaming detector named {name!r}; installed: "
            f"{[getattr(d, 'name', type(d).__name__) for d in self.detectors]}"
        )

    def run(self, pipeline, now):
        batches: list[QueuedBatch] = []
        for det in self.detectors:
            drain = getattr(det, "drain", None)
            if drain is not None:
                batches += [("stream", b) for b in drain()]
        return batches


class AnalysisHooksStage:
    """User-supplied analyses on their cadence over the live stores.

    Rescheduling is phase-locked: a hook due at ``next_due`` that fires
    on a late tick reschedules from the *due time* (``next_due +
    k*interval``, skipping missed slots), not from ``now`` — so long-run
    figure scripts keep their cadence phase no matter how late the
    ticks land.
    """

    name = "analysis-hooks"

    def __init__(self) -> None:
        self.hooks: list[tuple[float, float, "AnalysisHook"]] = []

    def add(self, interval_s: float, hook: "AnalysisHook") -> None:
        if not (interval_s > 0 and math.isfinite(interval_s)):
            raise ValueError(
                f"interval_s must be positive and finite, got {interval_s!r}")
        self.hooks.append((float(interval_s), 0.0, hook))

    def run(self, pipeline, now):
        batches: list[QueuedBatch] = []
        for i, (interval, next_due, hook) in enumerate(self.hooks):
            if now + 1e-9 < next_due:
                continue
            batches += [("stat", b) for b in hook(pipeline, now) if len(b)]
            # reschedule strictly forward from the DUE time, skipping
            # missed slots — never from `now`, which would drift phase
            while next_due <= now + 1e-9:
                next_due += interval
            self.hooks[i] = (interval, next_due, hook)
        return batches


def _escalate(pipeline, now, source, alerts):
    """Escalate monitor trouble exactly like machine trouble: one HEALTH
    event per ``(severity, component, message, fields)`` alert,
    published on ``events.health`` from ``source``, delivered, and fed
    to the SEC.  Returns the SEC's requests (none for no alerts)."""
    if not alerts:
        return ()
    events = [Event(time=now, kind=EventKind.HEALTH, severity=severity,
                    component=component, message=message, fields=fields)
              for severity, component, message, fields in alerts]
    for ev in events:
        pipeline.bus.publish(f"events.{EventKind.HEALTH.value}", ev,
                             source=source)
    pipeline.bus.pump(now)
    return pipeline.sec.feed(events)


class SupervisionStage:
    """The monitoring system watching its own planes.

    Each tick it (1) derives transport and store health from their own
    stats surfaces — new drops or delivery errors since the last tick
    degrade the component, with heal hysteresis in the supervisor —
    and (2) turns every fresh health transition (including those the
    scheduler and stage guards recorded earlier in the tick) into an
    :class:`~repro.core.events.Event` on the bus and into the SEC, so
    monitor self-degradation escalates exactly like machine trouble
    (Table I: the monitoring system must not fail silently).
    """

    name = "supervision"

    def __init__(self) -> None:
        self._last_drops = 0
        self._last_errors = 0
        self._seen_transitions = 0

    def run(self, pipeline, now):
        sup = pipeline.supervisor

        # transport health from its own delivery accounting
        stats = pipeline.bus.stats()
        drops, errors = stats.dropped, stats.errors
        if drops > self._last_drops or errors > self._last_errors:
            sup.observe(
                "transport", Health.DEGRADED, now,
                reason=(f"+{drops - self._last_drops} drops, "
                        f"+{errors - self._last_errors} errors"),
            )
        else:
            sup.observe("transport", Health.OK, now)
        self._last_drops, self._last_errors = drops, errors

        # store health: per-shard when the store is sharded
        shard_health = getattr(pipeline.tsdb, "shard_health", None)
        if shard_health is not None:
            states = shard_health()
            for i, h in enumerate(states):
                sup.observe(f"store:shard-{i}", h, now,
                            reason="shard outage" if h is not Health.OK
                            else "")
            if any(h is not Health.OK for h in states):
                sup.observe("store", Health.DEGRADED, now,
                            reason="shard outage")
            else:
                sup.observe("store", Health.OK, now)
        else:
            sup.observe("store", Health.OK, now)

        # every fresh transition -> HEALTH event on the bus + SEC feed
        fresh = sup.transitions[self._seen_transitions:]
        self._seen_transitions = len(sup.transitions)
        return _escalate(pipeline, now, "supervision", [
            (Severity.ERROR if tr.new.code > tr.old.code
             else Severity.NOTICE,
             f"monitor:{tr.component}", tr.describe(), {})
            for tr in fresh
        ])


class FreshnessStage:
    """Freshness SLO burn evaluation -> breach events -> SEC.

    The :class:`~repro.obs.freshness.FreshnessTracker` folded every
    traced batch at ingest; this stage asks it for newly fired breaches
    and publishes each as a HEALTH event whose message carries the
    worst exemplar (hop vector + offending hop), so the SEC escalation
    names exactly where the latency lives.  Runs after supervision
    (breaches often co-occur with component degradation) and before the
    response stage, so a breach alerts in the same tick it fires.
    """

    name = "freshness"

    def run(self, pipeline, now):
        return _escalate(pipeline, now, "freshness", [
            (Severity.ERROR, f"monitor:freshness:{b.slo.name}",
             b.describe(), b.fields())
            for b in pipeline.freshness.evaluate(now)
        ])


class ResponseStage:
    """Execute every request the earlier stages raised this tick."""

    name = "response"

    def run(self, pipeline, now):
        requests = pipeline.take_pending()
        if requests:
            pipeline.actions.execute(requests)
        return ()


class SelfMonStage:
    """The stack's own vitals, on their cadence, into the same bus."""

    name = "selfmon"

    def run(self, pipeline, now):
        pipeline.selfmon.maybe_emit(now)
        pipeline.bus.pump(now)
        return ()


def default_stages() -> list[Stage]:
    """The full data path in Table I order."""
    return [
        EventPlaneStage(),
        MetricPlaneStage(),
        JobTrackingStage(),
        StreamingStage(),
        AnalysisHooksStage(),
        SupervisionStage(),
        FreshnessStage(),
        ResponseStage(),
        SelfMonStage(),
    ]
