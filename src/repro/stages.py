"""Pipeline stages: the tick loop's work units as swappable objects.

``MonitoringPipeline.step()`` used to inline every stage of the data
path; each is now a :class:`Stage` — a named object whose ``run``
advances one plane of the monitoring system for one tick and returns
any :class:`~repro.response.sec.ActionRequest`\\ s it raised.  The tick
loop reduces to "iterate stages under trace spans", so stages are
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

from typing import TYPE_CHECKING, Protocol, Sequence, runtime_checkable

from .core.events import Event, EventKind, Severity
from .core.lifecycle import Health
from .response.policy import detections_to_requests
from .response.sec import ActionRequest

if TYPE_CHECKING:  # pragma: no cover
    from .pipeline import AnalysisHook, MonitoringPipeline

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
    "default_stages",
    "schedule_stages",
]


@runtime_checkable
class Stage(Protocol):
    """One plane of the monitoring system, advanced once per tick.

    Stages additionally carry two declarative class attributes the
    scheduler reads (both optional — absent attributes default to a
    plane named after the stage with no dependencies):

    ``plane``
        which data plane the stage belongs to; stages on the same
        plane share a worker affinity under parallel executors.

    ``after``
        names of stages whose data this stage consumes.  The tick
        order is *derived* from these edges by :func:`schedule_stages`
        (declaration order breaks ties), not hand-maintained.
    """

    name: str

    def run(
        self, pipeline: "MonitoringPipeline", now: float
    ) -> Sequence[ActionRequest]:
        """Advance this stage; returned requests flow to the response
        stage at the end of the same tick."""
        ...


def schedule_stages(stages: Sequence[Stage]) -> list[Stage]:
    """Topologically order ``stages`` by their declared ``after`` edges.

    Kahn's algorithm with declaration order as the tie-break, so a
    dependency-complete stage set (like :func:`default_stages`)
    schedules into exactly the order operators are used to reading in
    the tick trace.  Edges naming stages that are not installed are
    ignored — removing a plane must not wedge the ones that remain.
    A dependency cycle is a configuration error and raises
    ``ValueError`` naming the stages involved.
    """
    names = [s.name for s in stages]
    present = set(names)
    if len(present) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise ValueError(f"duplicate stage names: {dupes}")
    deps = {
        s.name: [d for d in getattr(s, "after", ()) if d in present]
        for s in stages
    }
    ordered: list[Stage] = []
    placed: set[str] = set()
    remaining = list(stages)
    while remaining:
        for i, s in enumerate(remaining):
            if all(d in placed for d in deps[s.name]):
                ordered.append(s)
                placed.add(s.name)
                del remaining[i]
                break
        else:
            stuck = sorted(s.name for s in remaining)
            raise ValueError(f"stage dependency cycle among: {stuck}")
    return ordered


class EventPlaneStage:
    """Machine events -> router -> decoded -> log store + SEC."""

    name = "event-plane"
    plane = "events"
    after: tuple[str, ...] = ()

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
    plane = "metrics"
    after = ("event-plane",)

    def run(self, pipeline, now):
        ex = getattr(pipeline, "executor", None)
        if ex is not None and ex.parallel:
            collected = pipeline.parallel_sweep(now, ex)
        else:
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
    plane = "jobs"
    after: tuple[str, ...] = ()

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
    plane = "analysis"
    after = ("metric-plane",)

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
        requests: list[ActionRequest] = []
        for det in self.detectors:
            drain = getattr(det, "drain", None)
            if drain is not None:
                found = drain()
                if found:
                    requests += detections_to_requests(
                        list(found), rule_prefix="stream"
                    )
        return requests


class AnalysisHooksStage:
    """User-supplied analyses on their cadence over the live stores.

    Rescheduling is phase-locked: a hook due at ``next_due`` that fires
    on a late tick reschedules from the *due time* (``next_due +
    k*interval``, skipping missed slots), not from ``now`` — so long-run
    figure scripts keep their cadence phase no matter how late the
    ticks land.
    """

    name = "analysis-hooks"
    plane = "analysis"
    after = ("metric-plane", "job-tracking")

    def __init__(self) -> None:
        self.hooks: list[tuple[float, float, "AnalysisHook"]] = []

    def add(self, interval_s: float, hook: "AnalysisHook") -> None:
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        self.hooks.append((float(interval_s), 0.0, hook))

    def run(self, pipeline, now):
        requests: list[ActionRequest] = []
        for i, (interval, next_due, hook) in enumerate(self.hooks):
            if now + 1e-9 < next_due:
                continue
            detections = hook(pipeline, now)
            if detections:
                requests += detections_to_requests(list(detections))
            # reschedule strictly forward from the DUE time, skipping
            # missed slots — never from `now`, which would drift phase
            while next_due <= now + 1e-9:
                next_due += interval
            self.hooks[i] = (interval, next_due, hook)
        return requests


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
    plane = "control"
    after = ("event-plane", "metric-plane")

    def __init__(self) -> None:
        self._last_drops = 0
        self._last_errors = 0
        self._seen_transitions = 0

    def run(self, pipeline, now):
        sup = pipeline.supervisor
        if sup is None:
            return ()

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
        if not fresh:
            return ()
        events = []
        for tr in fresh:
            worse = tr.new.code > tr.old.code
            events.append(Event(
                time=now,
                kind=EventKind.HEALTH,
                severity=Severity.ERROR if worse else Severity.NOTICE,
                component=f"monitor:{tr.component}",
                message=tr.describe(),
            ))
        for ev in events:
            pipeline.bus.publish(f"events.{ev.kind.value}", ev,
                                 source="supervision")
        pipeline.bus.pump(now)
        return pipeline.sec.feed(events)


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
    plane = "control"
    after = ("metric-plane", "supervision")

    def run(self, pipeline, now):
        fr = pipeline.freshness
        if fr is None:
            return ()
        breaches = fr.evaluate(now)
        if not breaches:
            return ()
        events = []
        for b in breaches:
            events.append(Event(
                time=now,
                kind=EventKind.HEALTH,
                severity=Severity.ERROR,
                component=f"monitor:freshness:{b.slo.name}",
                message=b.describe(),
                fields=b.fields(),
            ))
        for ev in events:
            pipeline.bus.publish(f"events.{ev.kind.value}", ev,
                                 source="freshness")
        pipeline.bus.pump(now)
        return pipeline.sec.feed(events)


class ResponseStage:
    """Execute every request the earlier stages raised this tick."""

    name = "response"
    plane = "control"
    after = ("event-plane", "metric-plane", "streaming",
             "analysis-hooks", "supervision", "freshness")

    def run(self, pipeline, now):
        requests = pipeline.take_pending()
        if requests:
            pipeline.actions.execute(requests)
        return ()


class SelfMonStage:
    """The stack's own vitals, on their cadence, into the same bus."""

    name = "selfmon"
    plane = "control"
    after = ("response",)

    def run(self, pipeline, now):
        if pipeline.selfmon is not None:
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
