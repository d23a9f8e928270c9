"""Monitor-side fault injection: breaking the monitoring system itself.

:mod:`repro.cluster.faults` injects *machine* conditions so detectors
can be tested against ground truth.  This module injects faults into
the *monitoring pipeline* — a raising collector, a hung (over-budget)
collector, dropped or duplicated transport deliveries, a failed TSDB
shard — so the supervised lifecycle (:mod:`repro.core.lifecycle`) and
the delivery ledger (:mod:`repro.core.ledger`) can be exercised with
known ground truth: the paper's sites report silent syslog/LDMS loss as
a top pain point precisely because nothing ever *tested* the monitoring
plane's failure modes.

Each fault here is a :class:`~repro.cluster.faults.Fault` (active over
``[start, start + duration)``, ``apply``/``revert``) whose ``apply`` /
``revert`` receive a :class:`~repro.pipeline.MonitoringPipeline`.  A
:class:`~repro.cluster.faults.FaultInjector` steps the schedule against
the pipeline each tick, *before* ``pipeline.step`` — injection is part
of the experiment loop, not a pipeline stage.

:func:`transport_chaos` puts deterministic drop, duplicate and stall
faults on the transport the site declares, whatever its tier.  A drop
is stamped ``published``, then lost through the tier's own loss edge as
``chaos-drop``; a duplicate is published twice, the extra copy on the
ledger's ``duplicated`` counter; the balance identity holds under both.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from ..cluster.faults import Fault
from ..core.metric import SeriesBatch
from ..transport.base import Transport

if TYPE_CHECKING:  # pragma: no cover
    from ..pipeline import MonitoringPipeline
    from ..storage.diskier import RecoveryReport

__all__ = [
    "CollectorRaise",
    "CollectorHang",
    "TransportDropStorm",
    "TransportDuplication",
    "TransportStall",
    "TransportChaos",
    "transport_chaos",
    "ShardOutage",
    "StoreCrash",
    "crash_and_recover",
]


@dataclass
class TransportChaos:
    """One transport's fault switches, set and cleared by the transport
    faults over their windows (so overlapping faults compose): drop or
    duplicate every Nth batch publish, freeze delivery.  Deterministic
    on purpose: same seed, same losses, same ledger."""

    drop_every: int = 0        # 0 = off
    duplicate_every: int = 0   # 0 = off
    stall_pumps: bool = False  # freeze delivery (backlog builds)
    publishes: int = 0         # batch publishes while drop/dup is on


def transport_chaos(bus: Transport) -> TransportChaos:
    """The chaos state of ``bus``, installed on first use by shadowing
    its ``publish`` and ``pump`` (as :class:`CollectorRaise` shadows
    ``collect``): the state lives on its transport, never shared."""
    state = getattr(bus, "chaos", None)
    if state is not None:
        return state
    state = bus.chaos = TransportChaos()
    publish, pump, ledger = bus.publish, bus.pump, bus.ledger

    def chaotic_publish(topic: str, payload, source: str = "") -> int:
        if (isinstance(payload, SeriesBatch)
                and (state.drop_every > 0 or state.duplicate_every > 0)):
            state.publishes += 1
            if (state.drop_every > 0
                    and state.publishes % state.drop_every == 0):
                # the producer believes it published; account the
                # point as published-then-lost, never as silence
                if ledger.tracks(topic):
                    ledger.published_batch(source, payload)
                bus._lost("chaos-drop", topic, payload)
                return 0
            if (state.duplicate_every > 0
                    and state.publishes % state.duplicate_every == 0):
                if ledger.tracks(topic):
                    ledger.duplicated_batch(payload)
                publish(topic, payload, source)
        return publish(topic, payload, source)

    def chaotic_pump(now: float | None = None) -> int:
        return 0 if state.stall_pumps else pump(now)

    bus.publish = chaotic_publish
    bus.pump = chaotic_pump
    return state


def _find_collector(p: "MonitoringPipeline", name: str):
    for c in p.scheduler.collectors:
        if c.name == name:
            return c
    raise KeyError(
        f"no collector named {name!r}; installed: "
        f"{[c.name for c in p.scheduler.collectors]}"
    )


@dataclass
class CollectorRaise(Fault):
    """Make one collector raise on every sweep during the window."""

    name: str = "collector-raise"
    _orig: Callable = field(default=None, init=False, repr=False)

    def apply(self, p):
        c = _find_collector(p, self.target)
        self._orig = c.collect

        def broken(machine, now):
            raise RuntimeError(
                f"injected fault: collector {c.name} is broken"
            )

        c.collect = broken

    def revert(self, p):
        _find_collector(p, self.target).collect = self._orig


@dataclass
class CollectorHang(Fault):
    """Make one collector stall past the sweep budget (hang signature).

    The stall is a real (tiny) wall-clock sleep so the scheduler's
    ``budget_s`` over-budget detection fires; pair with a pipeline built
    with a smaller ``collector_budget_s``.
    """

    name: str = "collector-hang"
    stall_s: float = 0.02
    _orig: Callable = field(default=None, init=False, repr=False)

    def apply(self, p):
        c = _find_collector(p, self.target)
        self._orig = c.collect
        stall, orig = self.stall_s, self._orig

        def hanging(machine, now):
            _time.sleep(stall)
            return orig(machine, now)

        c.collect = hanging

    def revert(self, p):
        _find_collector(p, self.target).collect = self._orig


@dataclass
class TransportDropStorm(Fault):
    """Drop every Nth tracked batch at the transport edge."""

    name: str = "transport-drop-storm"
    drop_every: int = 3

    def apply(self, p):
        transport_chaos(p.bus).drop_every = self.drop_every

    def revert(self, p):
        transport_chaos(p.bus).drop_every = 0


@dataclass
class TransportDuplication(Fault):
    """Deliver every Nth tracked batch twice."""

    name: str = "transport-duplication"
    duplicate_every: int = 5

    def apply(self, p):
        transport_chaos(p.bus).duplicate_every = self.duplicate_every

    def revert(self, p):
        transport_chaos(p.bus).duplicate_every = 0


@dataclass
class TransportStall(Fault):
    """Freeze pumps: nothing is lost, everything arrives *late*.

    The backlog sits in the transport's queues as ledger
    ``in_flight`` (the balance identity keeps holding); on revert the
    flood of stale batches lands with hop latencies up to the stall
    duration — the freshness-SLO breach signature, as opposed to the
    loss signature of :class:`TransportDropStorm`.
    """

    name: str = "transport-stall"

    def apply(self, p):
        transport_chaos(p.bus).stall_pumps = True

    def revert(self, p):
        transport_chaos(p.bus).stall_pumps = False


@dataclass
class ShardOutage(Fault):
    """Fail one TSDB shard; recovery replays its redo buffer."""

    name: str = "shard-outage"
    shard: int = 0

    def apply(self, p):
        p.tsdb.fail_shard(self.shard)

    def revert(self, p):
        p.tsdb.recover_shard(self.shard)
        p.supervisor.heal(
            f"store:shard-{self.shard}", p.machine.now,
            reason="shard recovered, redo replayed",
        )


def crash_and_recover(
    p: "MonitoringPipeline", cause: str = "crash-unsynced"
) -> tuple[int, RecoveryReport]:
    """Hard-kill the pipeline's disk-backed store and reopen it.

    Models a power-loss crash: ``simulate_crash()`` truncates every disk
    tier to its last fsynced extent (pessimistic versus a plain SIGKILL,
    which would leave the OS page cache intact) and hands whatever a
    failed shard's redo buffer held to the ledger as ``crash-redo``;
    ``reopen()`` is the restart — a store is opened one way, and opening
    it over its directories restores the surviving manifest, segments
    and WAL.  Points that were acknowledged ``stored`` but sat past the
    fsync horizon are moved to accounted loss under ``cause`` via
    :meth:`~repro.core.ledger.DeliveryLedger.account_crash` — the balance
    identity stays exact across the crash.  Returns ``(moved, report)``:
    the number of points so accounted and the reopened store's
    :class:`~repro.storage.diskier.RecoveryReport`.

    Requires the pipeline's store to have been built with a disk tier
    (``SiteConfig(store_dir=...)``); raises :class:`RuntimeError`
    otherwise.
    """
    p.tsdb.simulate_crash()
    new = p.tsdb.reopen()
    p._wire_store(new)
    moved = p.ledger.account_crash(new.points_by_metric(), cause=cause)
    p.supervisor.heal(
        "store", p.machine.now,
        reason=f"store recovered from disk, {moved} points to {cause}",
    )
    return moved, new.recovery


@dataclass
class StoreCrash(Fault):
    """Kill-and-recover the disk-backed store at ``start``.

    A point-in-time fault: ``duration`` defaults to ``0.0`` so the
    injector applies *and* reverts it inside the same step —
    :func:`crash_and_recover` does the whole crash, restore and ledger
    reconciliation in ``apply``; there is nothing left to revert.
    """

    name: str = "store-crash"
    duration: float | None = 0.0
    cause: str = "crash-unsynced"
    points_accounted: int = field(default=0, init=False)
    recovery: object = field(default=None, init=False, repr=False)

    def apply(self, p):
        self.points_accounted, self.recovery = crash_and_recover(
            p, cause=self.cause
        )
