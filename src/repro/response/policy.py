"""Response policy: wiring rules to actions.

The glue Table I asks for — "Data and analysis results should be able to
be exposed to applications and system software" — expressed as a default
rule set covering every fault the substrate can inject.
"""

from __future__ import annotations

from ..core.events import Severity
from .sec import PairRule, SecEngine, SingleRule, ThresholdRule

__all__ = ["default_rules", "default_sec_engine"]


def default_rules() -> list[SingleRule | PairRule | ThresholdRule]:
    """Rules covering the well-known log lines of every injected fault."""
    return [
        # hung node: alert, and keep new work off it
        SingleRule(
            name="soft_lockup",
            pattern=r"soft lockup",
            action="alert",
            severity=Severity.ERROR,
        ),
        SingleRule(
            name="soft_lockup_drain",
            pattern=r"soft lockup",
            action="drain_node",
            severity=Severity.ERROR,
        ),
        # GPU falls off the bus: the node must not take another job (CSCS)
        SingleRule(
            name="gpu_falloff_drain",
            pattern=r"fallen off the bus",
            action="drain_node",
            severity=Severity.CRITICAL,
        ),
        SingleRule(
            name="gpu_falloff",
            pattern=r"fallen off the bus",
            action="alert",
            severity=Severity.CRITICAL,
        ),
        # service/mount failures: alert (repair is human)
        SingleRule(
            name="service_exit",
            pattern=r"main process exited",
            action="alert",
            severity=Severity.ERROR,
        ),
        SingleRule(
            name="mount_stale",
            pattern=r"mount stale|connection to MDS lost",
            action="alert",
            severity=Severity.ERROR,
        ),
        # link failed and did NOT come back within 10 minutes: page
        PairRule(
            name="link_recovery_watch",
            pattern_a=r"HSN link .* failed:",
            pattern_b=r"HSN link .* restored",
            window_s=600.0,
            timeout_action="alert",
            severity=Severity.ALERT,
        ),
        # event storms: many hardware errors in a short window
        ThresholdRule(
            name="hwerr_storm",
            pattern=r"machine check|fallen off the bus|LCB lanes down",
            count=5,
            window_s=3600.0,
            action="alert",
            severity=Severity.ALERT,
        ),
        # flapping node health: repeated failures on one component
        ThresholdRule(
            name="health_flap",
            pattern=r"health check .* FAILED",
            count=3,
            window_s=1800.0,
            action="drain_node",
            severity=Severity.WARNING,
            per_component=True,
        ),
        # environment: ASHRAE excursion
        SingleRule(
            name="ashrae",
            pattern=r"ASHRAE (excursion|G1 severity)",
            action="alert",
            severity=Severity.ALERT,
        ),
        # queue blockage
        SingleRule(
            name="queue_blocked",
            pattern=r"job launches suspended",
            action="alert",
            severity=Severity.ERROR,
        ),
        # degraded benchmark: the NERSC "investigate" trigger
        SingleRule(
            name="bench_degraded",
            pattern=r"benchmark \w+ DEGRADED",
            action="alert",
            severity=Severity.WARNING,
        ),
        # filesystem slow-io noise
        ThresholdRule(
            name="slow_io_persistent",
            pattern=r"slow_io",
            count=3,
            window_s=1800.0,
            action="alert",
            severity=Severity.WARNING,
        ),
        # the monitor watching itself: a supervised pipeline component
        # degrading or failing means the data everything above relies on
        # is suspect — escalate rather than silently thinning coverage
        SingleRule(
            name="monitor_self_degraded",
            pattern=r"monitor component .* -> (DEGRADED|FAILED)",
            action="alert",
            severity=Severity.ALERT,
        ),
        # repeated self-degradation of the same component: flapping
        # collector / lossy transport — page, don't just log
        ThresholdRule(
            name="monitor_self_flap",
            pattern=r"monitor component .* -> (DEGRADED|FAILED)",
            count=3,
            window_s=3600.0,
            action="alert",
            severity=Severity.CRITICAL,
            per_component=True,
        ),
        # freshness SLO breach: data is arriving, but too stale to act
        # on — the breach message carries the worst exemplar's hop
        # vector, so the alert names the hop where the latency lives
        SingleRule(
            name="freshness_slo_breach",
            pattern=r"freshness SLO .* breached",
            action="alert",
            severity=Severity.ALERT,
            forward_fields=True,   # exemplar hop + latency ride along
        ),
        # the same SLO breaching repeatedly: a sustained staleness
        # regression (stalled pumps, overloaded aggregation window)
        ThresholdRule(
            name="freshness_slo_persistent",
            pattern=r"freshness SLO .* breached",
            count=3,
            window_s=3600.0,
            action="alert",
            severity=Severity.CRITICAL,
            per_component=True,
        ),
    ]


def default_sec_engine() -> SecEngine:
    return SecEngine(default_rules())
