"""Per-tenant admission control for the serving plane.

The :class:`~repro.response.governor.PowerGovernor` style applied to
reads: a tenant over its budget is *deferred, not thrown at* — ``admit``
returns False and the rejection is accounted, so operators see exactly
who is being shed, and the front end degrades that tenant's query to an
empty answer instead of an exception mid-dashboard.

Each tenant gets a token bucket (``qps`` sustained refill, ``burst``
capacity).  The clock is injectable: the pipeline passes the simulated
clock so quota behavior is deterministic in tests and scenarios, while
a standalone front end defaults to ``time.monotonic``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Mapping

__all__ = ["TenantGovernor", "TenantQuota", "TenantStats"]


@dataclass(frozen=True, slots=True)
class TenantQuota:
    """Admission budget for one tenant; defaults are unlimited.

    A finite ``qps`` with the default ``burst`` gets a bucket capacity
    of ``max(1, qps)`` — one second of sustained rate — so setting just
    a rate behaves as a rate limit.  Both must be ``>= 0`` (NaN is
    refused); ``qps=0, burst=0`` sheds everything.
    """

    qps: float = math.inf          # sustained queries/s (token refill)
    burst: float = math.inf        # token-bucket capacity

    def __post_init__(self) -> None:
        for name in ("qps", "burst"):
            v = getattr(self, name)
            if not v >= 0.0:
                raise ValueError(f"TenantQuota.{name} must be >= 0, "
                                 f"got {v!r}")

    @property
    def effective_burst(self) -> float:
        if math.isfinite(self.burst):
            return self.burst
        if math.isfinite(self.qps):
            return max(1.0, self.qps)
        return math.inf


@dataclass(frozen=True, slots=True)
class TenantStats:
    """Lifetime admission counters for one tenant."""

    admitted: int
    rejected: int


class _TenantState:
    __slots__ = ("quota", "tokens", "last_refill", "admitted", "rejected")

    def __init__(self, quota: TenantQuota, now: float) -> None:
        self.quota = quota
        self.tokens = quota.effective_burst
        self.last_refill = now
        self.admitted = 0
        self.rejected = 0


class TenantGovernor:
    """Token-bucket admission across every tenant.

    ``quotas`` maps tenant name -> :class:`TenantQuota`; unknown tenants
    are unlimited, so an unconfigured deployment admits everything while
    still accounting per-tenant traffic.
    """

    def __init__(
        self,
        quotas: Mapping[str, TenantQuota] | None = None,
        clock: Callable[[], float] | None = None,
    ) -> None:
        self.clock = clock if clock is not None else time.monotonic
        self._quotas = dict(quotas) if quotas else {}
        self._tenants: dict[str, _TenantState] = {}

    def admit(self, tenant: str) -> bool:
        """Try to admit one query; False means shed (and accounted)."""
        now = self.clock()
        state = self._tenants.get(tenant)
        if state is None:
            state = _TenantState(self._quotas.get(tenant, TenantQuota()), now)
            self._tenants[tenant] = state
        if math.isfinite(state.tokens):
            quota = state.quota
            refill = (now - state.last_refill) * quota.qps
            if refill > 0:
                state.tokens = min(quota.effective_burst,
                                   state.tokens + refill)
            state.last_refill = now
            if state.tokens < 1.0:
                state.rejected += 1
                return False
            state.tokens -= 1.0
        state.admitted += 1
        return True

    def tenant_stats(self, tenant: str) -> TenantStats:
        state = self._tenants.get(tenant)
        if state is None:
            return TenantStats(0, 0)
        return TenantStats(state.admitted, state.rejected)

    def all_stats(self) -> dict[str, TenantStats]:
        """Every tenant's counters, by tenant name."""
        return {t: TenantStats(s.admitted, s.rejected)
                for t, s in sorted(self._tenants.items())}
