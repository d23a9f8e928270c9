"""Per-tenant admission control for the serving plane.

The :class:`~repro.response.governor.PowerGovernor` style applied to
reads: a tenant over its budget is *deferred, not thrown at* — ``admit``
returns False and the rejection is accounted, so operators see exactly
who is being shed and why (rate vs concurrency), and the front end
degrades that tenant's query to an empty answer instead of an exception
mid-dashboard.

Each tenant gets a token bucket (``qps`` sustained refill, ``burst``
capacity) plus an in-flight concurrency cap.  The clock is injectable:
the pipeline passes the simulated clock so quota behavior is
deterministic in tests and scenarios, while a standalone front end
defaults to ``time.monotonic``.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from typing import Callable, Mapping

__all__ = ["TenantGovernor", "TenantQuota", "TenantStats"]


@dataclass(frozen=True, slots=True)
class TenantQuota:
    """Admission budget for one tenant; defaults are unlimited.

    A finite ``qps`` with the default ``burst`` gets a bucket capacity
    of ``max(1, qps)`` — one second of sustained rate — so setting just
    a rate behaves as a rate limit.
    """

    qps: float = math.inf          # sustained queries/s (token refill)
    burst: float = math.inf        # token-bucket capacity
    max_concurrent: int = 1 << 30  # in-flight query cap

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
    rejected_rate: int
    rejected_concurrency: int

    @property
    def rejected(self) -> int:
        return self.rejected_rate + self.rejected_concurrency


class _TenantState:
    __slots__ = ("quota", "tokens", "last_refill", "in_flight",
                 "admitted", "rejected_rate", "rejected_concurrency")

    def __init__(self, quota: TenantQuota, now: float) -> None:
        self.quota = quota
        self.tokens = quota.effective_burst
        self.last_refill = now
        self.in_flight = 0
        self.admitted = 0
        self.rejected_rate = 0
        self.rejected_concurrency = 0


class TenantGovernor:
    """Token-bucket + concurrency admission across every tenant.

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
        self._lock = threading.Lock()
        self._tenants: dict[str, _TenantState] = {}

    def set_quota(self, tenant: str, quota: TenantQuota) -> None:
        with self._lock:
            self._quotas[tenant] = quota
            state = self._tenants.get(tenant)
            if state is not None:
                state.quota = quota
                state.tokens = min(state.tokens, quota.effective_burst)

    def _state(self, tenant: str) -> _TenantState:
        state = self._tenants.get(tenant)
        if state is None:
            quota = self._quotas.get(tenant, TenantQuota())
            state = _TenantState(quota, self.clock())
            self._tenants[tenant] = state
        return state

    def admit(self, tenant: str) -> bool:
        """Try to admit one query; False means shed (and accounted)."""
        now = self.clock()
        with self._lock:
            state = self._state(tenant)
            quota = state.quota
            if state.in_flight >= quota.max_concurrent:
                state.rejected_concurrency += 1
                return False
            if math.isfinite(state.tokens):
                refill = (now - state.last_refill) * quota.qps
                if refill > 0:
                    state.tokens = min(quota.effective_burst,
                                       state.tokens + refill)
                state.last_refill = now
                if state.tokens < 1.0:
                    state.rejected_rate += 1
                    return False
                state.tokens -= 1.0
            state.in_flight += 1
            state.admitted += 1
            return True

    def release(self, tenant: str) -> None:
        """Return one admitted query's concurrency slot."""
        with self._lock:
            state = self._tenants.get(tenant)
            if state is not None and state.in_flight > 0:
                state.in_flight -= 1

    def tenants(self) -> list[str]:
        with self._lock:
            return sorted(self._tenants)

    def tenant_stats(self, tenant: str) -> TenantStats:
        with self._lock:
            state = self._tenants.get(tenant)
            if state is None:
                return TenantStats(0, 0, 0)
            return TenantStats(state.admitted, state.rejected_rate,
                               state.rejected_concurrency)

    def all_stats(self) -> dict[str, TenantStats]:
        """Every tenant's counters, by tenant name."""
        with self._lock:
            return {t: TenantStats(s.admitted, s.rejected_rate,
                                   s.rejected_concurrency)
                    for t, s in sorted(self._tenants.items())}

    def totals(self) -> TenantStats:
        with self._lock:
            return TenantStats(
                sum(s.admitted for s in self._tenants.values()),
                sum(s.rejected_rate for s in self._tenants.values()),
                sum(s.rejected_concurrency for s in self._tenants.values()),
            )
