"""Unit tests: per-tenant token-bucket admission."""

import math

import pytest

from repro.serve.quota import TenantGovernor, TenantQuota, TenantStats


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


class TestTenantGovernor:
    def test_unconfigured_tenant_is_unlimited_but_accounted(self):
        g = TenantGovernor(clock=FakeClock())
        assert all(g.admit("anon") for _ in range(100))
        ts = g.tenant_stats("anon")
        assert ts.admitted == 100 and ts.rejected == 0
        assert list(g.all_stats()) == ["anon"]

    def test_burst_then_rate_rejections(self):
        clk = FakeClock()
        g = TenantGovernor({"t": TenantQuota(qps=1.0, burst=3.0)},
                           clock=clk)
        got = [g.admit("t") for _ in range(5)]
        assert got == [True, True, True, False, False]
        ts = g.tenant_stats("t")
        assert ts == TenantStats(admitted=3, rejected=2)

    def test_tokens_refill_with_clock(self):
        clk = FakeClock()
        g = TenantGovernor({"t": TenantQuota(qps=2.0, burst=2.0)},
                           clock=clk)
        assert g.admit("t") and g.admit("t") and not g.admit("t")
        clk.t = 1.0                      # 2 qps * 1 s = 2 tokens back
        assert g.admit("t") and g.admit("t") and not g.admit("t")
        clk.t = 100.0                    # refill caps at burst
        assert [g.admit("t") for _ in range(3)] == [True, True, False]

    def test_qps_without_burst_still_limits(self):
        # a finite rate with the default infinite burst must not mean an
        # infinite bucket: capacity falls back to max(1, qps)
        g = TenantGovernor({"t": TenantQuota(qps=4.0)}, clock=FakeClock())
        assert sum(g.admit("t") for _ in range(10)) == 4


class TestTenantQuotaValidation:
    @pytest.mark.parametrize("kwargs", [
        {"qps": math.nan},
        {"qps": 1.0, "burst": math.nan},
        {"qps": -3.0},
        {"burst": -1.0},
        {"qps": -math.inf},
    ])
    def test_malformed_budget_is_refused(self, kwargs):
        with pytest.raises(ValueError, match="must be >= 0"):
            TenantQuota(**kwargs)
