"""The federation driver: one clock, N sites, strict isolation.

The load-bearing contract: sites in a federation share *nothing* but
the simulated clock, so (a) job identities restart at 1 per machine,
and (b) a chaos campaign on one site leaves every other site's stored
series, health timeline, and delivery ledger bit-identical to a solo
run.
"""

import gc
import re
import types

import numpy as np
import pytest

from repro.cluster import FaultInjector
from repro.cluster.workload import Job, JobGenerator
from repro.core.metric import SeriesBatch
from repro.obs.chaos import (
    CollectorRaise,
    TransportDropStorm,
    TransportStall,
)
from repro.sites import (
    Federation,
    SiteConfig,
    build_site,
    paper_site,
)
from repro.serve.federated import FederatedFrontend
from repro.serve.frontend import QueryFrontend
from repro.serve.quota import TenantStats
from repro.storage.tsdb import TimeSeriesStore


def _timing_metric(name):
    """Series allowed to differ between two runs of the same site:
    wall-clock timings and the size gauges that fold them in."""
    return ("_ms" in name or "bytes" in name
            or name.startswith("selfmon.store.shard_"))


def _assert_same_series(a, b, ctx):
    keys_a = {k for k in a.tsdb.keys() if not _timing_metric(k.metric)}
    keys_b = {k for k in b.tsdb.keys() if not _timing_metric(k.metric)}
    assert keys_a == keys_b, ctx
    assert keys_a, f"{ctx}: nothing was stored"
    for key in sorted(keys_a, key=lambda k: (k.metric, k.component)):
        ba = a.tsdb.query(key.metric, key.component)
        bb = b.tsdb.query(key.metric, key.component)
        assert np.array_equal(ba.times, bb.times), (ctx, key)
        assert np.array_equal(ba.values, bb.values, equal_nan=True), \
            (ctx, key)


class TestJobIdentity:
    """Satellite: job IDs are per-machine, not process-global."""

    def test_two_generators_repeat_the_id_sequence(self):
        a = JobGenerator(mean_interarrival_s=60.0, seed=5)
        jobs_a = a.poll(3600.0)
        b = JobGenerator(mean_interarrival_s=60.0, seed=5)
        jobs_b = b.poll(3600.0)
        assert len(jobs_a) > 5
        assert [j.id for j in jobs_a] == [j.id for j in jobs_b]
        assert jobs_a[0].id == 1
        # the ID-derived per-job RNG streams repeat too
        assert [j.work_seconds for j in jobs_a] == \
            [j.work_seconds for j in jobs_b]

    def test_interleaved_generators_stay_independent(self):
        solo = JobGenerator(mean_interarrival_s=60.0, seed=5)
        want = [j.id for j in solo.poll(3600.0)]
        a = JobGenerator(mean_interarrival_s=60.0, seed=5)
        noisy = JobGenerator(mean_interarrival_s=30.0, seed=9)
        got = []
        for t in range(600, 3601, 600):
            got.extend(j.id for j in a.poll(float(t)))
            noisy.poll(float(t))       # must not perturb a's identities
        assert got == want

    def test_direct_construction_keeps_the_fallback(self):
        app = next(iter(JobGenerator().apps))
        j = Job(app, 4, submit_time=0.0)
        k = Job(app, 4, submit_time=0.0)
        assert k.id == j.id + 1        # class counter still ticks


class TestFederationBasics:
    def test_needs_sites_and_names(self):
        with pytest.raises(ValueError, match="at least one site"):
            Federation({})
        with pytest.raises(ValueError, match="non-empty names"):
            Federation([SiteConfig()])
        with pytest.raises(TypeError, match="SiteConfigs"):
            Federation([42])

    def test_duplicate_names_are_rejected(self):
        cfg = paper_site("snl")
        with pytest.raises(ValueError, match="duplicate"):
            Federation([cfg, cfg])

    def test_lockstep_clock_across_mixed_ticks(self):
        fed = Federation.from_presets(["csc", "snl"])
        # snl declares tick_s=5, csc 10: the federation steps at the
        # finest tick so both sites' cadences fire on schedule
        fed.step()
        clocks = {p.machine.now for p in fed.pipelines.values()}
        assert clocks == {5.0}
        fed.run(duration_s=55.0)
        clocks = {p.machine.now for p in fed.pipelines.values()}
        assert clocks == {60.0}
        assert fed.now == 60.0

    def test_qualified_views_and_balance(self):
        fed = Federation.from_presets(["csc", "snl"])
        fed.run(duration_s=600.0)
        fed.flush()
        assert fed.balanced()
        fe = fed.frontend()
        comps = fe.components("cabinet.power_w")
        assert comps
        assert all("/" in c for c in comps)
        sites = {c.split("/", 1)[0] for c in comps}
        assert sites == {"csc", "snl"}
        merged = fed.health_report()
        assert merged
        assert all("/" in k for k in merged)
        assert {k.split("/", 1)[0] for k in merged} == {"csc", "snl"}

    def test_a_shut_down_site_is_in_no_reference_cycle(self):
        # so it is freed as soon as its owner lets go of it, not at the
        # next full collection
        fed = Federation.from_presets(["csc", "snl"])
        fed.run(duration_s=120.0)
        sites = list(fed.pipelines.values())
        assert all(_reaches(p, p) for p in sites)
        fed.shutdown()
        assert not any(_reaches(p, p) for p in sites)

    def test_a_shut_down_site_stops_ingesting(self):
        p = Federation.from_presets(["snl"]).site("snl")
        p.step()
        stored = p.ledger.stored_total()
        p.shutdown()
        p.bus.publish("metrics.x", SeriesBatch.sweep("x", 1.0, ["a"], [1.0]))
        p.bus.flush()
        assert p.ledger.stored_total() == stored
        assert p.tsdb.components("x") == []
        assert len(p.tracer) == 0

    def test_unknown_site_lookup(self):
        fed = Federation.from_presets(["snl"])
        with pytest.raises(KeyError, match="unknown site"):
            fed.site("csc")


def _reaches(root, target) -> bool:
    """Whether ``target`` is reachable from ``root`` through the objects
    it refers to, classes and module globals left out."""
    seen, todo = set(), [root]
    while todo:
        for r in gc.get_referents(todo.pop()):
            if r is target:
                return True
            if (id(r) in seen or isinstance(r, (type, types.ModuleType))
                    or isinstance(r, dict) and "__builtins__" in r):
                continue
            seen.add(id(r))
            todo.append(r)
    return False


def _run_solo(name, duration_s, dt):
    pipeline = build_site(paper_site(name))
    end = pipeline.machine.now + duration_s
    while pipeline.machine.now < end - 1e-9:
        pipeline.step(dt)
    pipeline.bus.flush()
    return pipeline


@pytest.mark.degrades
class TestSiteIsolation:
    """Chaos on site A must not perturb site B at all."""

    DURATION = 1800.0

    @pytest.fixture(scope="class")
    def runs(self):
        dt = 5.0                      # min(csc tick 10, snl tick 5)
        solo = _run_solo("snl", self.DURATION, dt)

        fed = Federation([paper_site("csc"), paper_site("snl")])
        chaotic = fed.site("csc")
        inj = FaultInjector([
            CollectorRaise(start=300.0, duration=600.0, target="sedc"),
            TransportStall(start=600.0, duration=300.0),
            TransportDropStorm(start=1000.0, duration=400.0,
                               drop_every=3),
        ])
        end = fed.now + self.DURATION
        while fed.now < end - 1e-9:
            inj.step(chaotic, fed.now)
            fed.step()
        inj.step(chaotic, fed.now)    # revert anything still active
        fed.flush()
        assert inj.all_reverted()
        return solo, fed

    def test_chaos_actually_bit(self, runs):
        _, fed = runs
        report = fed.site("csc").delivery_report()
        # the storm dropped points, and every one is accounted loss —
        # degraded, never silently wrong
        assert report.lost > 0
        assert report.balanced and report.unaccounted == 0

    def test_calm_site_series_bit_identical(self, runs):
        solo, fed = runs
        _assert_same_series(solo, fed.site("snl"), "snl solo vs federated")

    def test_calm_site_health_identical(self, runs):
        solo, fed = runs
        calm = fed.site("snl")
        assert solo.supervisor.transitions == calm.supervisor.transitions
        assert solo.health_report() == calm.health_report()

    def test_calm_site_ledger_identical(self, runs):
        solo, fed = runs
        a = solo.delivery_report()
        b = fed.site("snl").delivery_report()
        assert a == b
        assert a.balanced and a.unaccounted == 0


class TestFederatedAdmission:
    """A federated read is one admitted call per site asked, and a site
    that sheds the tenant makes an accounted partial answer."""

    def test_one_token_per_site_and_a_shed_site_is_partial(self):
        fed = Federation.from_presets(["kaust", "alcf"])
        for _ in range(40):
            fed.step()
        fe, kaust = fed.frontend(), fed.site("kaust").frontend
        now = fed.now

        def read():
            return fe.aggregate_across("node.power_w", None, now - 600.0,
                                       now, 60.0, "count", tenant="users")

        # back-to-back reads agree, and each draws one token from KAUST's
        # users bucket (TenantQuota(qps=50): 50 tokens, frozen sim clock)
        first = read()
        before = fe.stats()
        second = read()
        after = fe.stats()
        assert np.array_equal(first.times, second.times)
        assert np.array_equal(first.values, second.values)
        assert kaust.tenant_stats("users") == TenantStats(2, 0)
        assert after.fanouts - before.fanouts == 2     # one per site asked
        assert after.partial_answers == 0
        # a selection that touches one site asks that site alone
        one = [c for c in fe.components("node.power_w")
               if c.startswith("alcf/")][:3]
        before = fe.stats()
        fe.aggregate_across("node.power_w", one, now - 600.0, now, 60.0)
        assert fe.stats().fanouts - before.fanouts == 1

        # drain KAUST's bucket one read per token: the read it sheds
        # covers ALCF alone and is counted partial, not a site error
        while kaust.tenant_stats("users").rejected == 0:
            assert fe.stats().partial_answers == 0
            shed = read()
        assert kaust.tenant_stats("users") == TenantStats(50, 1)
        s = fe.stats()
        assert s.partial_answers == 1 and s.site_errors == {}
        alcf = fed.site("alcf").frontend.aggregate_across(
            "node.power_w", None, now - 600.0, now, 60.0, "count",
            tenant="users")
        assert np.array_equal(shed.times, alcf.times)
        assert np.array_equal(shed.values, alcf.values)


class TestCallerErrors:
    def test_bad_downsample_arguments_raise_before_routing(self):
        """A bad ``step`` or ``agg`` is the caller's error, raised with
        the store's message, not a site error or a partial answer."""
        store = TimeSeriesStore()
        store.append(SeriesBatch.for_component(
            "m", "a", np.arange(60) * 10.0, np.ones(60)))
        fed = FederatedFrontend({"x": QueryFrontend(store)})
        before = fed.stats()
        for step, agg in ((0.0, "mean"), (60.0, "p99")):
            with pytest.raises(ValueError) as want:
                store.downsample("m", "a", 0.0, 600.0, step, agg)
            with pytest.raises(ValueError,
                               match=re.escape(str(want.value))):
                fed.downsample("m", "x/a", 0.0, 600.0, step, agg)
        assert fed.stats() == before
