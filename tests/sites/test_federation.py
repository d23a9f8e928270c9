"""The federation driver: one clock, N sites, strict isolation.

The load-bearing contract: sites in a federation share *nothing* but
the simulated clock, so (a) job identities restart at 1 per machine,
and (b) a chaos campaign on one site leaves every other site's stored
series, health timeline, and delivery ledger bit-identical to a solo
run.
"""

import numpy as np
import pytest

from repro.cluster.workload import Job, JobGenerator
from repro.obs.chaos import (
    CollectorRaise,
    MonitorFaultInjector,
    TransportDropStorm,
    TransportStall,
)
from repro.sites import (
    Federation,
    SiteConfig,
    build_site,
    paper_site,
)


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

    def test_unknown_site_lookup(self):
        fed = Federation.from_presets(["snl"])
        with pytest.raises(KeyError, match="unknown site"):
            fed.site("csc")


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
        inj = MonitorFaultInjector([
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

