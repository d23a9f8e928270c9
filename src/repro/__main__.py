"""Command-line demo driver: ``python -m repro [scenario]``.

Runs a monitored machine scenario and prints the live outcome — the
fastest way to see the stack end to end without writing code.

Scenarios:

* ``demo``        (default) — mixed workload, hung node + slow OST,
                  full pipeline, alerts + dashboard;
* ``figures``     — regenerate Figure 3 and Figure 4 style output from
                  a fresh simulation;
* ``registry``    — print the metric data dictionary (every metric's
                  unit, meaning, and derivation);
* ``dashboard``   — run a workload and render the shareable operations
                  dashboard spec;
* ``obs``         — run a workload and introspect the monitoring plane
                  itself: per-stage span timings, data-path
                  completeness, slowest spans, and the ``selfmon.*``
                  meta-metric series it stored about itself;
* ``chaos``       — break the monitoring plane itself (raising
                  collector, hung collector, transport stall, transport
                  drop storm, TSDB shard outage) and show the
                  supervised lifecycle riding it out: the
                  health-transition timeline, the self-alerts the SEC
                  raised about its own degradation — including the
                  freshness-SLO breach naming the stalled hop — and the
                  delivery ledger reconciling every published point as
                  stored or accounted loss;
* ``slo``         — run the same workload on all three transport tiers
                  and print the ingest-to-queryable latency waterfall
                  each produced: per-hop attribution whose hop sums
                  telescope *exactly* to the end-to-end latency, plus
                  the freshness-SLO burn status;
* ``store``       — out-of-core storage demo: run a sharded store with
                  a deliberately tiny hot-tier byte budget so sealed
                  chunks spill to mmap-backed segment files, snapshot,
                  then hard-crash the store (files truncated to the
                  last fsync) mid-campaign and recover from disk — the
                  delivery ledger accounts every point across the
                  crash, with unsynced loss a named cause, never a
                  silence;
* ``serve``       — ingest on a sharded store, then drive dashboard
                  query rounds for two tenants through the serving
                  plane: answers read from rollup-pyramid rows,
                  result-cache hit ratios, per-tenant admission
                  accounting (a burst-limited guest is shed), and an
                  exactness spot-check of every bucketed answer against
                  the raw decompress path;
* ``sites``       — stand up all ten paper sites from their declarative
                  configs on one simulated clock, run a short campaign,
                  and print the regenerated Table I capability matrix
                  (declared vs live-introspected, drift flagged), a
                  cross-site federated query answered exactly through
                  the partial-column merge, the merged health timeline,
                  and every site's delivery-ledger identity — exits
                  nonzero if any ledger fails to balance or any
                  declared capability drifts from the built stack.

``obs --json`` emits the full health report and the stored ``selfmon.*``
series as machine-readable JSON instead of text.
"""

from __future__ import annotations

import argparse
import sys


def _demo_site(seed: int, overrides: dict | None = None, **knobs):
    """The CLI's site: a 96-node all-GPU dragonfly with a hung node and
    a slow OST, monitored by the stack ``knobs`` declare."""
    from .cluster import HungNode, SlowOst
    from .sites import SiteConfig, build_machine, build_site

    config = SiteConfig(gpu_nodes="all", mean_interarrival_s=180,
                        seed=seed, **knobs)
    machine = build_machine(config)
    machine.faults.add(HungNode(start=900.0, duration=1200.0,
                                node=machine.topo.nodes[5]))
    machine.faults.add(SlowOst(start=1800.0, duration=1200.0, ost=0,
                               bw_factor=0.1))
    return build_site(config, machine=machine, overrides=overrides)


def cmd_demo(args) -> int:
    pipeline = _demo_site(args.seed)
    machine = pipeline.machine
    print(f"simulating {len(machine.topo.nodes)} nodes for "
          f"{args.hours:g} h with a hung node and a slow OST...")
    pipeline.run(hours=args.hours, dt=10.0)
    print("\nalerts:")
    for a in pipeline.alerts.alerts:
        print(f"  t={a.time:6.0f}s [{a.severity.name:8}] "
              f"{a.rule:18} {a.component}: {a.message[:54]}")
    print()
    print(pipeline.dashboard().render(machine.now, window_s=1200.0))
    stats = pipeline.tsdb.stats()
    print(f"\n{stats.samples} samples / {stats.series} series stored, "
          f"{len(pipeline.logs)} log events, "
          f"{len(pipeline.jobs)} jobs indexed")
    return 0


def cmd_figures(args) -> int:
    from .viz.figures import figure3_power, figure4_drilldown

    pipeline = _demo_site(args.seed)
    machine = pipeline.machine
    pipeline.run(hours=args.hours, dt=10.0)
    fig3 = figure3_power(pipeline.tsdb, 0.0, machine.now)
    print(fig3.render(height=7))
    fig4, result = figure4_drilldown(pipeline.tsdb, pipeline.jobs,
                                     0.0, machine.now)
    print()
    print(fig4.render(height=7))
    return 0


def cmd_registry(args) -> int:
    from .core.registry import default_registry

    print(default_registry().document())
    return 0


def cmd_dashboard(args) -> int:
    from .viz.dashspec import operations_dashboard

    pipeline = _demo_site(args.seed)
    machine = pipeline.machine
    pipeline.run(hours=args.hours, dt=10.0)
    spec = operations_dashboard()
    print("shareable spec (JSON):")
    print(spec.to_json())
    print()
    print(spec.render(pipeline.tsdb, machine.now))
    return 0


def cmd_obs(args) -> int:
    from .analysis.streaming import (
        StreamingOutlierDetector,
        StreamingRateWatch,
        StreamingStats,
    )

    as_json = getattr(args, "json", False)
    pipeline = _demo_site(args.seed)
    if not as_json:
        print(f"simulating {len(pipeline.machine.topo.nodes)} nodes for "
              f"{args.hours:g} h, monitoring the monitoring...")
    # streaming detectors on the hot sweeps, so the analysis plane has
    # something to self-report (selfmon.analysis.* gauges below)
    pipeline.add_streaming(StreamingStats())
    pipeline.add_streaming(
        StreamingOutlierDetector(("node.power_w",), z_threshold=6.0))
    pipeline.add_streaming(
        StreamingRateWatch("gpu.ecc_dbe", max_rate_per_s=0.01))
    pipeline.run(hours=args.hours, dt=10.0)
    selfmon = sorted(
        {k.metric for k in pipeline.tsdb.keys()
         if k.metric.startswith("selfmon.")}
    )
    if as_json:
        import json

        report = pipeline.introspect().report()
        series = {}
        for name in selfmon:
            comps = pipeline.tsdb.components(name)
            b = pipeline.tsdb.query(name, comps[0])
            series[name] = {
                "components": len(comps),
                "latest": float(b.values[-1]),
            }
        print(json.dumps(
            {"report": report.as_dict(), "selfmon": series},
            indent=2, sort_keys=True, default=str,
        ))
        return 0
    print()
    print(pipeline.introspect().render())
    print()
    print(f"selfmon series stored ({len(selfmon)} metrics):")
    for name in selfmon:
        comps = pipeline.tsdb.components(name)
        b = pipeline.tsdb.query(name, comps[0])
        print(f"  {name:<35} {len(comps):3d} component(s), "
              f"latest={b.values[-1]:.3f}")
    return 0


def cmd_chaos(args) -> int:
    from .obs.chaos import (
        ChaosTransport,
        CollectorHang,
        CollectorRaise,
        MonitorFaultInjector,
        ShardOutage,
        TransportDropStorm,
        TransportStall,
    )
    from .transport.partitioned import PartitionedBus

    pipeline = _demo_site(
        args.seed,
        overrides={"transport": ChaosTransport(PartitionedBus())},
        transport="partitioned",
        shards=4,
        collector_budget_s=0.01,
    )
    machine = pipeline.machine
    print(f"simulating {len(machine.topo.nodes)} nodes for "
          f"{args.hours:g} h while injecting faults into the "
          f"monitoring plane itself...")
    inj = MonitorFaultInjector([
        CollectorRaise(start=600.0, duration=900.0, target="sedc"),
        CollectorHang(start=1200.0, duration=600.0,
                      target="node_counters"),
        TransportStall(start=1400.0, duration=400.0),
        TransportDropStorm(start=2000.0, duration=800.0, drop_every=3),
        ShardOutage(start=3000.0, duration=1000.0, shard=1),
    ])
    print("\nfault schedule (monitor-side ground truth):")
    for g in inj.ground_truth():
        tgt = f" target={g['target']}" if g["target"] else ""
        print(f"  {g['name']:<22} t=[{g['start']:.0f}, {g['end']:.0f})"
              f"{tgt}")

    dt = 10.0
    end = machine.now + args.hours * 3600.0
    while machine.now < end - 1e-9:
        inj.step(pipeline, machine.now)
        pipeline.step(dt)
    inj.step(pipeline, machine.now)   # revert anything still open
    pipeline.bus.flush()

    print("\nhealth-transition timeline:")
    print(pipeline.supervisor.timeline())

    impaired = [
        (name, rec) for name, rec in pipeline.health_report().items()
        if rec["state"] != "ok"
    ]
    n = len(pipeline.health_report())
    if impaired:
        print(f"\nfinal health: {len(impaired)}/{n} components "
              f"still impaired:")
        for name, rec in impaired:
            print(f"  {name}: {rec['state'].upper()} ({rec['reason']})")
    else:
        print(f"\nfinal health: all {n} supervised components OK "
              f"(every fault healed)")

    self_alerts = [a for a in pipeline.alerts.alerts
                   if a.rule.startswith("monitor_self")]
    print(f"\nself-alerts raised about the monitoring plane "
          f"({len(self_alerts)}):")
    for a in self_alerts[:8]:
        print(f"  t={a.time:6.0f}s [{a.severity.name:8}] "
              f"{a.rule:22} {a.message[:52]}")
    if len(self_alerts) > 8:
        print(f"  ... and {len(self_alerts) - 8} more")

    fresh_alerts = [a for a in pipeline.alerts.alerts
                    if a.rule.startswith("freshness_slo")]
    print(f"\nfreshness-SLO breaches escalated ({len(fresh_alerts)}):")
    for a in fresh_alerts[:4]:
        print(f"  t={a.time:6.0f}s [{a.severity.name:8}] "
              f"{a.rule:22} {a.message[:100]}")
    if len(fresh_alerts) > 4:
        print(f"  ... and {len(fresh_alerts) - 4} more")
    stall_named = any("worst hop pump" in a.message
                      for a in fresh_alerts)
    if stall_named:
        print("  -> the breach exemplar names the stalled hop (pump): "
              "the alert points at where the latency lives")

    report = pipeline.delivery_report()
    print()
    print(report.render())
    ok = (impaired == [] and report.balanced and inj.all_reverted()
          and stall_named)
    print()
    if ok:
        print("chaos campaign PASSED: zero uncaught exceptions, all "
              "components recovered, ledger reconciles exactly, "
              "freshness breach attributed to the stalled hop")
    else:
        print("chaos campaign FAILED: see above")
    return 0 if ok else 1


def cmd_store(args) -> int:
    import tempfile

    from .obs.chaos import MonitorFaultInjector, StoreCrash
    from .storage.rollup import DEFAULT_LEVELS
    from .storage.sharded import ShardedTimeSeriesStore

    store_dir = tempfile.mkdtemp(prefix="repro-store-")
    hot_budget = 16 << 10    # deliberately tiny: force spill to disk
    # small chunks + small fsync batches so a short demo run actually
    # seals, spills, and syncs (the defaults are sized for long runs)
    tsdb = ShardedTimeSeriesStore(
        shards=4, chunk_size=24, pyramid_levels=DEFAULT_LEVELS,
        disk_dir=store_dir, hot_bytes=hot_budget,
        sync_every_bytes=64 << 10,
    )
    pipeline = _demo_site(args.seed, overrides={"tsdb": tsdb})
    machine = pipeline.machine
    print(f"simulating {len(machine.topo.nodes)} nodes for "
          f"{args.hours:g} h on a disk-backed sharded store\n"
          f"  store dir   {store_dir}\n"
          f"  hot budget  {hot_budget} B/shard (sealed chunks past "
          f"this spill to mmap-backed segments)")

    dt = 10.0
    total_s = args.hours * 3600.0
    snap_at = machine.now + total_s * 0.5
    crash_at = machine.now + total_s * 0.75
    inj = MonitorFaultInjector([StoreCrash(start=crash_at)])
    crash = inj.faults[0]

    end = machine.now + total_s
    snapped = False
    while machine.now < end - 1e-9:
        if not snapped and machine.now >= snap_at:
            paths = pipeline.tsdb.snapshot()
            print(f"\nt={machine.now:6.0f}s snapshot: "
                  f"{len(paths)} per-shard manifests written "
                  f"(series index + pyramid partials + heads)")
            snapped = True
        was_applied = crash.applied
        if not was_applied and machine.now >= crash_at:
            d0 = pipeline.tsdb.disk_stats()
            print(f"\nt={machine.now:6.0f}s pre-crash tier: "
                  f"{d0.spills} spills, {d0.hot_bytes} hot B in "
                  f"{d0.hot_chunks} chunks, {d0.disk_bytes} B on disk")
        inj.step(pipeline, machine.now)
        if crash.applied and not was_applied:
            r = crash.recovery
            print(f"t={machine.now:6.0f}s CRASH: files truncated to "
                  f"last fsync, store reopened on its directories")
            print(f"  recovered {r.points} points in {r.series} series "
                  f"({r.manifest_chunks} manifest chunks, "
                  f"{r.scanned_chunks} scanned from segments, "
                  f"{r.wal_points_replayed} WAL points replayed, "
                  f"{r.wal_points_skipped} deduped)")
            print(f"  torn tails truncated: "
                  f"{r.torn_segment_bytes} segment B, "
                  f"{r.torn_wal_bytes} WAL B")
            print(f"  {crash.points_accounted} unsynced points moved "
                  f"to accounted loss ('crash-unsynced')")
        pipeline.step(dt)
    inj.step(pipeline, machine.now)
    pipeline.bus.flush()

    # cold query sweep: full-range reads hit spilled chunks through the
    # mmap (decode straight from the mapped buffer, no staging copy)
    pipeline.tsdb.cache.clear()
    metrics = sorted(pipeline.tsdb.points_by_metric())[:50]
    swept = sum(
        len(pipeline.tsdb.query(m, c, 0.0, machine.now + 1.0).times)
        for m in metrics
        for c in pipeline.tsdb.components(m)
    )
    print(f"\ncold query sweep: {swept} points read back over "
          f"{len(metrics)} metrics (spilled chunks decoded from mmap)")

    d = pipeline.tsdb.disk_stats()
    print(f"\ndisk tier after {args.hours:g} h:")
    print(f"  on disk     {d.disk_bytes:10d} B "
          f"({d.segments} segments, {d.wal_bytes} B WAL)")
    print(f"  hot tier    {d.hot_bytes:10d} B in {d.hot_chunks} chunks "
          f"(budget {4 * hot_budget} B across 4 shards)")
    print(f"  spills {d.spills}  loads {d.loads}  "
          f"map_hits {d.map_hits}  remaps {d.remaps}")
    print(f"  wal records {d.wal_records}  wal fsync batches "
          f"{d.wal_syncs}")
    budget_held = d.hot_bytes <= 4 * hot_budget

    report = pipeline.delivery_report()
    print()
    print(report.render())

    ok = (crash.applied and report.balanced and budget_held
          and "crash-unsynced" in report.lost_by_cause)
    print()
    if ok:
        print("store scenario PASSED: hot tier held its byte budget, "
              "the store survived a hard crash, and the ledger "
              "reconciles exactly — crash loss is a named number, "
              "not a silence")
    else:
        print("store scenario FAILED: see above")
    return 0 if ok else 1


def cmd_slo(args) -> int:
    from .transport.aggtree import AggregatorTree

    # a 120 s aggregation window makes the tree's merge latency visible
    # in the waterfall (the flat/partitioned tiers deliver same-tick)
    specs = [
        ("flat", None),
        ("partitioned", None),
        ("tree", {"transport": AggregatorTree(window_s=120.0)}),
    ]
    print(f"tracing ingest-to-queryable freshness over {args.hours:g} h "
          f"on each transport tier...")
    all_exact = True
    for label, overrides in specs:
        pipeline = _demo_site(args.seed, overrides=overrides,
                              transport=label)
        pipeline.run(hours=args.hours, dt=10.0)
        pipeline.bus.flush()     # deliver anything still windowed
        fr = pipeline.freshness
        fr.tier = label
        print()
        print(fr.render_waterfall())
        for s in fr.slo_status():
            state = "BREACHED" if s["active"] else "ok"
            print(f"  slo {s['name']}: p{100 * s['quantile']:g} <= "
                  f"{s['max_latency_s']:g}s  burn={s['burn_rate']:.2f}x"
                  f"  breaches={s['breaches']}  [{state}]")
        # the acceptance bar: hop attribution telescopes to the
        # end-to-end latency with no epsilon — exact equality on the
        # simulated clock
        exact = (fr.hop_total() == fr.e2e_total()
                 and fr.waterfall_exact())
        all_exact = all_exact and exact
        if not exact:
            print(f"  !! hop sums diverge from end-to-end on {label}")
    print()
    if all_exact:
        print("all tiers: sum(per-hop latency) == end-to-end latency "
              "exactly (no epsilon)")
    else:
        print("EXACTNESS VIOLATION: at least one tier's hop sums "
              "diverge from its end-to-end latency")
    return 0 if all_exact else 1


def cmd_serve(args) -> int:
    import numpy as np

    from .serve.quota import TenantQuota

    print(f"ingesting {args.hours:g} h across 4 shards, then serving "
          f"dashboard queries through the multi-tenant front end...")
    pipeline = _demo_site(
        args.seed, shards=4,
        quotas={
            "ops": TenantQuota(qps=1000.0),
            # the sim clock is frozen between ticks, so the guest's
            # bucket never refills mid-burst: burst admissions, then shed
            "guest": TenantQuota(qps=1.0, burst=8.0),
        },
    )
    pipeline.run(hours=args.hours, dt=10.0)
    fe = pipeline.frontend
    t1 = pipeline.machine.now
    metrics = ["node.load1", "node.power_w", "node.temp_c",
               "fs.read_bps", "queue.depth"]
    # two dashboard refresh rounds per tenant: round two should be
    # all result-cache hits (no ingest between them)
    for tenant in ("ops", "guest"):
        for _round in range(2):
            for m in metrics:
                fe.aggregate_across(m, t0=0.0, t1=t1, step=60.0,
                                    agg="mean", tenant=tenant)
                fe.aggregate_across(m, t0=0.0, t1=t1, step=600.0,
                                    agg="max", tenant=tenant)
                comps = fe.components(m, tenant=tenant)
                if comps:
                    fe.downsample(m, comps[0], 0.0, t1, 60.0,
                                  agg="mean", tenant=tenant)
    # exactness spot-check: bucketed answers against the store's
    # forced-decompress raw path
    exact = True
    for m in metrics:
        got = fe.aggregate_across(m, t0=0.0, t1=t1, step=60.0, agg="max",
                                  tenant="ops")
        want = pipeline.tsdb.aggregate_across(m, t0=0.0, t1=t1,
                                              step=60.0, agg="max")
        ok = (np.array_equal(got.times, want.times)
              and np.array_equal(got.values, want.values, equal_nan=True))
        exact = exact and ok
        if not ok:
            print(f"  !! serving-plane answer diverges from raw on {m}")
    s = fe.stats()
    print()
    print(f"queries: {s.queries} total, {s.admitted} admitted, "
          f"{s.rejected} shed")
    print(f"bucketed reads: {s.pyramid_answers} pyramid answers, "
          f"{s.raw_answers} from summaries and samples only "
          f"({100 * s.pyramid_ratio:.0f}% from rollups)")
    print(f"result cache: {s.cache.hits} hits / "
          f"{s.cache.hits + s.cache.misses} lookups "
          f"(hit ratio {s.cache_hit_ratio:.2f}), "
          f"{s.cache.bytes} B resident")
    print()
    print(f"{'tenant':<10} {'admitted':>9} {'shed(rate)':>11} "
          f"{'shed(conc)':>11}")
    for t, ts in s.tenants.items():
        print(f"{t:<10} {ts.admitted:>9} {ts.rejected_rate:>11} "
              f"{ts.rejected_concurrency:>11}")
    print()
    if exact:
        print("serving-plane answers match the raw decompress path "
              "exactly")
    else:
        print("EXACTNESS VIOLATION: serving plane diverged from the "
              "raw path")
    return 0 if exact else 1


def cmd_sites(args) -> int:
    from .sites import Federation, site_capabilities
    from .viz.sitematrix import capability_matrix

    fed = Federation.from_presets()
    nodes = sum(len(p.machine.topo.nodes)
                for p in fed.pipelines.values())
    print(f"standing up {len(fed.pipelines)} paper sites "
          f"({nodes} nodes total) on one simulated clock, "
          f"{args.hours:g} h campaign...")
    fed.run(hours=args.hours)
    fed.flush()
    t1 = fed.now

    # Table I, regenerated: declared capabilities checked cell-by-cell
    # against live introspection of each built stack
    rows, drift = [], {}
    for name, p in fed.pipelines.items():
        declared = p.site_config.capabilities()
        live = site_capabilities(p)
        rows.append(live)
        bad = sorted(k for k in declared if declared[k] != live.get(k))
        if bad:
            drift[name] = bad
    print()
    print(capability_matrix(rows, drift))

    fe = fed.frontend()
    metric = "cabinet.power_w"
    comps = fe.components(metric)
    batch = fe.aggregate_across(metric, t0=0.0, t1=t1, step=600.0,
                                agg="sum")
    print()
    print(f"federated query: sum({metric}) across {len(comps)} "
          f"cabinets at {len(fed.pipelines)} sites, 600 s buckets -> "
          f"{len(batch)} buckets")
    if len(batch):
        import numpy as np

        finite = batch.values[np.isfinite(batch.values)]
        if len(finite):
            print(f"  cross-site power envelope: "
                  f"min {finite.min():,.0f} W, "
                  f"mean {finite.mean():,.0f} W, "
                  f"max {finite.max():,.0f} W")
    s = fe.stats()
    print(f"  fan-out: {s.fanouts} site calls over {s.queries} "
          f"federated queries, {s.partial_answers} partial, "
          f"{sum(s.site_errors.values())} site errors")

    timeline = fed.timeline()
    print()
    print("merged health timeline (site-qualified):")
    lines = timeline.splitlines()
    for line in lines[:12]:
        print(f"  {line}")
    if len(lines) > 12:
        print(f"  ... {len(lines) - 12} more transitions")

    print()
    print(f"{'site':<8} {'published':>10} {'stored':>10} {'lost':>6} "
          f"{'pending':>8} {'in_flight':>9} {'unacct':>6}")
    balanced = True
    for name, r in fed.delivery_reports().items():
        ok = r.balanced and r.unaccounted == 0
        balanced = balanced and ok
        print(f"{name:<8} {r.published:>10} {r.stored:>10} {r.lost:>6} "
              f"{r.pending:>8} {r.in_flight:>9} {r.unaccounted:>6}"
              f"{'' if ok else '  !! IMBALANCED'}")
    fed.shutdown()

    print()
    if balanced and not drift:
        print("every site's delivery identity holds exactly and the "
              "built stacks match their declared capabilities")
        return 0
    if not balanced:
        print("LEDGER VIOLATION: a site's delivery identity failed "
              "to balance")
    if drift:
        print("CAPABILITY DRIFT: built stacks diverge from declared "
              f"configs at {', '.join(sorted(drift))}")
    return 1


COMMANDS = {
    "demo": cmd_demo,
    "figures": cmd_figures,
    "registry": cmd_registry,
    "dashboard": cmd_dashboard,
    "obs": cmd_obs,
    "chaos": cmd_chaos,
    "store": cmd_store,
    "slo": cmd_slo,
    "serve": cmd_serve,
    "sites": cmd_sites,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("scenario", nargs="?", default="demo",
                        choices=sorted(COMMANDS))
    parser.add_argument("--hours", type=float, default=1.0,
                        help="simulated hours (default 1.0)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--json", action="store_true",
                        help="machine-readable output (obs scenario)")
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.scenario](args)
    except BrokenPipeError:
        # output piped into head/less that closed early: not an error
        return 0


if __name__ == "__main__":
    sys.exit(main())
