"""Command-line demo driver: ``python -m repro [scenario]``.

A scenario is a :class:`~repro.sites.SiteConfig` plus a monitor-side
fault schedule, run for ``--hours`` on one site (a 96-node all-GPU
dragonfly with a hung node and a slow OST) by one runner, then shown.
The CLI shows; tier-1 proves: what a scenario prints (ledger balance,
exact waterfalls, exact answers, declared capabilities) is pinned by the
tests, so a scenario exits 0 when it completes and an exception is the
failure signal.

Scenarios:

* ``demo``      (default) alerts and the live dashboard;
* ``figures``   Figure 3 and Figure 4 style plots of the run;
* ``registry``  the metric data dictionary (no run);
* ``dashboard`` the shareable operations dashboard spec, rendered;
* ``obs``       the monitor's health report and its ``selfmon.*`` series;
* ``chaos``     monitor faults: health timeline, self-alerts, ledger;
* ``slo``       the freshness waterfall of each transport tier;
* ``store``     a spilling sharded disk store snapshotted, crashed, reopened;
* ``serve``     two tenants' dashboard queries through the serving plane;
* ``sites``     the ten paper sites: Table I, a federated query, ledgers.

``obs --json`` emits the health report and the stored ``selfmon.*``
series as machine-readable JSON instead of text.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .obs.introspect import section_lines


def _run(args, *, faults=(), streaming=(), **knobs):
    """The CLI's site, declared by ``knobs``, run for ``args.hours`` with
    the monitor ``faults`` injected (``streaming`` detectors attached
    first); returns the pipeline with its bus flushed."""
    from .cluster import FaultInjector, HungNode, SlowOst
    from .sites import SiteConfig, build_machine, build_site

    config = SiteConfig(gpu_nodes="all", mean_interarrival_s=180,
                        seed=args.seed, **knobs)
    machine = build_machine(config)
    machine.faults.add(HungNode(start=900.0, duration=1200.0,
                                node=machine.topo.nodes[5]))
    machine.faults.add(SlowOst(start=1800.0, duration=1200.0, ost=0,
                               bw_factor=0.1))
    pipeline = build_site(config, machine=machine)
    for detector in streaming:
        pipeline.add_streaming(detector)
    injector = FaultInjector(list(faults))
    end = machine.now + args.hours * 3600.0
    while machine.now < end - 1e-9:
        injector.step(pipeline, machine.now)
        pipeline.step(10.0)
    injector.step(pipeline, machine.now)   # revert what ended on the last tick
    pipeline.bus.flush()
    return pipeline


def _show(pipeline, *sections) -> None:
    """Print health-report sections through the introspector's renderer."""
    report = pipeline.introspect().report()
    for name in sections:
        if report.sections[name]:
            print("\n".join(section_lines(name.replace("_", " "),
                                          report.sections[name])))


def _alerts(pipeline, prefix: str, limit: int, width: int | None) -> None:
    alerts = [a for a in pipeline.alerts.alerts if a.rule.startswith(prefix)]
    print(f"\n{prefix or 'all'} alerts ({len(alerts)}):")
    for a in alerts[:limit]:
        print(f"  t={a.time:6.0f}s [{a.severity.name:8}] {a.rule:22} "
              f"{a.component}: {a.message[:width]}")
    if len(alerts) > limit:
        print(f"  ... and {len(alerts) - limit} more")


def cmd_demo(args) -> int:
    print(f"simulating {args.hours:g} h with a hung node and a slow OST...")
    pipeline = _run(args)
    _alerts(pipeline, "", limit=40, width=54)
    print()
    print(pipeline.dashboard().render(pipeline.machine.now, window_s=1200.0))
    stats = pipeline.tsdb.stats()
    print(f"\n{stats.samples} samples / {stats.series} series stored, "
          f"{len(pipeline.logs)} log events, "
          f"{len(pipeline.jobs)} jobs indexed")
    return 0


def cmd_figures(args) -> int:
    from .viz.figures import figure3_power, figure4_drilldown

    pipeline = _run(args)
    now = pipeline.machine.now
    print(figure3_power(pipeline.tsdb, 0.0, now).render(height=7))
    fig4, _result = figure4_drilldown(pipeline.tsdb, pipeline.jobs, 0.0, now)
    print()
    print(fig4.render(height=7))
    return 0


def cmd_registry(args) -> int:
    from .core.registry import default_registry

    print(default_registry().document())
    return 0


def cmd_dashboard(args) -> int:
    from .viz.dashspec import operations_dashboard

    pipeline = _run(args)
    spec = operations_dashboard()
    print("shareable spec (JSON):")
    print(spec.to_json())
    print()
    print(spec.render(pipeline.tsdb, pipeline.machine.now))
    return 0


def cmd_obs(args) -> int:
    from .analysis.streaming import (
        StreamingOutlierDetector,
        StreamingRateWatch,
        StreamingStats,
    )

    as_json = getattr(args, "json", False)
    if not as_json:
        print(f"simulating {args.hours:g} h, monitoring the monitoring...")
    # streaming detectors on the hot sweeps, so the analysis plane has
    # something to self-report (the analysis sections below)
    pipeline = _run(args, streaming=(
        StreamingStats(),
        StreamingOutlierDetector(("node.power_w",), z_threshold=6.0),
        StreamingRateWatch("gpu.ecc_dbe", max_rate_per_s=0.01),
    ))
    tsdb = pipeline.tsdb
    series = {}
    for name in sorted({k.metric for k in tsdb.keys()
                        if k.metric.startswith("selfmon.")}):
        comps = tsdb.components(name)
        series[name] = {"components": len(comps),
                        "latest": float(tsdb.query(name, comps[0]).values[-1])}
    if as_json:
        print(json.dumps(
            {"report": pipeline.introspect().report().as_dict(),
             "selfmon": series},
            indent=2, sort_keys=True, default=str,
        ))
        return 0
    print()
    print(pipeline.introspect().render())
    print(f"\nselfmon series stored ({len(series)} metrics):")
    for name, s in series.items():
        print(f"  {name:<35} {s['components']:3d} component(s), "
              f"latest={s['latest']:.3f}")
    return 0


def cmd_chaos(args) -> int:
    from .obs.chaos import (
        CollectorHang,
        CollectorRaise,
        ShardOutage,
        TransportDropStorm,
        TransportStall,
    )

    faults = [
        CollectorRaise(start=600.0, duration=900.0, target="sedc"),
        CollectorHang(start=1200.0, duration=600.0, target="node_counters"),
        TransportStall(start=1400.0, duration=400.0),
        TransportDropStorm(start=2000.0, duration=800.0, drop_every=3),
        ShardOutage(start=3000.0, duration=1000.0, shard=1),
    ]
    print(f"simulating {args.hours:g} h while injecting faults into the "
          f"monitoring plane itself...")
    print("\nfault schedule (monitor-side ground truth):")
    for f in faults:
        target = f" target={f.target}" if f.target else ""
        print(f"  {f.name:<22} t=[{f.start:.0f}, {f.start + f.duration:.0f})"
              f"{target}")
    pipeline = _run(args, faults=faults, transport="partitioned", shards=4,
                    collector_budget_s=0.01)
    print("\nhealth-transition timeline:")
    print(pipeline.supervisor.timeline())
    print()
    _show(pipeline, "health")
    _alerts(pipeline, "monitor_self", limit=8, width=52)
    # a breach's message names its exemplar's worst hop ("pump" for the
    # stall): the alert points at where the latency lives
    _alerts(pipeline, "freshness_slo", limit=4, width=None)
    print()
    print(pipeline.delivery_report().render())
    return 0


def cmd_store(args) -> int:
    import tempfile
    from dataclasses import dataclass

    from .cluster import Fault
    from .obs.chaos import StoreCrash
    from .obs.selfmetrics import plain

    @dataclass
    class Snapshot(Fault):
        """A manifest snapshot on the schedule: an event, not a fault."""

        name: str = "snapshot"
        duration: float | None = 0.0

        def apply(self, p):
            p.tsdb.snapshot()

    store_dir = tempfile.mkdtemp(prefix="repro-store-")
    total_s = args.hours * 3600.0
    snapshot = Snapshot(start=0.5 * total_s)
    crash = StoreCrash(start=0.75 * total_s)
    print(f"simulating {args.hours:g} h on 4 disk-backed shards in "
          f"{store_dir}\n  with a 16 KiB hot budget per shard (sealed "
          f"chunks past it spill to mmap-backed segments)")
    pipeline = _run(args, faults=[snapshot, crash], shards=4,
                    store_dir=store_dir, hot_bytes=16 << 10, chunk_size=24)
    tsdb = pipeline.tsdb
    print(f"\nsnapshot at t={snapshot.start:.0f}s; crash at "
          f"t={crash.start:.0f}s (files truncated to the last fsync, "
          f"store reopened on its directories)")
    print("\n".join(section_lines("recovery", plain(crash.recovery))))
    print(f"  {crash.points_accounted} unsynced points moved to accounted "
          f"loss ('crash-unsynced')")

    # cold query sweep: full-range reads hit spilled chunks through the
    # mmap (decode straight from the mapped buffer, no staging copy)
    tsdb.cache.clear()
    metrics = sorted(tsdb.points_by_metric())[:50]
    swept = sum(len(tsdb.query(m, c, 0.0, pipeline.machine.now + 1.0).times)
                for m in metrics for c in tsdb.components(m))
    print(f"\ncold query sweep: {swept} points read back over "
          f"{len(metrics)} metrics (spilled chunks decoded from mmap)")
    print()
    _show(pipeline, "disk_tier")
    print()
    print(pipeline.delivery_report().render())
    tsdb.close()
    return 0


def cmd_slo(args) -> int:
    from .sites.config import TRANSPORT_TIERS

    print(f"tracing ingest-to-queryable freshness over {args.hours:g} h "
          f"on each transport tier...")
    for tier in TRANSPORT_TIERS:
        pipeline = _run(args, transport=tier)
        print()
        print(pipeline.freshness.render_waterfall())
        _show(pipeline, "freshness_slos")
    return 0


def cmd_serve(args) -> int:
    from .serve.quota import TenantQuota

    print(f"ingesting {args.hours:g} h across 4 shards, then serving "
          f"dashboard queries through the multi-tenant front end...")
    pipeline = _run(args, shards=4, quotas={
        "ops": TenantQuota(qps=1000.0),
        # the sim clock is frozen between ticks, so the guest's bucket
        # never refills mid-burst: burst admissions, then shed
        "guest": TenantQuota(qps=1.0, burst=8.0),
    })
    fe, t1 = pipeline.frontend, pipeline.machine.now
    # two dashboard refresh rounds per tenant: round two should be all
    # result-cache hits (no ingest between them)
    for tenant in ("ops", "guest"):
        for _round in range(2):
            for m in ("node.load1", "node.power_w", "node.temp_c",
                      "fs.read_bps", "queue.depth"):
                fe.aggregate_across(m, t0=0.0, t1=t1, step=60.0,
                                    agg="mean", tenant=tenant)
                fe.aggregate_across(m, t0=0.0, t1=t1, step=600.0,
                                    agg="max", tenant=tenant)
                comps = fe.components(m, tenant=tenant)
                if comps:
                    fe.downsample(m, comps[0], 0.0, t1, 60.0,
                                  agg="mean", tenant=tenant)
    print()
    _show(pipeline, "serve")
    return 0


def cmd_sites(args) -> int:
    from .sites import Federation, site_capabilities
    from .viz.sitematrix import capability_matrix

    fed = Federation.from_presets()
    nodes = sum(len(p.machine.topo.nodes) for p in fed.pipelines.values())
    print(f"standing up {len(fed.pipelines)} paper sites ({nodes} nodes "
          f"total) on one simulated clock, {args.hours:g} h campaign...")
    fed.run(hours=args.hours)
    fed.flush()

    # Table I, regenerated: each built stack introspected live, cells
    # that differ from the declared row flagged
    rows, drift = [], {}
    for name, p in fed.pipelines.items():
        declared, live = p.site_config.capabilities(), site_capabilities(p)
        rows.append(live)
        drift[name] = sorted(k for k in declared if declared[k] != live.get(k))
    print()
    print(capability_matrix(rows, drift))

    fe = fed.frontend()
    metric = "cabinet.power_w"
    batch = fe.aggregate_across(metric, t0=0.0, t1=fed.now, step=600.0,
                                agg="sum")
    print(f"\nfederated query: sum({metric}) across "
          f"{len(fe.components(metric))} cabinets at {len(fed.pipelines)} "
          f"sites, 600 s buckets -> {len(batch)} buckets")
    finite = batch.values[np.isfinite(batch.values)]
    if len(finite):
        print(f"  cross-site power envelope: min {finite.min():,.0f} W, "
              f"mean {finite.mean():,.0f} W, max {finite.max():,.0f} W")
    s = fe.stats()
    print(f"  fan-out: {s.fanouts} site calls over {s.queries} federated "
          f"queries, {s.partial_answers} partial, "
          f"{sum(s.site_errors.values())} site errors")

    print("\nmerged health timeline (site-qualified):")
    print(fed.timeline())
    print(f"\n{'site':<8} {'published':>10} {'stored':>10} {'lost':>6} "
          f"{'pending':>8} {'in_flight':>9} {'unacct':>6}")
    for name, r in fed.delivery_reports().items():
        print(f"{name:<8} {r.published:>10} {r.stored:>10} {r.lost:>6} "
              f"{r.pending:>8} {r.in_flight:>9} {r.unaccounted:>6}")
    return 0


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
