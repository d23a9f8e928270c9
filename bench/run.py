#!/usr/bin/env python3
"""One command for the whole benchmark.

``python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload in this process and prints, as its last line of standard
output, the result object ``BENCHMARK.json`` promises (end-to-end metrics
with ``--trace 0``, per-layer metrics with ``--trace 1``).

Without ``--workload`` every workload runs in a **fresh subprocess** —
once untraced, once traced — so peak RSS and heap/GC state are per
workload; ``--out FILE`` keeps the merged report, ``--aa`` runs the set
twice and hands both reports to ``compare.py``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

if __name__ == "__main__" and os.environ.get("PYTHONHASHSEED") != "0":
    # str hashes decide dict layout and set order: pin them before anything
    # is imported, so that a seed gives the same inputs, the same counts and
    # the same heap layout on every run
    os.execve(sys.executable, [sys.executable, *sys.argv],
              {**os.environ, "PYTHONHASHSEED": "0"})

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"          # disk tiers and child reports; gitignored

try:
    SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    import repro  # noqa: F401  (the program under test must be present)
except (OSError, ImportError) as exc:
    sys.exit(f"bench: cannot load the program under test: {exc}")

import harness as h                                    # noqa: E402
from trace import Tracer, instrument_codecs            # noqa: E402
from workloads import WORKLOADS                        # noqa: E402

E2E = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]
UNIT = {m["name"]: m["unit"]
        for m in SPEC["end_to_end"] + SPEC["per_layer"]}

#: set-up is repeated (median reported) while it is cheap enough
_SETUP_REPEATS = 5
_SETUP_REPEAT_BUDGET_S = 4.0

#: trace layer -> (metric, scale, denominator); denominators are named
#: window quantities resolved in :func:`_layer_metrics`
_LAYER_ROWS = {
    "sources.collect": [("sources.collect_ms_per_tick", 1e3, "ticks")],
    "sources.scheduler": [
        ("sources.scheduler_self_ms_per_tick", 1e3, "ticks")],
    "sources.health_gate": [("sources.health_gate_ms_per_tick", 1e3, "ticks")],
    "transport.publish": [
        ("transport.publish_self_us_per_batch", 1e6, "spans")],
    "transport.pump": [("transport.pump_self_ms_per_tick", 1e3, "ticks")],
    "storage.append": [
        ("storage.append_self_us_per_point", 1e6, "points"),
        ("storage.append_self_us_per_batch", 1e6, "spans")],
    "storage.compress": [("storage.compress_us_per_chunk", 1e6, "spans")],
    "storage.rollup": [("storage.rollup_us_per_chunk", 1e6, "spans")],
    "storage.wal": [("storage.wal_us_per_point", 1e6, "points")],
    "storage.segment": [("storage.segment_us_per_chunk", 1e6, "spans")],
    "storage.spill": [("storage.spill_us_per_chunk", 1e6, "spans")],
    "storage.shard_route": [
        ("storage.shard_route_us_per_batch", 1e6, "spans")],
    "storage.read": [("storage.read_self_us_per_query", 1e6, "queries")],
    "storage.decode": [("storage.decode_us_per_chunk", 1e6, "spans")],
    "storage.diskload": [("storage.diskload_us_per_chunk", 1e6, "spans")],
    "storage.logstore": [("storage.logstore_us_per_event", 1e6, "spans")],
    "storage.sql": [("storage.sql_ms_per_tick", 1e3, "ticks")],
    "analysis.streaming": [
        ("analysis.streaming_us_per_point", 1e6, "observed")],
    "response.sec": [("response.sec_ms_per_tick", 1e3, "ticks")],
    "response.actions": [("response.actions_ms_per_tick", 1e3, "ticks")],
    "serve.frontend": [
        ("serve.frontend_self_us_per_query", 1e6, "queries")],
    "serve.federated": [
        ("serve.federated_self_ms_per_query", 1e3, "spans")],
    "viz.render": [("viz.render_self_ms_per_render", 1e3, "spans")],
    "obs.selfmon": [("obs.selfmon_ms_per_emit", 1e3, "emits")],
    "obs.freshness": [("obs.freshness_us_per_batch", 1e6, "spans")],
    "stages.event_plane": [
        ("stages.event_plane_self_ms_per_tick", 1e3, "ticks")],
    "stages.job_tracking": [
        ("stages.job_tracking_self_ms_per_tick", 1e3, "ticks")],
    "stages.supervision": [
        ("stages.supervision_self_ms_per_tick", 1e3, "ticks")],
    "stages.other": [("stages.other_self_ms_per_tick", 1e3, "ticks")],
    "runtime.tick_loop": [
        ("runtime.tick_loop_self_ms_per_tick", 1e3, "ticks")],
    "sites.federation": [
        ("sites.federation_self_ms_per_tick", 1e3, "ticks")],
}

#: request class -> the metric holding its median latency
_CLASS_P50 = {
    "agg": "serve.agg_p50_ms", "drill": "serve.drill_p50_ms",
    "tail": "serve.tail_p50_ms", "cached": "serve.cached_p50_ms",
    "cold": "serve.cold_p50_ms", "render": "viz.render_p50_ms",
    "fed": "serve.fed_query_p50_ms", "readback": "serve.readback_p50_ms",
}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


# -- one workload, in this process -------------------------------------------


def measure(name: str, seed: int, budget: h.Budget, smoke: bool,
            traced: bool, trace_out: str | None) -> dict:
    """Set up, measure and verify one workload; returns its full record."""
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    tracer = Tracer() if traced else None
    canary = h.Canary()
    wl = None
    try:
        setups: list[float] = []
        spent = 0.0
        while True:
            wl = WORKLOADS[name](seed, smoke, workdir / f"setup{len(setups)}",
                                 canary)
            wl.workdir.mkdir()
            canary.sample()
            t0 = h.clock()
            wl.setup()
            t1 = h.clock()
            canary.sample()
            setups.append((t1 - t0) * canary.scale_over(t0, h.clock()))
            spent += t1 - t0
            if (smoke or len(setups) == _SETUP_REPEATS
                    or spent > _SETUP_REPEAT_BUDGET_S):
                break
            wl.close()

        ticks = h.TickLog(wl.pipelines, canary)
        if tracer is not None:
            wl.tracer = tracer
            tracer.wrap(canary, "sample", "bench.canary")
            instrument_codecs(tracer)
            wl.instrument(tracer)
        wl.prepare()
        gc.collect()    # once, before the window; the GC is otherwise left alone
        base = h.counters(wl.pipelines)
        mark: dict = {}

        def at_fixed_work():
            mark.update(h.counters(wl.pipelines), rss_mb=h.peak_rss_mb())

        budget.on_mark = at_fixed_work
        budget.start()
        t0 = h.clock()
        if tracer is not None:
            tracer.phase = 1
            tracer.run("bench.window", wl.window, budget, ticks)
            tracer.phase = 2
        else:
            wl.window(budget, ticks)
        window_s = h.clock() - t0
        canary.sample()
        n_ticks = len(ticks.whole)
        n_queries = wl.reqs.issued
        end = h.counters(wl.pipelines)
        wl.after(ticks)
        canary.sample()
        # one factor for everything timed outside ticks and waves
        host = canary.scale_over(t0, h.clock())

        ops = h.Ops()
        wl.verify(ops)
        final = h.counters(wl.pipelines)
        ops.attempted = int(final["published"] - base["published"]
                            + wl.reqs.issued + len(wl.timed))

        metrics = _metrics(wl, ticks, n_ticks, n_queries, base, end, final,
                           mark, setups, host)
        ledger = []
        if tracer is not None:
            ledger = _layer_metrics(metrics, tracer, ops, n_ticks, n_queries,
                                    end, base, host)
            tracer.warn_unresolved()
            if trace_out:
                tracer.dump(trace_out)
        return {
            "workload": name, "seed": seed, "traced": traced,
            "window_s": window_s, "ticks": n_ticks,
            "correct": ops.failed == 0, "attempted": ops.attempted,
            "failed": ops.failed, "failures": ops.failures,
            "metrics": {k: {"value": v, "unit": UNIT[k], "n": n}
                        for k, (v, n) in metrics.items()},
            "ledger": ledger,
        }
    finally:
        if tracer is not None:
            tracer.restore()
        if wl is not None:
            wl.close()
        shutil.rmtree(workdir, ignore_errors=True)


def _metrics(wl, ticks, n, n_queries, base, end, final, mark, setups,
             host) -> dict[str, tuple[float, int]]:
    """Everything measurable without spans: harness timers and the
    program's public stats surfaces.  Ticks and waves carry their own
    host-speed factor; other timings take the run's, ``host``."""
    mon = ticks.monitor(n)
    sim = host * np.asarray(ticks.sim[:n])
    # over the window; a surface the stack lacks (no disk tier) counts 0
    d = defaultdict(float, {k: end[k] - base[k] for k in end})
    reqs = wl.reqs
    m: dict[str, tuple[float, int]] = {}

    m["setup_s"] = (h.median(setups), len(setups))
    m["ingest_points_per_s"] = (_ratio(d["stored"], mon.sum()), n)
    m["tick_p50_ms"] = (1e3 * h.median(mon), n)
    # a sum, like ingest: waves differ with where in a seal cycle they
    # land, and whole cycles hold the same mix of them every run
    walls = reqs.wave_walls()
    m["queries_per_s"] = (
        _ratio(sum(k for k, _, _ in reqs.waves), walls.sum()), len(walls))
    # both read at the window's fixed-work mark, not at its end
    m["bytes_per_point"] = (
        _ratio(mark["compressed_bytes"], mark["samples"]), 1)
    m["peak_rss_mb"] = (mark["rss_mb"], 1)

    m["cluster.simulate_ms_per_tick"] = (1e3 * sim.mean(), n)
    m["sources.points_per_tick"] = (d["published"] / n, n)
    m["sources.collector_failures"] = (sum(
        c.errors for p in wl.pipelines for c in p.scheduler.collectors), 1)
    m["transport.batches_per_tick"] = (d["batches"] / n, n)
    m["transport.dropped"] = (final["dropped"], 1)
    m["storage.series"] = (end["series"], 1)
    m["storage.sealed_chunks_per_tick"] = (d["sealed_chunks"] / n, n)
    m["storage.spills_per_tick"] = (d["spills"] / n, n)
    m["storage.wal_syncs_per_tick"] = (d["wal_syncs"] / n, n)
    m["storage.wal_bytes_per_point"] = (
        _ratio(d["wal_bytes"], d["stored"]), 1)
    lookups = d["cache_hits"] + d["cache_misses"]
    m["storage.chunkcache_hit_ratio"] = (
        _ratio(d["cache_hits"], lookups), int(lookups))
    m["storage.chunkcache_evictions_per_query"] = (
        _ratio(d["cache_evictions"], n_queries), n_queries)
    m["storage.disk_loads_per_query"] = (
        _ratio(d["disk_loads"], n_queries), n_queries)
    m["analysis.detections_per_tick"] = (d["detections"] / n, n)
    answered = d["result_hits"] + d["result_misses"]
    m["serve.result_cache_hit_ratio"] = (
        _ratio(d["result_hits"], answered), int(answered))
    planned = d["pyramid_answers"] + d["raw_answers"]
    m["serve.pyramid_ratio"] = (
        _ratio(d["pyramid_answers"], planned), int(planned))
    m["serve.rejected"] = (final["rejected"], 1)
    for kind, metric in _CLASS_P50.items():
        times = reqs.by_class.get(kind, ())
        m[metric] = (1e3 * host * h.median(times), len(times))
    m["serve.wave_p50_ms"] = (1e3 * h.median(walls), len(walls))
    every = reqs.all_times()
    m["serve.query_p99_ms"] = (
        1e3 * host * h.tail_percentile(every, 99.0), len(every))
    m["core.ledger_unaccounted_points"] = (sum(
        abs(p.delivery_report().unaccounted) for p in wl.pipelines), 1)
    m["core.health_impaired"] = (sum(
        len(h.impaired_components(p)) for p in wl.pipelines), 1)
    m["runtime.barrier_wait_ms_per_tick"] = (
        host * d["barrier_wait_ms"] / n, n)
    m["runtime.gc_gen2_collections"] = (d["gc_gen2"], 1)
    m["pipeline.tick_p95_ms"] = (1e3 * h.tail_percentile(mon, 95.0), n)
    m["pipeline.tick_max_ms"] = (1e3 * float(mon.max()), n)
    m["host.calib_ms"] = (1e3 * h.Canary.REF_S / host, len(wl.canary.at))
    m["repo.src_lines"] = (h.src_lines(ROOT / "src"), 1)
    for name in ("storage.snapshot_s", "storage.recover_s"):
        m[name] = (host * wl.timed.get(name, 0.0), int(name in wl.timed))
    for name in ("storage.crash_unsynced_points",
                 "storage.disk_bytes_per_point"):
        m[name] = (wl.extra.get(name, 0.0), int(name in wl.extra))
    return m


def _layer_metrics(metrics, tracer, ops, n_ticks, n_queries, end, base,
                   host) -> list:
    """Span-derived metrics, the ledger rows, and the ledger's integrity
    checks.  Returns ``[layer, self_s, share_of_monitor_wall, spans]``."""
    led = tracer.ledger(phase=1)
    layers = led["layers"]
    denominators = {
        "ticks": n_ticks, "queries": n_queries,
        "points": end["stored"] - base["stored"],
        "observed": end["observed"] - base["observed"],
        "emits": end["selfmon_emits"] - base["selfmon_emits"],
    }
    for layer, rows in _LAYER_ROWS.items():
        self_s, spans = layers.get(layer, (0.0, 0))
        for metric, scale, per in rows:
            denom = spans if per == "spans" else denominators[per]
            metrics[metric] = (host * scale * _ratio(self_s, denom),
                               int(denom))
    metrics["runtime.worker_busy_ms_per_tick"] = (
        host * 1e3 * led["worker_busy_s"] / n_ticks, n_ticks)

    total = sum(s for s, _ in layers.values())
    root = led["root_s"]
    ops.check(abs(total - root) <= 1e-6 * max(root, 1e-9),
              f"ledger does not telescope: layers {total!r} != roots {root!r}")
    residual = _ratio(layers.get("bench.window", (0.0, 0))[0], root)
    metrics["pipeline.residual_fraction"] = (residual, led["spans"])
    ops.check(residual < 0.02,
              f"{residual:.4f} of the window lies in no layer's span")

    # shares are of the window's wall inside the monitoring stack: not the
    # simulator's, not the harness's own
    monitor = root - sum(s for layer, (s, _) in layers.items()
                         if layer == "cluster.simulate"
                         or layer.startswith("bench."))
    return [[layer, s, _ratio(s, monitor), c]
            for layer, (s, c) in sorted(layers.items(),
                                        key=lambda kv: -kv[1][0])]


# -- reporting ----------------------------------------------------------------


def _print_record(rec: dict) -> None:
    mode = "traced" if rec["traced"] else "untraced"
    print(f"\n== {rec['workload']}  seed {rec['seed']}  {mode}  "
          f"window {rec['window_s']:.2f} s  {rec['ticks']} ticks")
    for k in PER_LAYER if rec["traced"] else E2E:
        v = rec["metrics"][k]
        print(f"  {k:<42s}{v['value']:>16.6g} {v['unit']:<9s} n={v['n']}")
    if rec["ledger"]:
        print("  -- wall-time ledger of the window (self time; share of "
              "the wall spent in the monitoring stack)")
        for layer, self_s, share, spans in rec["ledger"]:
            print(f"  {layer:<42s}{self_s:>12.4f} s {100 * share:>6.1f}%"
                  f"  spans={spans}")
    print(f"  ops attempted {rec['attempted']}  failed {rec['failed']}")
    for why in rec["failures"]:
        print(f"  FAILED: {why}")


def _result_line(rec: dict) -> str:
    names = PER_LAYER if rec["traced"] else E2E
    return json.dumps({
        "correct": rec["correct"], "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": {k: {"value": rec["metrics"][k]["value"],
                        "unit": rec["metrics"][k]["unit"]} for k in names},
    })


def _header(args) -> dict:
    return {
        "seed": args.seed, "seconds": args.seconds, "units": args.units,
        "smoke": args.smoke, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "repo.src_lines": h.src_lines(ROOT / "src"),
    }


# -- every workload, each in a fresh subprocess -------------------------------


def _child(args, workload: str, trace: int) -> dict:
    WORK.mkdir(exist_ok=True)
    fd, out = tempfile.mkstemp(prefix="report-", suffix=".json", dir=WORK)
    os.close(fd)
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(trace), "--out", out]
    if args.smoke:
        cmd.append("--smoke")
    if args.units is not None:
        cmd += ["--units", str(args.units)]
    if trace and args.trace_out:
        cmd += ["--trace-out", f"{args.trace_out}.{workload}.json"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL)
        text = Path(out).read_text()
        if not text:
            sys.exit(f"bench: {workload} (trace {trace}) died with exit "
                     f"code {proc.returncode} before reporting")
        return json.loads(text)["runs"][0]
    finally:
        os.unlink(out)


def run_set(args) -> dict:
    """All selected passes of all workloads -> the merged report."""
    passes = [0, 1] if args.trace is None else [args.trace]
    report = {"header": _header(args), "runs": [], "workloads": {}}
    for w in (m["name"] for m in SPEC["workloads"]):
        merged: dict = {"correct": True, "attempted": 0, "failed": 0,
                        "metrics": {}}
        for trace in passes:
            rec = _child(args, w, trace)
            _print_record(rec)
            report["runs"].append(rec)
            merged["correct"] &= rec["correct"]
            merged["attempted"] += rec["attempted"]
            merged["failed"] += rec["failed"]
            # end-to-end numbers come only from the untraced pass
            keep = PER_LAYER if trace else E2E
            merged["metrics"].update(
                {k: rec["metrics"][k] for k in keep})
            if trace:
                merged["ledger"] = rec["ledger"]
        if len(passes) == 2:
            # what tracing costs is only known with both passes in hand:
            # traced / untraced monitor wall per stored point - 1
            plain, traced = report["runs"][-2:]
            ips = "ingest_points_per_s"
            overhead = _ratio(plain["metrics"][ips]["value"],
                              traced["metrics"][ips]["value"]) - 1.0
            merged["metrics"]["trace.overhead_fraction"] = {
                "value": overhead, "unit": "ratio", "n": 2}
            print(f"  {'trace.overhead_fraction':<42s}{overhead:>16.6g} ratio")
        report["workloads"][w] = merged
    return report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                    help="length of the measured window (time box)")
    ap.add_argument("--units", type=int,
                    help="run exactly this many loop units instead of a "
                         "time box, so counts repeat exactly for a seed")
    ap.add_argument("--trace", type=int, choices=(0, 1),
                    help="1 = record spans and report per-layer metrics; "
                         "default: 0 for one workload, both for the set")
    ap.add_argument("--trace-out", metavar="FILE",
                    help="write the traced run's spans here at exit")
    ap.add_argument("--smoke", action="store_true",
                    help="96-node sizes and a few fixed units (seconds)")
    ap.add_argument("--aa", action="store_true",
                    help="run the set twice and compare the two reports")
    ap.add_argument("--list", action="store_true",
                    help="print workloads and metrics, run nothing")
    ap.add_argument("--out", metavar="FILE", help="write the report as JSON")
    args = ap.parse_args(argv)

    if args.list:
        for w in SPEC["workloads"]:
            print(f"workload   {w['name']:<14s}{w['why']}")
        for kind in ("end_to_end", "per_layer"):
            for m in SPEC[kind]:
                bound = f"  bound {m['bound']}" if "bound" in m else ""
                print(f"{kind:<11s}{m['name']:<42s}{m['unit']:<9s}"
                      f"{m['better']} is better{bound}")
        return 0

    if args.workload is None:
        if args.aa:
            import compare
            paths = []
            for i in (1, 2):
                print(f"\n#### A/A set {i}")
                report = run_set(args)
                paths.append(str(WORK / f"aa-{i}.json"))
                Path(paths[-1]).write_text(json.dumps(report, indent=1))
            return compare.main(paths)
        report = run_set(args)
        if args.out:
            Path(args.out).write_text(json.dumps(report, indent=1))
        ok = all(w["correct"] for w in report["workloads"].values())
        print(json.dumps({
            "correct": ok,
            "attempted": sum(w["attempted"]
                             for w in report["workloads"].values()),
            "failed": sum(w["failed"] for w in report["workloads"].values()),
            "metrics": {f"{name}/{k}": {"value": w["metrics"][k]["value"],
                                        "unit": w["metrics"][k]["unit"]}
                        for name, w in report["workloads"].items()
                        for k in E2E if k in w["metrics"]},
        }))
        return 0 if ok else 1

    if args.units is not None:
        budget = h.Budget(units=args.units)
    elif args.smoke:
        budget = h.Budget(units=WORKLOADS[args.workload].SMOKE["units"])
    else:
        budget = h.Budget(seconds=args.seconds)
    rec = measure(args.workload, args.seed, budget, args.smoke,
                  bool(args.trace), args.trace_out)
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"header": _header(args), "runs": [rec]}, indent=1))
    _print_record(rec)
    print(_result_line(rec))
    return 0 if rec["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
