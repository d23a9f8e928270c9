#!/usr/bin/env python3
"""Compare two benchmark reports: ``compare.py BASE.json NEW.json``.

Rows are matched by (workload, metric).  End-to-end metrics are judged by
the direction and bound ``BENCHMARK.json`` fixes for them; per-layer
metrics have no bound and are printed with their ratio only.  More failed
operations per operation attempted is a regression whatever the timings
say.  Exits 1 on any regression.  ``--selftest`` checks the rules on
synthetic reports.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

SPEC = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
E2E = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]

#: absolute differences below these are never regressions (a 0.1 s set-up
#: that becomes 0.13 s is not news)
ABS_SLACK = {"setup_s": 0.5}
#: the two sides' host canaries may differ by this share before a warning
CALIB_DRIFT = 0.10


def workloads_of(report: dict) -> dict:
    """``{workload: {"metrics", "attempted", "failed"}}`` from either a
    merged set report or a single-run report."""
    if "workloads" in report:
        return report["workloads"]
    out: dict = {}
    for rec in report["runs"]:
        w = out.setdefault(rec["workload"],
                           {"metrics": {}, "attempted": 0, "failed": 0})
        w["metrics"].update(rec["metrics"])
        w["attempted"] += rec["attempted"]
        w["failed"] += rec["failed"]
    return out


def worsening(spec: dict, base: float, new: float) -> float:
    """Relative change in the bad direction, as a share of ``base``."""
    if base == 0:
        return 0.0 if new == 0 else float("inf")
    delta = (new - base) if spec["better"] == "lower" else (base - new)
    return delta / abs(base)


def compare(base: dict, new: dict, out=sys.stdout) -> list[str]:
    """Print one row per workload x metric; return the regressions."""
    regressions: list[str] = []
    a, b = workloads_of(base), workloads_of(new)
    for w in (m["name"] for m in SPEC["workloads"]):
        if w not in a or w not in b:
            continue
        print(f"\n== {w}", file=out)
        print(f"  {'metric':<42s}{'base':>14s}{'new':>14s}{'new/base':>10s}",
              file=out)
        ma, mb = a[w]["metrics"], b[w]["metrics"]
        for name in [*E2E, *PER_LAYER, "trace.overhead_fraction"]:
            if name not in ma or name not in mb:
                continue
            x, y = ma[name]["value"], mb[name]["value"]
            ratio = f"{y / x:10.3f}" if x else f"{'-':>10s}"
            verdict = ""
            spec = E2E.get(name)
            if spec is not None:
                worse = worsening(spec, x, y)
                if (worse > spec["bound"]
                        and abs(y - x) >= ABS_SLACK.get(name, 0.0)):
                    verdict = (f"  REGRESSION: {100 * worse:.1f}% worse, "
                               f"bound {100 * spec['bound']:.0f}%")
                    regressions.append(f"{w}/{name}")
            print(f"  {name:<42s}{x:>14.6g}{y:>14.6g}{ratio}{verdict}",
                  file=out)
        share_a = a[w]["failed"] / max(1, a[w]["attempted"])
        share_b = b[w]["failed"] / max(1, b[w]["attempted"])
        verdict = ""
        if share_b > share_a:
            verdict = "  REGRESSION: more operations fail"
            regressions.append(f"{w}/failed_share")
        print(f"  {'failed_share':<42s}{share_a:>14.6g}{share_b:>14.6g}"
              f"{'':>10s}{verdict}", file=out)
        ca = ma.get("host.calib_ms", {}).get("value")
        cb = mb.get("host.calib_ms", {}).get("value")
        if ca and cb and abs(cb / ca - 1.0) > CALIB_DRIFT:
            print(f"  warning: host.calib_ms moved {100 * (cb / ca - 1):+.0f}%"
                  " between the two sides: the host drifted, rerun "
                  "(verdict unchanged)", file=out)
    print(f"\n{len(regressions)} regression(s)"
          + (": " + ", ".join(regressions) if regressions else ""), file=out)
    return regressions


def selftest() -> int:
    """The comparison rules on synthetic reports."""
    import io

    def report(**values) -> dict:
        metrics = {k: {"value": 100.0, "unit": v["unit"], "n": 1}
                   for k, v in E2E.items()}
        metrics["host.calib_ms"] = {"value": 10.0, "unit": "ms", "n": 2}
        for k, v in values.items():
            metrics[k.replace("__", ".")]["value"] = v
        return {"workloads": {"sweep-27k": {
            "metrics": metrics, "attempted": 1000, "failed": 0}}}

    def verdict(new: dict) -> list[str]:
        return compare(report(), new, out=io.StringIO())

    assert verdict(report()) == []
    # direction: tick time is lower-better, throughput higher-better
    assert verdict(report(tick_p50_ms=130.0)) == ["sweep-27k/tick_p50_ms"]
    assert verdict(report(tick_p50_ms=60.0)) == []
    assert verdict(report(ingest_points_per_s=60.0)) == [
        "sweep-27k/ingest_points_per_s"]
    assert verdict(report(ingest_points_per_s=160.0)) == []
    # inside the bound is not a regression
    inside = 100.0 * (1.0 + 0.9 * E2E["tick_p50_ms"]["bound"])
    assert verdict(report(tick_p50_ms=inside)) == []
    # a failed operation regresses whatever the timings say
    worse = report()
    worse["workloads"]["sweep-27k"]["failed"] = 1
    assert verdict(worse) == ["sweep-27k/failed_share"]
    # host drift warns and leaves the verdict alone
    text = io.StringIO()
    assert compare(report(), report(host__calib_ms=12.0), out=text) == []
    assert "host drifted" in text.getvalue()
    # small absolute set-up differences are ignored
    assert compare(report(setup_s=0.1), report(setup_s=0.14),
                   out=io.StringIO()) == []
    print("compare.py selftest: ok")
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv == ["--selftest"]:
        return selftest()
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (json.loads(Path(p).read_text()) for p in argv)
    return 1 if compare(base, new) else 0


if __name__ == "__main__":
    sys.exit(main())
