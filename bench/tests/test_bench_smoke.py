"""The benchmark's own smoke test: all four workloads at 96-node scale.

Run as ``PYTHONPATH=src python -m pytest bench/tests -q`` (tier-1's
``testpaths`` stays ``tests``).  Every check goes through the command line
the driver uses, so what is tested is what is measured.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
BYTE_DRIVEN = {"storage.spills_per_tick", "storage.wal_syncs_per_tick",
               "storage.crash_unsynced_points"}


def _run(workload: str, trace: int, out: Path) -> tuple[dict, dict]:
    """One smoke run -> (the driver's result line, the full record)."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "0", "--smoke", "--trace", str(trace), "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, json.loads(out.read_text())["runs"][0]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_emits_the_declared_vocabulary(workload, tmp_path):
    records = {}
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        result, records[trace] = _run(workload, trace, tmp_path / "r.json")
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True, records[trace]["failures"]
        assert result["failed"] == 0 and result["attempted"] >= 1
        declared = {m["name"]: m["unit"] for m in SPEC[kind]}
        # every declared name, nothing else, units as declared
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
        assert all(isinstance(v["value"], (int, float))
                   for v in result["metrics"].values())
        # whatever a run measures must be in the vocabulary
        known = {m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
        assert set(records[trace]["metrics"]) <= known
    for name in (m["name"] for m in SPEC["end_to_end"]):
        assert records[0]["metrics"][name]["value"] > 0, name

    # the traced run carries the ledger, and its integrity checks passed
    # (a ledger that does not telescope fails the run: correct is False)
    traced = records[1]
    assert traced["ledger"], "traced run produced no ledger"
    assert traced["metrics"]["pipeline.residual_fraction"]["value"] < 0.02

    # same seed, same fixed units: every count repeats exactly.  Bytes
    # only nearly — the selfmon series store wall-clock readings, and how
    # well those compress differs in the fourth digit — and with them the
    # counts that byte budgets drive (spills, fsync batches, the crash tail)
    plain = records[0]
    assert plain["attempted"] == traced["attempted"]
    assert plain["ticks"] == traced["ticks"]
    for name, m in plain["metrics"].items():
        again = traced["metrics"][name]["value"]
        if name in BYTE_DRIVEN or m["unit"] == "B/point":
            assert m["value"] == pytest.approx(again, rel=0.05), name
        elif m["unit"] == "count" and not name.startswith("runtime."):
            assert m["value"] == again, name


def test_compare_selftest():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "compare.py"), "--selftest"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and bench/, the command
    exits non-zero and prints no result."""
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", WORKLOADS[0],
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
