"""Tests for the ``python -m repro`` command-line driver.

The CLI shows what tier-1 proves elsewhere, so each scenario is held
only to running to completion and printing its characteristic line.
"""

import subprocess
import sys

import pytest

from repro.__main__ import COMMANDS

#: per scenario: the simulated hours it runs for and one line its
#: output carries; a scenario missing here still has to exit 0
SHOWS = {
    "demo": ("0.2", "=== system status"),
    "figures": ("0.2", "## Figure 3"),
    "registry": ("0", "node.power_w"),
    "dashboard": ("0.2", "shareable spec (JSON):"),
    "obs": ("0.2", "=== monitoring-plane health"),
    "chaos": ("0.2", "health-transition timeline:"),
    "store": ("0.2", "unsynced points moved to accounted loss"),
    "slo": ("0.1", "--- freshness waterfall [tree]"),
    "serve": ("0.2", "  tenants:"),
    "sites": ("0.05", "per-site capability matrix"),
}


def run_cli(*args, timeout=300):
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


class TestCli:
    @pytest.mark.parametrize("scenario", sorted(COMMANDS))
    def test_scenario_runs_and_shows_its_line(self, scenario):
        hours, line = SHOWS.get(scenario, ("0.1", ""))
        proc = run_cli(scenario, "--hours", hours)
        assert proc.returncode == 0, proc.stderr
        assert line in proc.stdout

    def test_obs_scenario_reports_monitoring_plane(self):
        proc = run_cli("obs", "--hours", "0.2")
        assert proc.returncode == 0
        assert "monitoring-plane health" in proc.stdout
        assert "data-path completeness" in proc.stdout
        assert "stage timings" in proc.stdout
        assert "selfmon.bus.completeness" in proc.stdout
        assert "selfmon.collector.sweep_p95_ms" in proc.stdout
        assert "chunk cache:" in proc.stdout
        assert "selfmon.store.cache_hits" in proc.stdout
        assert "analysis:" in proc.stdout
        assert "selfmon.analysis.batches" in proc.stdout

    def test_obs_reports_serving_plane(self):
        proc = run_cli("obs", "--hours", "0.2")
        assert proc.returncode == 0
        assert "serve:" in proc.stdout
        assert "selfmon.serve.cache_hit_ratio" in proc.stdout

    def test_obs_json_mode_emits_machine_readable_report(self):
        import json

        proc = run_cli("obs", "--hours", "0.2", "--json")
        assert proc.returncode == 0
        from repro.obs.selfmetrics import VITALS

        doc = json.loads(proc.stdout)
        assert set(doc) == {"report", "selfmon"}
        # every VITALS group is a section of the report, by name
        for section, _read, _rows in VITALS:
            assert section in doc["report"], section
        assert doc["report"]["collectors"]["node_counters"]["samples"] > 0
        assert "freshness" in doc["report"]
        assert doc["report"]["freshness"]["exact"] is True
        assert "selfmon.freshness.e2e_p99_s" in doc["selfmon"]
        assert "selfmon.trace.dropped" in doc["selfmon"]

    def test_unknown_scenario_rejected(self):
        proc = run_cli("nonsense")
        assert proc.returncode != 0
        assert "invalid choice" in proc.stderr
