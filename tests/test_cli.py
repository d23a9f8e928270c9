"""Tests for the ``python -m repro`` command-line driver."""

import subprocess
import sys



def run_cli(*args, timeout=300):
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


class TestCli:
    def test_registry_prints_data_dictionary(self):
        proc = run_cli("registry")
        assert proc.returncode == 0
        assert "node.power_w" in proc.stdout
        assert "meaning" in proc.stdout

    def test_demo_runs_and_alerts(self):
        proc = run_cli("demo", "--hours", "0.4")
        assert proc.returncode == 0
        assert "alerts:" in proc.stdout
        assert "soft_lockup" in proc.stdout   # the injected hung node
        assert "system status" in proc.stdout

    def test_dashboard_scenario(self):
        proc = run_cli("dashboard", "--hours", "0.2")
        assert proc.returncode == 0
        assert "shareable spec" in proc.stdout
        assert "operations" in proc.stdout

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

    def test_slo_prints_exact_waterfall_for_all_tiers(self):
        proc = run_cli("slo", "--hours", "0.3")
        assert proc.returncode == 0
        for tier in ("flat", "partitioned", "tree"):
            assert f"freshness waterfall [{tier}]" in proc.stdout
        # hop attribution telescopes with no epsilon on every tier
        assert proc.stdout.count("exact: sum(hops)") == 3
        assert "!=" not in proc.stdout
        assert ("sum(per-hop latency) == end-to-end latency exactly"
                in proc.stdout)

    def test_chaos_scenario_recovers_and_reconciles(self):
        proc = run_cli("chaos", "--hours", "1.2")
        assert proc.returncode == 0
        assert "fault schedule" in proc.stdout
        assert "health-transition timeline:" in proc.stdout
        assert "monitor component" in proc.stdout
        # the supervised lifecycle healed everything...
        assert "supervised components OK" in proc.stdout
        # ...the SEC escalated on the monitor's own degradation...
        assert "monitor_self_degraded" in proc.stdout
        # ...and the ledger reconciled exactly
        assert "delivery ledger" in proc.stdout
        assert "unaccounted" in proc.stdout
        assert "balanced: published == stored + lost" in proc.stdout
        assert "chaos campaign PASSED" in proc.stdout

    def test_serve_scenario_is_exact_and_sheds_guest(self):
        proc = run_cli("serve", "--hours", "0.3")
        assert proc.returncode == 0
        assert "pyramid answers" in proc.stdout
        assert "result cache:" in proc.stdout
        assert "guest" in proc.stdout and "ops" in proc.stdout
        # the burst-limited guest tenant was shed, the ops tenant not
        assert "match the raw decompress path exactly" in proc.stdout
        assert "EXACTNESS VIOLATION" not in proc.stdout

    def test_obs_reports_serving_plane(self):
        proc = run_cli("obs", "--hours", "0.2")
        assert proc.returncode == 0
        assert "serve:" in proc.stdout
        assert "selfmon.serve.cache_hit_ratio" in proc.stdout

    def test_sites_stands_up_the_federation(self):
        proc = run_cli("sites", "--hours", "0.1")
        assert proc.returncode == 0
        assert "per-site capability matrix" in proc.stdout
        # all ten paper sites appear as matrix rows
        for site in ("lanl", "ncsa", "nersc", "csc", "cscs", "ornl",
                     "kaust", "alcf", "snl", "hlrs"):
            assert f"\n{site}" in proc.stdout
        assert "federated query: sum(cabinet.power_w)" in proc.stdout
        assert "delivery identity holds exactly" in proc.stdout
        assert "IMBALANCED" not in proc.stdout
        assert "drift" not in proc.stdout.split("matrix")[0]

    def test_unknown_scenario_rejected(self):
        proc = run_cli("nonsense")
        assert proc.returncode != 0
        assert "invalid choice" in proc.stderr
