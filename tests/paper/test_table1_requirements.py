"""Table I bench: the needs/requirements matrix, machine-checked.

Table I of the paper enumerates needs and requirements for
comprehensive production monitoring across five areas (Architecture,
Data Sources, Data Storage and Formats, Analysis and Visualization,
Response).  This bench regenerates the table with a third column — the
module and symbol in this library that implements each requirement —
and *verifies* every claimed symbol actually exists, so the table can
never silently rot.
"""

import importlib


# (area, requirement (abridged from Table I), "module:symbol", notes)
REQUIREMENTS: list[tuple[str, str, str, str]] = [
    ("Architecture",
     "Well-documented interfaces for accessing raw data at maximum "
     "fidelity with the lowest possible overhead",
     "repro.sources.erd:EventRouter",
     "raw binary stream + DelugeTap decoder; overhead metered"),
    ("Architecture",
     "Owners determine data access/transport/storage tradeoffs; "
     "options for scaling up",
     "repro.transport.aggtree:AggregatorTree",
     "configurable fan-in aggregation tree; bus and syslog alternatives"),
    ("Architecture",
     "Where access and transport of data might incur impact, that "
     "impact should be well-documented",
     "repro.obs.introspect:PipelineIntrospector.report",
     "per-collector wall-clock and sample accounting (the collectors "
     "section), with every other selfmon.* surface"),
    ("Architecture",
     "Multiple flexible data paths; direct data to multiple consumers",
     "repro.transport.bus:MessageBus",
     "wildcard topics, N consumers per topic, per-consumer queues"),
    ("Architecture",
     "All monitoring capabilities production, documented, supported",
     "repro.core.registry:MetricRegistry",
     "undocumented metrics are rejected at collector registration"),
    ("Architecture",
     "Tools to transport and store the data in native format",
     "repro.transport.message:encode_json",
     "lossless envelope codecs; events keep structured fields"),
    ("Architecture",
     "Extensibility and modularity are fundamental",
     "repro.pipeline:MonitoringPipeline",
     "every layer injectable; custom collectors/rules/actions register"),
    ("Data Sources",
     "Text (logs), numeric (counters), test results, application "
     "performance information",
     "repro.sources.base:Collector",
     "log, counter, probe, benchmark, health, queue, power collectors"),
    ("Data Sources",
     "Expose all possible data sources for all possible subsystems",
     "repro.pipeline:default_collectors",
     "node, GPU, network, filesystem, scheduler, facility sources"),
    ("Data Sources",
     "The meaning of all raw data should be provided; computations for "
     "derived quantities defined",
     "repro.core.registry:default_registry",
     "unit + meaning + derivation per metric; document() renders it"),
    ("Data Storage",
     "Easy access to historical data in conjunction with current data; "
     "hierarchical storage with locate and reload",
     "repro.storage.tsdb:TimeSeriesStore.archive_before",
     "age demotion to segment refs; located by `ChunkRef`; reads reload "
     "through mmap"),
    ("Data Storage",
     "Analysis results should be able to be stored with raw data",
     "repro.storage.tsdb:TimeSeriesStore",
     "derived series (aggregates, condensations) ingest like raw ones"),
    ("Analysis/Visualization",
     "Analysis at a variety of locations (sources, streaming, store, "
     "exposure points)",
     "repro.pipeline:MonitoringPipeline.add_analysis",
     "hooks at cadence over live stores; SEC on the event stream"),
    ("Analysis/Visualization",
     "Store supports arbitrary extractions and computations",
     "repro.storage.tsdb:TimeSeriesStore.aggregate_across",
     "range, downsample, cross-component aggregation, per-job extract"),
    ("Analysis/Visualization",
     "Concurrent conditions on disparate components identifiable",
     "repro.analysis.correlate:cluster_events",
     "time-window incident clustering + link-failure cascades"),
    ("Analysis/Visualization",
     "High-dimensional and long-term data handled in analyses and "
     "visualizations",
     "repro.viz.series:condense",
     "node->job/cabinet/group condensation; drill-down on demand"),
    ("Analysis/Visualization",
     "Visualization interfaces facilitate easy development of live "
     "data dashboards",
     "repro.viz.dashboard:Dashboard",
     "tiles from live stores; percent-in-state rollups; sparklines"),
    ("Response",
     "Reporting and alerting easily configurable; triggered from "
     "arbitrary locations in the data and analysis pathways",
     "repro.response.sec:SecEngine",
     "single/pair/threshold rules over machine + collector + analysis "
     "events"),
    ("Response",
     "Data and analysis results exposed to applications and system "
     "software",
     "repro.response.actions:ActionEngine",
     "drain/return/kill/downclock actions feed back into the scheduler"),
    ("Response",
     "Envisioned: power-aware scheduling and power redirection based "
     "on current and anticipated needs",
     "repro.response.governor:PowerGovernor",
     "budget admission control + downclock-to-fit (measured in "
     "test_power_budget.py)"),
    ("Response",
     "Envisioned: scheduling and allocation based on application and "
     "resource state",
     "repro.response.governor:CongestionAwarePlacement",
     "placement reads live stall counters and avoids hot regions"),
    ("Response",
     "Envisioned: notification to users of assessments of system "
     "conditions, with per-user access control",
     "repro.viz.userreport:job_report",
     "scoped run reports answer 'why was my run slow?'; "
     "AccessPolicy refuses other users' jobs"),
]


def verify_rows() -> list[tuple[str, str, str, str]]:
    """Resolve every claimed symbol; raises if any requirement rotted."""
    for area, req, target, note in REQUIREMENTS:
        mod_name, _, symbol = target.partition(":")
        mod = importlib.import_module(mod_name)
        obj = mod
        for part in symbol.split("."):
            obj = getattr(obj, part)
    return REQUIREMENTS


class TestTable1:
    def test_every_requirement_maps_to_real_symbol(self):
        rows = verify_rows()
        assert len(rows) == len(REQUIREMENTS)

    def test_all_five_areas_covered(self):
        areas = {r[0] for r in REQUIREMENTS}
        assert areas == {
            "Architecture", "Data Sources", "Data Storage",
            "Analysis/Visualization", "Response",
        }

    def test_render_table(self):
        print("\nTable I — needs & requirements, mapped to implementation")
        print("=" * 76)
        current = None
        for area, req, target, note in verify_rows():
            if area != current:
                print(f"\n[{area}]")
                current = area
            print(f"  - {req}")
            print(f"      -> {target}")
            print(f"         {note}")

    def test_bench_verification(self):
        rows = verify_rows()
        assert len(rows) >= 21
