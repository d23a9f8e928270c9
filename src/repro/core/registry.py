"""Metric schema registry.

Table I (*Data Sources*) requires: "The meaning of all raw data should be
provided. Computations required to extract meaningful quantities from raw
data should be defined."  The registry is that contract in code: every
metric flowing through the stack is declared here with its unit, its
semantic class (gauge / counter / ratio), the component level it applies
to, a prose meaning, and — for derived metrics — the formula used to
compute it from raw sources.

Analyses consult the registry rather than hard-coding knowledge about
units, so a congestion analysis written against ``link.stall_ratio`` works
on any platform whose collectors publish that metric.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Iterator

__all__ = ["MetricClass", "MetricSpec", "MetricRegistry", "default_registry"]


class MetricClass(str, enum.Enum):
    GAUGE = "gauge"          # point-in-time level (power draw, temperature)
    COUNTER = "counter"      # monotonically increasing count (flits, errors)
    RATIO = "ratio"          # dimensionless 0..1 (stall ratio, utilization)
    LATENCY = "latency"      # response-time measurement (probe latencies)
    FOM = "fom"              # benchmark figure of merit (higher is better)


@dataclass(frozen=True, slots=True)
class MetricSpec:
    """Declared schema of one metric."""

    name: str                     # dotted path, e.g. "node.power_w"
    unit: str                     # "W", "B/s", "ratio", "s", "count", ...
    klass: MetricClass
    level: str                    # component level: node|link|cabinet|ost|...
    meaning: str                  # prose definition (the Table I requirement)
    derivation: str = ""          # formula for derived metrics, "" when raw
    higher_is_worse: bool | None = None  # direction hint for anomaly logic

    @property
    def is_derived(self) -> bool:
        return bool(self.derivation)


class MetricRegistry:
    """Mutable registry of :class:`MetricSpec`, keyed by metric name.

    Registration of a name twice with a *different* spec is an error —
    two subsystems silently disagreeing on a metric's meaning is exactly
    the failure mode the paper attributes to undocumented vendor data.
    Re-registering an identical spec is a no-op so that independent
    collectors may both declare the metrics they publish.
    """

    def __init__(self) -> None:
        self._specs: dict[str, MetricSpec] = {}

    def register(self, spec: MetricSpec) -> MetricSpec:
        existing = self._specs.get(spec.name)
        if existing is not None:
            if existing != spec:
                raise ValueError(
                    f"metric {spec.name!r} already registered with a "
                    f"different spec"
                )
            return existing
        self._specs[spec.name] = spec
        return spec

    def get(self, name: str) -> MetricSpec:
        try:
            return self._specs[name]
        except KeyError:
            raise KeyError(
                f"metric {name!r} is not registered; all data flowing "
                f"through the stack must have documented meaning"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._specs

    def __iter__(self) -> Iterator[MetricSpec]:
        return iter(self._specs.values())

    def __len__(self) -> int:
        return len(self._specs)

    def names(self) -> list[str]:
        return sorted(self._specs)

    def at_level(self, level: str) -> list[MetricSpec]:
        return [s for s in self._specs.values() if s.level == level]

    def document(self) -> str:
        """Render the registry as a human-readable data dictionary."""
        lines = ["metric | unit | class | level | meaning"]
        for name in self.names():
            s = self._specs[name]
            meaning = s.meaning
            if s.derivation:
                meaning += f" [derived: {s.derivation}]"
            lines.append(
                f"{s.name} | {s.unit} | {s.klass.value} | {s.level} | {meaning}"
            )
        return "\n".join(lines)


def _builtin_specs() -> Iterable[MetricSpec]:
    G, C, R, L, F = (
        MetricClass.GAUGE,
        MetricClass.COUNTER,
        MetricClass.RATIO,
        MetricClass.LATENCY,
        MetricClass.FOM,
    )
    yield MetricSpec("node.cpu_util", "ratio", R, "node",
                     "Fraction of CPU cycles doing application work.")
    yield MetricSpec("node.mem_free_gb", "GiB", G, "node",
                     "Free memory available to applications.",
                     higher_is_worse=False)
    yield MetricSpec("node.load1", "procs", G, "node",
                     "One-minute run-queue length (loadavg analog).")
    yield MetricSpec("node.power_w", "W", G, "node",
                     "Instantaneous node power draw at the VRM.")
    yield MetricSpec("node.temp_c", "degC", G, "node",
                     "Hottest on-node sensor temperature.",
                     higher_is_worse=True)
    yield MetricSpec("node.energy_j", "J", C, "node",
                     "Cumulative node energy (PM counter analog).")
    yield MetricSpec("node.clock_offset_s", "s", G, "node",
                     "Local clock offset from the global timebase.")
    yield MetricSpec("gpu.temp_c", "degC", G, "gpu",
                     "GPU die temperature.", higher_is_worse=True)
    yield MetricSpec("gpu.ecc_dbe", "count", C, "gpu",
                     "Cumulative double-bit ECC errors.",
                     higher_is_worse=True)
    yield MetricSpec("gpu.health", "ratio", R, "gpu",
                     "Remaining health margin of the GPU (1 new, 0 failed); "
                     "degrades under corrosive-gas exposure (ORNL).",
                     higher_is_worse=False)
    yield MetricSpec("link.traffic_flits", "flits", C, "link",
                     "Cumulative flits transmitted on an HSN link.")
    yield MetricSpec("link.stall_flits", "flits", C, "link",
                     "Cumulative credit-stall cycles on an HSN link.")
    yield MetricSpec("link.stall_ratio", "ratio", R, "link",
                     "Stalls per attempted flit over the sample interval.",
                     derivation="delta(stall_flits)/max(delta(traffic_flits)+delta(stall_flits),1)",
                     higher_is_worse=True)
    yield MetricSpec("link.ber", "errors/bit", G, "link",
                     "Bit error rate observed on the SerDes.",
                     higher_is_worse=True)
    yield MetricSpec("link.util", "ratio", R, "link",
                     "Link bandwidth utilization over the sample interval.")
    yield MetricSpec("node.inject_bw_frac", "ratio", R, "node",
                     "Injection bandwidth as a fraction of the NIC maximum "
                     "(the Figure 1 quantity).")
    yield MetricSpec("ost.read_bps", "B/s", G, "ost",
                     "Read bandwidth served by one object storage target.")
    yield MetricSpec("ost.write_bps", "B/s", G, "ost",
                     "Write bandwidth served by one object storage target.")
    yield MetricSpec("ost.fill_frac", "ratio", R, "ost",
                     "Capacity fill fraction of one OST.",
                     higher_is_worse=True)
    yield MetricSpec("fs.read_bps", "B/s", G, "fs",
                     "Aggregate filesystem read bandwidth (Figure 4 top).",
                     derivation="sum(ost.read_bps)")
    yield MetricSpec("fs.write_bps", "B/s", G, "fs",
                     "Aggregate filesystem write bandwidth.",
                     derivation="sum(ost.write_bps)")
    yield MetricSpec("probe.io_latency_s", "s", L, "ost",
                     "Latency of a small file-I/O probe against one OST "
                     "(NCSA probe suite).", higher_is_worse=True)
    yield MetricSpec("probe.md_latency_s", "s", L, "mds",
                     "Latency of a metadata operation probe against the MDS.",
                     higher_is_worse=True)
    yield MetricSpec("queue.depth", "jobs", G, "scheduler",
                     "Number of jobs waiting in the batch queue.")
    yield MetricSpec("queue.backlog_nodeh", "node-hours", G, "scheduler",
                     "Outstanding demand: sum of nodes*walltime queued "
                     "(NERSC backlog quantity).")
    yield MetricSpec("cabinet.power_w", "W", G, "cabinet",
                     "Cabinet-level power draw (Figure 3 bottom).",
                     derivation="sum(node.power_w in cabinet) + blower")
    yield MetricSpec("system.power_w", "W", G, "system",
                     "Full-system power draw (Figure 3 top).",
                     derivation="sum(cabinet.power_w)")
    yield MetricSpec("env.temp_c", "degC", G, "room",
                     "Machine-room ambient temperature.",
                     higher_is_worse=True)
    yield MetricSpec("env.humidity", "ratio", R, "room",
                     "Machine-room relative humidity.")
    yield MetricSpec("env.corrosion_rate", "A/month", G, "room",
                     "Copper/silver corrosion-coupon rate; ASHRAE severity "
                     "proxy (ORNL sulfur problem).", higher_is_worse=True)
    yield MetricSpec("env.particulate", "ug/m3", G, "room",
                     "Particulate concentration.", higher_is_worse=True)
    yield MetricSpec("bench.fom", "fom", F, "system",
                     "Figure of merit of one named benchmark run "
                     "(higher is better; the Figure 2 quantity).",
                     higher_is_worse=False)
    yield MetricSpec("bench.runtime_s", "s", L, "system",
                     "Wall time of one named benchmark run.",
                     higher_is_worse=True)
    yield MetricSpec("job.runtime_s", "s", L, "job",
                     "Wall time of a completed job.", higher_is_worse=True)
    yield MetricSpec("job.io_bps", "B/s", G, "job",
                     "Filesystem bandwidth (read+write) attributed to one "
                     "job over the sample interval (the Figure 4 "
                     "attribution series).",
                     derivation="sum over the job's stripe of served I/O")
    yield MetricSpec("health.pass_frac", "ratio", R, "node",
                     "Fraction of node-health tests passing (CSCS suite).",
                     higher_is_worse=False)


def default_registry() -> MetricRegistry:
    """Registry pre-loaded with every metric the built-in stack publishes."""
    # the self-monitoring plane declares its own metrics (one table row
    # each); that module builds on this one, hence the late import
    from ..obs.selfmetrics import selfmon_specs

    reg = MetricRegistry()
    for spec in (*_builtin_specs(), *selfmon_specs()):
        reg.register(spec)
    return reg
