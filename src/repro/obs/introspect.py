"""Pipeline introspection: one structured health report over the stack.

The paper's Table I asks that operators be able to see *data-path
completeness* end to end and that monitoring overhead be documented.
:class:`PipelineIntrospector` assembles one :class:`HealthReport`: the
per-stage span timings and slowest recent spans (from the tracer), plus
one section per :data:`~repro.obs.selfmetrics.VITALS` group — the very
reading the ``selfmon.*`` series are published from, as plain data.
``python -m repro obs`` renders it and ``obs --json`` prints
:meth:`HealthReport.as_dict`; neither knows what a section holds, so a
new row or group reaches both with no edit here.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Any

from . import selfmetrics

if TYPE_CHECKING:  # pragma: no cover
    from ..pipeline import MonitoringPipeline

__all__ = ["StageReport", "HealthReport", "PipelineIntrospector",
           "section_lines"]


@dataclass(frozen=True, slots=True)
class StageReport:
    """Wall-time accounting for one pipeline stage."""

    name: str
    calls: int
    total_s: float
    mean_ms: float
    max_ms: float


@dataclass(frozen=True, slots=True)
class HealthReport:
    """Structured end-to-end health of the monitoring plane itself."""

    ticks: int
    stages: tuple[StageReport, ...]
    slowest_spans: tuple[tuple[str, float, str], ...]
    #: one plain-data reading per VITALS group, by section name; None
    #: where the stack has no such surface or the plane no data yet
    sections: dict[str, Any]

    @property
    def completeness(self) -> float:
        return self.sections["bus"]["completeness"]

    @property
    def backpressured(self) -> list[str]:
        """Subscriptions currently holding a non-trivial backlog."""
        depths = self.sections["bus"]["queue_depths"]
        return [n for n, d in depths.items() if d > 0]

    def as_dict(self) -> dict:
        """The JSON shape: the tracer's rows, then every section."""
        return {"ticks": self.ticks,
                "stages": [asdict(s) for s in self.stages],
                "slowest_spans": [list(s) for s in self.slowest_spans],
                **self.sections}


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def section_lines(label: str, section: dict, pad: str = ""):
    """A section's scalars on one line, each nested mapping indented
    below it — the one text form of a report section (``render()`` and
    the CLI scenarios print sections through it)."""
    scalars = " ".join(f"{k}={_fmt(v)}" for k, v in section.items()
                       if not isinstance(v, dict))
    yield f"{pad}{label}: {scalars}".rstrip()
    for k, v in section.items():
        if isinstance(v, dict) and v:
            yield from section_lines(k, v, pad + "  ")


class PipelineIntrospector:
    """Reads the tracer and every VITALS group into one health report."""

    def __init__(self, pipeline: "MonitoringPipeline") -> None:
        self.pipeline = pipeline

    def report(self, slowest_n: int = 5) -> HealthReport:
        p = self.pipeline
        agg = p.tracer.aggregate()
        return HealthReport(
            ticks=int(agg.get("tick", {}).get("count", 0)),
            # one timing row per installed stage: the tick loop opens a
            # span named after each, custom stages included
            stages=tuple(
                StageReport(stage.name, int(a["count"]), a["total_s"],
                            a["mean_ms"], 1000.0 * a["max_s"])
                for stage in p.stages
                if (a := agg.get(stage.name)) is not None
            ),
            slowest_spans=tuple(
                (s.name, 1000.0 * s.duration_s,
                 ",".join(f"{k}={v}" for k, v in s.attrs.items()))
                for s in p.tracer.slowest(slowest_n)
            ),
            sections={section: selfmetrics.plain(read(p))
                      for section, read, _rows in selfmetrics.VITALS},
        )

    def render(self, slowest_n: int = 5) -> str:
        """Human-readable health report (the CLI surface)."""
        r = self.report(slowest_n=slowest_n)
        backlog = r.backpressured
        lines = [
            f"=== monitoring-plane health ({r.ticks} ticks) ===",
            f"data-path completeness: {r.completeness:.4f}"
            + ("  (no loss)" if r.completeness >= 1.0 - 1e-12
               else "  (LOSSY)"),
            "backpressure: " + (", ".join(backlog) if backlog
                                else "none (all queues drained)"),
            "stage timings (per tick):",
        ]
        for s in r.stages:
            lines.append(
                f"  {s.name:<15} calls={s.calls:<6} mean={s.mean_ms:8.3f} ms"
                f"  max={s.max_ms:8.3f} ms  total={s.total_s:8.3f} s"
            )
        if r.slowest_spans:
            lines.append("slowest spans:")
            for name, ms, attrs in r.slowest_spans:
                suffix = f" [{attrs}]" if attrs else ""
                lines.append(f"  {ms:9.3f} ms  {name}{suffix}")
        for section, reading in r.sections.items():
            if reading:
                lines.extend(section_lines(section.replace("_", " "), reading))
        return "\n".join(lines)
