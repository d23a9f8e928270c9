"""Shareable dashboard configurations.

Section III-B: Grafana is popular for "its ease of configuration,
ability to graph live data, and ability to copy and share dashboard
configurations."  :class:`DashboardSpec` is that shareable artifact: a
declarative, JSON-round-trippable description of panels (which metric,
which aggregation, which thresholds) that renders against any
:class:`~repro.storage.tsdb.TimeSeriesStore` — so the dashboard a site
built for its machine really is a file another site can import.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from ..core.metric import SeriesBatch
from ..storage.rollup import AGGS
from ..storage.tsdb import TimeSeriesStore
from .dashboard import window_end
from .render import ascii_chart, bar_row, sparkline

__all__ = ["PanelSpec", "DashboardSpec"]

_PANEL_KINDS = ("timeseries", "stat", "percent_in_state")


@dataclass(frozen=True, slots=True)
class PanelSpec:
    """One dashboard panel, declaratively.

    ``kind``:
      * ``timeseries`` — chart of the metric (aggregated across
        components with ``agg`` per time bucket);
      * ``stat`` — single current value (latest bucket) with a bar and
        trend sparkline;
      * ``percent_in_state`` — share of components whose latest value
        breaches ``threshold`` (in the direction of ``above``).
    """

    title: str
    metric: str
    kind: str = "timeseries"
    agg: str = "mean"
    window_s: float = 3600.0
    step_s: float = 60.0
    threshold: float | None = None
    above: bool = True
    unit: str = ""

    def __post_init__(self) -> None:
        if self.kind not in _PANEL_KINDS:
            raise ValueError(
                f"unknown panel kind {self.kind!r}; choose from "
                f"{_PANEL_KINDS}"
            )
        if self.agg not in AGGS:
            raise ValueError(f"unknown agg {self.agg!r}")
        if self.kind == "percent_in_state" and self.threshold is None:
            raise ValueError("percent_in_state panels need a threshold")


@dataclass(slots=True)
class DashboardSpec:
    """A named, shareable set of panels."""

    name: str
    panels: list[PanelSpec] = field(default_factory=list)

    # -- sharing --------------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(
            {"name": self.name, "panels": [asdict(p) for p in self.panels]},
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "DashboardSpec":
        data = json.loads(text)
        return cls(
            name=data["name"],
            panels=[PanelSpec(**p) for p in data["panels"]],
        )

    # -- rendering against live data ----------------------------------------------

    def _panel_series(
        self, panel: PanelSpec, tsdb: TimeSeriesStore, now: float
    ) -> SeriesBatch:
        return tsdb.aggregate_across(
            panel.metric, None, now - panel.window_s, window_end(now),
            step=panel.step_s, agg=panel.agg,
        )

    def render(self, tsdb: TimeSeriesStore, now: float,
               width: int = 64, height: int = 7) -> str:
        lines = [f"==== dashboard: {self.name} @ t={now:.0f}s ===="]
        for panel in self.panels:
            if panel.kind == "timeseries":
                series = self._panel_series(panel, tsdb, now)
                lines.append(
                    ascii_chart({panel.metric: series}, width=width,
                                height=height, title=f"-- {panel.title}")
                )
            elif panel.kind == "stat":
                series = self._panel_series(panel, tsdb, now)
                if len(series):
                    current = float(series.values[-1])
                    peak = float(np.nanmax(series.values)) or 1.0
                    lines.append(
                        bar_row(panel.title, current, max(peak, 1e-12),
                                unit=panel.unit)
                        + "  " + sparkline(series.values[-24:])
                    )
                else:
                    lines.append(f"{panel.title:>24} (no data)")
            elif panel.kind == "percent_in_state":
                v = tsdb.latest(panel.metric, None, now - panel.window_s,
                                window_end(now)).values
                breached = np.count_nonzero(v > panel.threshold if panel.above
                                            else v < panel.threshold)
                pct = 100.0 * breached / len(v) if len(v) else float("nan")
                lines.append(
                    bar_row(panel.title, pct, 100.0, unit="%")
                )
        return "\n".join(lines)


def operations_dashboard() -> DashboardSpec:
    """The default operations view, as a shareable spec."""
    return DashboardSpec(
        name="operations",
        panels=[
            PanelSpec("system power", "system.power_w", kind="stat",
                      agg="last", unit=" W"),
            PanelSpec("queue backlog", "queue.backlog_nodeh",
                      kind="timeseries", agg="last"),
            PanelSpec("fs read B/s", "fs.read_bps", kind="timeseries",
                      agg="sum"),
            PanelSpec("nodes unhealthy", "health.pass_frac",
                      kind="percent_in_state", threshold=1.0,
                      above=False),
            PanelSpec("links congested", "link.stall_ratio",
                      kind="percent_in_state", threshold=0.12,
                      above=True),
        ],
    )
