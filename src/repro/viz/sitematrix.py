"""Table I, regenerated: the per-site capability matrix.

The paper's Table I is a hand-maintained sites-vs-capabilities grid.
Here the rows are *derived* — each site's declared
:meth:`~repro.sites.config.SiteConfig.capabilities` checked against
live introspection of the built stack
(:func:`~repro.sites.build.site_capabilities`) — so the rendered matrix
is machine-checkable rather than prose: any drift between what a site
declares and what actually got built shows up as a flagged cell.
"""

from __future__ import annotations

from typing import Mapping, Sequence

__all__ = ["capability_matrix"]

#: column order of the rendered matrix (capability-dict keys)
_COLUMNS = (
    ("site", "site"),
    ("system", "system"),
    ("topology", "topology"),
    ("nodes", "nodes"),
    ("gpus", "gpus"),
    ("transport", "transport"),
    ("shards", "shards"),
    ("disk", "disk"),
    ("cadence_s", "cadence"),
    ("tenants", "tenants"),
)


def _cell(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "-"
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def capability_matrix(
    rows: Sequence[Mapping],
    drift: Mapping[str, Sequence[str]] | None = None,
    title: str = "per-site capability matrix (Table I, regenerated)",
) -> str:
    """Render capability rows as an aligned sites-vs-capabilities table.

    ``drift`` optionally maps site name -> capability keys whose
    declared and live values disagree; those cells render with a ``!``
    suffix and the legend calls them out.
    """
    if not rows:
        return "(no sites)"
    drift = drift or {}
    table: list[list[str]] = []
    header = [label for _, label in _COLUMNS]
    for row in rows:
        site = str(row.get("site", ""))
        bad = set(drift.get(site, ()))
        table.append([
            _cell(row.get(key, "")) + ("!" if key in bad else "")
            for key, _ in _COLUMNS
        ])
    widths = [
        max(len(header[i]), *(len(r[i]) for r in table))
        for i in range(len(header))
    ]
    def fmt(cells: Sequence[str]) -> str:
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
    lines = [title, fmt(header), fmt(["-" * w for w in widths])]
    lines.extend(fmt(r) for r in table)
    flagged = sorted(s for s, keys in drift.items() if keys)
    if flagged:
        lines.append("")
        lines.append(
            "! = declared capability drifts from the built stack: "
            + ", ".join(
                f"{s} ({', '.join(drift[s])})" for s in flagged
            )
        )
    return "\n".join(lines)
