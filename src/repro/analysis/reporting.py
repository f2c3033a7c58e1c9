"""Markdown report generation from suite runs.

``suite_markdown`` turns a ``{experiment_id: ExperimentReport}`` mapping
(as returned by :func:`repro.experiments.suite.run_suite`) into one
self-contained Markdown document — the machine-written counterpart of the
hand-curated EXPERIMENTS.md, for archiving a specific run's numbers.
"""

from __future__ import annotations

from datetime import datetime, timezone
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    from repro.experiments.harness import ExperimentReport

__all__ = ["report_markdown", "suite_markdown"]


def _markdown_table(rows: list[dict[str, object]], max_rows: int = 40) -> str:
    """Render row dicts as a GitHub-style Markdown table."""
    if not rows:
        return "*(no rows)*"
    fieldnames: list[str] = []
    for row in rows:
        for key in row:
            if key not in fieldnames:
                fieldnames.append(key)

    def cell(value: object) -> str:
        if isinstance(value, float):
            return f"{value:.4g}"
        return str(value)

    lines = [
        "| " + " | ".join(fieldnames) + " |",
        "| " + " | ".join("---" for _ in fieldnames) + " |",
    ]
    for row in rows[:max_rows]:
        lines.append(
            "| " + " | ".join(cell(row.get(f, "")) for f in fieldnames) + " |"
        )
    if len(rows) > max_rows:
        lines.append(f"*(+{len(rows) - max_rows} more rows)*")
    return "\n".join(lines)


def report_markdown(report: "ExperimentReport") -> str:
    """One experiment as a Markdown section (table from the raw rows)."""
    parts = [f"## {report.experiment_id} — {report.title}", ""]
    parts.append(_markdown_table(report.rows))
    if report.notes:
        parts.extend(["", f"*Notes: {report.notes}*"])
    return "\n".join(parts)


def suite_markdown(
    reports: dict[str, "ExperimentReport"],
    *,
    title: str = "Suite report",
    timestamp: bool = True,
    failures: Optional[dict[str, str]] = None,
) -> str:
    """A whole suite run as a single Markdown document.

    ``failures`` maps experiments that raised to their exception type and
    message; they are listed first, under "Failed experiments".
    """
    parts = [f"# {title}", ""]
    if timestamp:
        stamp = datetime.now(timezone.utc).strftime("%Y-%m-%d %H:%M UTC")
        parts.extend([f"*Generated {stamp}; {len(reports)} experiments.*", ""])
    if failures:
        parts.extend(["## Failed experiments", ""])
        parts.extend(
            f"- `{experiment_id}`: {failures[experiment_id]}"
            for experiment_id in sorted(failures)
        )
        parts.append("")
    for experiment_id in sorted(reports):
        parts.append(report_markdown(reports[experiment_id]))
        parts.append("")
    return "\n".join(parts)
