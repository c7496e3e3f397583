"""Plain-text/markdown report formatting."""

from __future__ import annotations

from typing import Sequence

from repro.errors import ConfigurationError


def markdown_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]]
) -> str:
    """Render a GitHub-style markdown table."""
    if not headers:
        raise ConfigurationError("need at least one header")
    for row in rows:
        if len(row) != len(headers):
            raise ConfigurationError(
                f"row width {len(row)} != header width {len(headers)}"
            )
    head = "| " + " | ".join(str(h) for h in headers) + " |"
    sep = "|" + "|".join("---" for _ in headers) + "|"
    body = [
        "| " + " | ".join(_fmt(cell) for cell in row) + " |" for row in rows
    ]
    return "\n".join([head, sep] + body)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.4f}"
    return str(cell)


#: Mean residual 3-sigma exceedance above which a converged cell is
#: classified ``"degraded"`` even without any hold ticks — a fault the
#: ladder never saw (finite-but-wrong data) that the residual monitor
#: flagged instead.
EXCEEDANCE_DEGRADED_THRESHOLD = 0.25


def classify_cell(summary, expected_runs: int) -> str:
    """Classify one campaign cell from its Monte-Carlo summary.

    - ``"diverged"`` — the cell lost runs: ``summary`` is ``None``
      (every seed diverged) or ``diverged_seeds`` is non-empty;
    - ``"degraded"`` (degraded-but-recovered) — every run converged,
      but some spent time on the ladder's dead-reckoning hold rung, or
      the mean residual exceedance crossed
      :data:`EXCEEDANCE_DEGRADED_THRESHOLD`;
    - ``"absorbed"`` — every run converged at full fidelity.

    ``summary`` is duck-typed (``runs`` / ``diverged_seeds`` /
    ``fallback_states`` / ``mean_exceedance``) so this module never
    imports the Monte-Carlo layer.
    """
    if expected_runs < 1:
        raise ConfigurationError("expected_runs must be >= 1")
    if summary is None:
        return "diverged"
    if summary.diverged_seeds or summary.runs < expected_runs:
        return "diverged"
    if any(state != "full" for state in summary.fallback_states):
        return "degraded"
    if summary.mean_exceedance > EXCEEDANCE_DEGRADED_THRESHOLD:
        return "degraded"
    return "absorbed"


def degradation_report(result) -> str:
    """Render a campaign's degradation report as markdown.

    ``result`` is a
    :class:`~repro.scenarios.campaign.CampaignResult` (duck-typed).
    One row per cell — scenario, fault recipe, run/divergence counts,
    fallback occupancy and the classification — plus a totals line.
    """
    rows = []
    totals = {"absorbed": 0, "degraded": 0, "diverged": 0, "quarantined": 0}
    for cell, summary, label in zip(
        result.cells, result.summaries, result.classifications()
    ):
        totals[label] += 1
        if summary is None:
            runs, diverged, fallback = 0, len(cell.seeds), "-"
        else:
            runs = summary.runs
            diverged = len(summary.diverged_seeds)
            counts = summary.fallback_counts
            fallback = (
                ", ".join(
                    f"{name}={counts[name]}" for name in sorted(counts)
                )
                or "-"
            )
        rows.append(
            [
                cell.scenario.name,
                cell.fault.name,
                runs,
                diverged,
                fallback,
                label,
            ]
        )
    table = markdown_table(
        ["scenario", "fault", "runs", "diverged", "fallback", "class"],
        rows,
    )
    summary_line = (
        f"cells: {len(rows)} — absorbed {totals['absorbed']}, "
        f"degraded {totals['degraded']}, diverged {totals['diverged']}"
    )
    if totals["quarantined"]:
        # Keep the report line of a grid without quarantines
        # byte-stable.
        summary_line += f", quarantined {totals['quarantined']}"
    return f"# Degradation report: {result.spec.name}\n\n{table}\n\n{summary_line}\n"
