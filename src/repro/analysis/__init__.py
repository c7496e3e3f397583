"""Statistical analysis helpers: Monte-Carlo batches and reporting."""

from repro.analysis.montecarlo import (
    DYNAMIC_MOTION_GATE_RATE,
    EnsembleJob,
    MonteCarloSummary,
    run_monte_carlo_dynamic,
    run_monte_carlo_static,
    summarize_outcomes,
    summarize_rows,
)
from repro.analysis.reporting import (
    EXCEEDANCE_DEGRADED_THRESHOLD,
    classify_cell,
    degradation_report,
    markdown_table,
)

__all__ = [
    "run_monte_carlo_static",
    "run_monte_carlo_dynamic",
    "summarize_outcomes",
    "summarize_rows",
    "DYNAMIC_MOTION_GATE_RATE",
    "EnsembleJob",
    "MonteCarloSummary",
    "markdown_table",
    "classify_cell",
    "degradation_report",
    "EXCEEDANCE_DEGRADED_THRESHOLD",
]
