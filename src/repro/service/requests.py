"""The result type and coalescing contract of the scenario service.

The unit of admission is a :class:`~repro.scenarios.spec.ScenarioRequest`,
the type a campaign cell is and :func:`repro.api.execute` runs, so
one digest keys a run for all three.  A :class:`ScenarioResult` wraps
the request's :class:`~repro.analysis.montecarlo.MonteCarloSummary`
plus the serving metadata (cache hit, execution source, batch
occupancy, latency).

The coalescing contract lives here.  A request's runs are *rows*,
each keyed by ``(seed, fault chain)``
(:meth:`~repro.scenarios.spec.ScenarioRequest.row_keys`): the chain is
the scenario's faults, then the recipe's, then the seed's scheduled
ACC dropout.  :meth:`~repro.scenarios.spec.ScenarioRequest.group_key`
digests everything else that shapes a run — scenario, misalignment,
estimator tuning — so two requests share a key exactly when merging
their rows into one lockstep batch is bit-exact (per-seed RNG trees
are independent, and each row applies only its own chain).
:func:`coalesce_requests` performs the merge, one job per distinct row
key; :func:`summarize_request` regroups the batch's outcome rows back
into one summary per request, through the same
:func:`~repro.analysis.montecarlo.summarize_rows` every caller of an
ensemble engine uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.analysis.montecarlo import (
    EnsembleJob,
    MonteCarloSummary,
    summarize_rows,
)
from repro.errors import ConfigurationError
from repro.scenarios.faults import Fault
from repro.scenarios.spec import ScenarioRequest, scenario_jobs


@dataclass(frozen=True)
class ScenarioResult:
    """One request's outcome plus how the service served it.

    ``summary`` is ``None`` when every seed of the request diverged
    (the campaign-cell convention).  ``source`` names the execution
    path: ``"cache"``, ``"coalesced"`` (in-process lockstep batch),
    ``"pool"`` (spawn-worker batch), ``"serial-fallback"`` (degraded
    per-seed execution after the primary rung ran out of attempts),
    ``"quarantined"`` (the service exhausted its retry ladder —
    ``summary`` is ``None`` and ``fault`` carries the last failure) or
    ``"direct"`` (:func:`repro.api.execute`'s blocking path).
    ``batch_size`` counts the requests merged into the executing batch
    (0 for a cache hit).
    ``attempts`` counts the executions of the serving batch across
    every rung of the service's supervised ladder (1 on the clean
    path and for :func:`repro.api.execute`).
    """

    request: ScenarioRequest
    summary: MonteCarloSummary | None
    cache_hit: bool = False
    source: str = "direct"
    batch_size: int = 1
    latency_seconds: float = 0.0
    attempts: int = 1
    fault: str | None = None

    @property
    def quarantined(self) -> bool:
        """Whether the retry ladder gave up on this request's batch."""
        return self.source == "quarantined"


def summarize_request(
    request: ScenarioRequest,
    outcome_by_row: Mapping[tuple[int, tuple[Fault, ...]], tuple | None],
) -> MonteCarloSummary | None:
    """Regroup a batch's outcome rows into one request summary.

    ``outcome_by_row`` maps every row key of the merged batch (see
    :meth:`~repro.scenarios.spec.ScenarioRequest.row_keys`) to its
    outcome (``None`` = that run diverged).  Selecting this request's
    rows in request order and feeding them to
    :func:`~repro.analysis.montecarlo.summarize_rows` reproduces, bit
    for bit, what the serial oracle computes for the request alone:
    each row is determined by its key, and the fold order is the
    request's own seed order either way.  Returns ``None`` when every
    seed diverged.
    """
    return summarize_rows(
        [
            (seed, outcome_by_row[seed, chain])
            for seed, chain in request.row_keys()
        ]
    )


def coalesce_requests(
    requests: Sequence[ScenarioRequest],
) -> tuple[list[EnsembleJob], list[int], list[tuple[int, tuple[Fault, ...]]]]:
    """Merge compatible requests into one lockstep job list.

    All ``requests`` must share a
    :meth:`~repro.scenarios.spec.ScenarioRequest.group_key`
    (the batcher guarantees it).  Returns ``(jobs, merged, keys)``:
    one job per *distinct* row key in first-arrival order, built from
    a single shared materialization of the group's trajectory and
    estimator config; ``merged`` lists the request indices the batch
    serves — every one, since rows that differ in seed or chain never
    conflict — and ``keys`` holds each job's row key, for
    :func:`summarize_request`.
    """
    if not requests:
        raise ConfigurationError("need at least one request to coalesce")
    first = requests[0]
    keys = list(
        dict.fromkeys(
            key for request in requests for key in request.row_keys()
        )
    )
    jobs = scenario_jobs(
        first.scenario,
        keys,
        first.misalignment,
        first.effective_estimator_config(),
    )
    return jobs, list(range(len(requests))), keys
