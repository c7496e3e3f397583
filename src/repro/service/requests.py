"""Request/response types of the scenario-execution service.

A :class:`ScenarioRequest` is the unit of admission: one scenario
spec, one fault recipe, a seed list and the per-request execution
extras (misalignment, estimator override, per-seed ACC dropouts).
It is frozen, picklable and digestible by
:func:`~repro.scenarios.cache.canonical_digest`, so it doubles as its
own cache key.  A :class:`ScenarioResult` wraps the request's
:class:`~repro.analysis.montecarlo.MonteCarloSummary` plus the
serving metadata (cache hit, execution source, batch occupancy,
latency).

The coalescing contract lives here too.  A request's runs are *rows*,
each keyed by ``(seed, fault chain)`` (:meth:`ScenarioRequest.row_keys`):
the chain is the scenario's faults, then the recipe's, then the seed's
scheduled ACC dropout.  :meth:`ScenarioRequest.group_key` digests
everything else that shapes a run — scenario, misalignment, estimator
tuning — so two requests share a key exactly when merging their rows
into one lockstep batch is bit-exact (per-seed RNG trees are
independent, and each row applies only its own chain).
:func:`coalesce_requests` performs the merge, one job per distinct row
key; :func:`summarize_request` regroups the batch's outcome rows back
into one summary per request, through the same
:func:`~repro.analysis.montecarlo.summarize_rows` every caller of an
ensemble engine uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.analysis.montecarlo import (
    EnsembleJob,
    MonteCarloSummary,
    summarize_rows,
)
from repro.errors import ConfigurationError
from repro.fusion import BoresightConfig
from repro.geometry import EulerAngles
from repro.scenarios.cache import canonical_digest
from repro.scenarios.campaign import FaultSpec, normalize_seeds, scenario_jobs
from repro.scenarios.faults import Fault, SensorDropout
from repro.scenarios.spec import ScenarioSpec

#: The healthy-baseline recipe requests default to.
NOMINAL_FAULT = FaultSpec(name="nominal")

#: Version tag folded into every compatibility key, so a change to the
#: grouping rule can never alias old and new groups.
_GROUP_KEY_VERSION = "service-group-v2"


@dataclass(frozen=True)
class ScenarioRequest:
    """One admission unit: scenario × fault recipe × seeds, plus extras.

    ``misalignment`` defaults to the campaign's
    :data:`~repro.experiments.table1.DEFAULT_MISALIGNMENT` (normalized
    at construction, so equal requests digest equal).
    ``estimator_config`` overrides the tuning the scenario would derive
    (:meth:`~repro.scenarios.spec.ScenarioSpec.build_estimator_config`);
    leave it ``None`` to derive.  ``acc_dropout`` schedules per-seed
    ACC failures as ``(seed, time)`` pairs — every scheduled seed must
    be in ``seeds``, and every time must be a valid
    :class:`~repro.scenarios.faults.SensorDropout` start.
    """

    scenario: ScenarioSpec
    seeds: tuple[int, ...]
    fault: FaultSpec = NOMINAL_FAULT
    misalignment: EulerAngles | None = None
    estimator_config: BoresightConfig | None = None
    #: Arm the dead-reckoning rung when deriving the estimator config.
    fallback_hold: bool = False
    #: Per-seed ACC failure times, seconds, as sorted (seed, time) pairs.
    acc_dropout: tuple[tuple[int, float], ...] = field(default=())

    def __post_init__(self) -> None:
        object.__setattr__(self, "seeds", normalize_seeds(self.seeds))
        if not self.seeds:
            raise ConfigurationError("a scenario request needs seeds")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigurationError(
                "scenario request seeds must be distinct"
            )
        if self.misalignment is None:
            # Imported here: table1 drags the protocol layer in, which
            # this module must not require at import time.
            from repro.experiments.table1 import DEFAULT_MISALIGNMENT

            object.__setattr__(self, "misalignment", DEFAULT_MISALIGNMENT)
        dropout = tuple(
            sorted((int(seed), float(time)) for seed, time in self.acc_dropout)
        )
        object.__setattr__(self, "acc_dropout", dropout)
        scheduled = [seed for seed, _ in dropout]
        if len(set(scheduled)) != len(scheduled):
            raise ConfigurationError(
                "acc_dropout schedules a seed twice"
            )
        stray = sorted(set(scheduled) - set(self.seeds))
        if stray:
            raise ConfigurationError(
                f"acc_dropout schedules seeds not in the request: {stray}"
            )
        for _, time in dropout:
            # The fault's own checks: a bad time is refused here, before
            # it can sink a batch it shares with valid requests.
            SensorDropout(sensor="acc", start=time)

    def row_keys(self) -> list[tuple[int, tuple[Fault, ...]]]:
        """This request's rows as ``(seed, fault chain)``, in seed order.

        The chain is the scenario's faults, then the recipe's, then —
        for a seed ``acc_dropout`` schedules — an open-ended ACC
        :class:`~repro.scenarios.faults.SensorDropout` from that time
        on.  With the group key, the pair fixes the row's outcome, so
        it is what a batch dedupes and regroups by.
        """
        chain = self.scenario.faults + self.fault.faults
        cut = {
            seed: (SensorDropout(sensor="acc", start=time),)
            for seed, time in self.acc_dropout
        }
        return [(seed, chain + cut.get(seed, ())) for seed in self.seeds]

    def effective_estimator_config(self) -> BoresightConfig:
        """The override, or the scenario-derived tuning."""
        if self.estimator_config is not None:
            return self.estimator_config
        return self.scenario.build_estimator_config(
            fallback_hold=self.fallback_hold
        )

    def group_key(self) -> str:
        """The coalescing compatibility key.

        Everything that shapes a job *except* its row key (seed and
        fault chain): requests with equal keys may merge into one
        lockstep batch, because their merged job list is homogeneous
        in trajectory, misalignment, estimator config, motion flag and
        vibration — the lockstep preconditions.  Fault recipes and
        dropout schedules vary per row.
        """
        return canonical_digest(
            (
                _GROUP_KEY_VERSION,
                self.scenario,
                self.misalignment,
                self.estimator_config,
                self.fallback_hold,
            )
        )

    def jobs(self) -> list[EnsembleJob]:
        """This request's ensemble jobs, one per row, in seed order.

        Executing these jobs through any ``"ensemble"`` engine and
        summarizing is the request's serial oracle semantics.
        """
        return scenario_jobs(
            self.scenario,
            self.row_keys(),
            self.misalignment,
            self.effective_estimator_config(),
        )


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
    :meth:`ScenarioRequest.row_keys`) to its outcome (``None`` = that
    run diverged).  Selecting this request's rows in request order and
    feeding them to :func:`~repro.analysis.montecarlo.summarize_rows`
    reproduces, bit for bit, what the serial oracle computes for the
    request alone: each row is determined by its key, and the fold
    order is the request's own seed order either way.  Returns
    ``None`` when every seed diverged.
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

    All ``requests`` must share a :meth:`ScenarioRequest.group_key`
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
