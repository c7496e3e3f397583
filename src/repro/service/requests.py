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

The coalescing contract lives here too: :meth:`ScenarioRequest.group_key`
digests everything *except* the seed list and the dropout schedule, so
two requests share a key exactly when their jobs differ only in which
seeds run — the condition under which merging their job lists into one
lockstep batch is bit-exact (per-seed RNG trees are independent).
:func:`coalesce_requests` performs the merge, deferring requests whose
dropout schedule conflicts with an already-merged request on a shared
seed; :func:`summarize_request` regroups the merged batch's per-seed
outcome rows back into one summary per request, through the same
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
from repro.scenarios.campaign import FaultSpec
from repro.scenarios.spec import ScenarioSpec

#: The healthy-baseline recipe requests default to.
NOMINAL_FAULT = FaultSpec(name="nominal")

#: Version tag folded into every compatibility key, so a change to the
#: grouping rule can never alias old and new groups.
_GROUP_KEY_VERSION = "service-group-v1"


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
    be in ``seeds``.
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
        object.__setattr__(
            self, "seeds", tuple(int(s) for s in self.seeds)
        )
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

    def dropout_map(self) -> dict[int, float]:
        """The dropout schedule as ``{seed: time}``."""
        return dict(self.acc_dropout)

    def effective_estimator_config(self) -> BoresightConfig:
        """The override, or the scenario-derived tuning."""
        if self.estimator_config is not None:
            return self.estimator_config
        return self.scenario.build_estimator_config(
            fallback_hold=self.fallback_hold
        )

    def group_key(self) -> str:
        """The coalescing compatibility key.

        Everything that shapes a job *except* its seed and dropout
        time: requests with equal keys may merge into one lockstep
        batch, because their merged job list is homogeneous in
        trajectory, misalignment, estimator config, faults, motion
        flag and vibration — the lockstep preconditions.
        """
        return canonical_digest(
            (
                _GROUP_KEY_VERSION,
                self.scenario,
                self.fault,
                self.misalignment,
                self.estimator_config,
                self.fallback_hold,
            )
        )

    def jobs(self) -> list[EnsembleJob]:
        """This request's ensemble jobs, in seed order of ``seeds``.

        Materializes the trajectory and estimator config once and
        shares them across the jobs (the lockstep engines require
        identity-shared payloads).  Executing these jobs through any
        ``"ensemble"`` engine and summarizing is the request's serial
        oracle semantics.
        """
        trajectory = self.scenario.build_trajectory()
        estimator_config = self.effective_estimator_config()
        faults = self.scenario.faults + self.fault.faults
        dropout = self.dropout_map()
        return [
            EnsembleJob(
                seed=seed,
                trajectory=trajectory,
                misalignment=self.misalignment,
                estimator_config=estimator_config,
                moving=self.scenario.moving,
                acc_dropout_time=dropout.get(seed),
                faults=faults,
                vibration=self.scenario.vibration,
            )
            for seed in self.seeds
        ]


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
    outcome_by_seed: Mapping[int, tuple | None],
) -> MonteCarloSummary | None:
    """Regroup a batch's per-seed outcome rows into one request summary.

    ``outcome_by_seed`` maps every seed of the merged batch to its
    outcome row (``None`` = that seed diverged).  Selecting this
    request's seeds in request order and feeding them to
    :func:`~repro.analysis.montecarlo.summarize_rows` reproduces, bit
    for bit, what the serial oracle computes for the request alone:
    the rows themselves are seed-deterministic, and the fold order is
    the request's own seed order either way.  Returns ``None`` when
    every seed diverged.
    """
    return summarize_rows(
        [(seed, outcome_by_seed[seed]) for seed in request.seeds]
    )


def coalesce_requests(
    requests: Sequence[ScenarioRequest],
) -> tuple[list[EnsembleJob], list[int], list[int]]:
    """Merge compatible requests into one lockstep job list.

    All ``requests`` must share a :meth:`ScenarioRequest.group_key`
    (the batcher guarantees it).  Returns ``(jobs, merged, deferred)``:
    one job per *distinct* seed in first-arrival order, built from a
    single shared materialization of the group's trajectory and
    estimator config; ``merged`` and ``deferred`` are request indices.
    A request is deferred — left for a follow-up batch — when one of
    its seeds is already merged with a *different* dropout time: the
    same seed cannot run with two schedules in one lockstep pass.
    """
    if not requests:
        raise ConfigurationError("need at least one request to coalesce")
    first = requests[0]
    trajectory = first.scenario.build_trajectory()
    estimator_config = first.effective_estimator_config()
    faults = first.scenario.faults + first.fault.faults
    seen: dict[int, float | None] = {}
    order: list[int] = []
    merged: list[int] = []
    deferred: list[int] = []
    for index, request in enumerate(requests):
        dropout = request.dropout_map()
        if any(
            seed in seen and seen[seed] != dropout.get(seed)
            for seed in request.seeds
        ):
            deferred.append(index)
            continue
        merged.append(index)
        for seed in request.seeds:
            if seed not in seen:
                seen[seed] = dropout.get(seed)
                order.append(seed)
    jobs = [
        EnsembleJob(
            seed=seed,
            trajectory=trajectory,
            misalignment=first.misalignment,
            estimator_config=estimator_config,
            moving=first.scenario.moving,
            acc_dropout_time=seen[seed],
            faults=faults,
            vibration=first.scenario.vibration,
        )
        for seed in order
    ]
    return jobs, merged, deferred
