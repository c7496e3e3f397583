"""Fault-injection campaigns: scenario × fault × seed grids.

A campaign crosses a scenario corpus (:mod:`repro.scenarios.spec`)
with a set of named fault recipes and a seed list.  Every *cell* of
the grid is one Monte-Carlo ensemble — the same
:class:`~repro.analysis.montecarlo.EnsembleJob` contract the ensemble
engines already share — run with the cell's faults injected and the
degradation ladder armed, and summarized into the usual
:class:`~repro.analysis.montecarlo.MonteCarloSummary` (plus its
per-run ``fallback_states``).

Execution goes through the ``"campaign"`` engine pair, always under
a :class:`~repro.resilience.Supervisor` (retry, backoff, deadline,
quarantine, optional write-ahead journal):

- ``"model"`` — the oracle: every cell runs through the serial
  per-seed ensemble oracle, in grid order, one process;
- ``"fast"`` — every cell runs through the lockstep ensemble engine
  (its seeds streamed in the arena's fixed seed blocks,
  :data:`~repro.experiments.arena.CHUNK_SIZE`) and, with
  ``workers > 1``, the *cells* spread over a worker pool
  built by ``Supervisor.pool_factory``, refilled as each cell finishes
  (each cell stays single-process lockstep inside its worker).
  Bit-identical to ``"model"`` cell by cell, because the underlying
  ensemble engines are.

Both engines are one :meth:`~repro.resilience.Supervisor.map` call
over the pending cells — in process, or on the pool — so cells retry,
time out and restart on the same ladder the scenario service's
batches climb.

A cell where every seed diverges is not fatal: its summary is ``None``
and the degradation report (:mod:`repro.analysis.reporting`)
classifies it ``"diverged"``.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.analysis.montecarlo import (
    EnsembleJob,
    MonteCarloSummary,
    summarize_rows,
)
from repro.engines import register_engine, resolve_engine
from repro.errors import ConfigurationError
from repro.experiments.table1 import DEFAULT_MISALIGNMENT
from repro.fusion import BoresightConfig
from repro.geometry import EulerAngles
from repro.resilience.journal import CampaignJournal
from repro.resilience.supervisor import SupervisedOutcome, Supervisor
from repro.scenarios.cache import CampaignCache, canonical_digest
from repro.scenarios.faults import (
    CanBusErrorStorm,
    ClockSkew,
    Fault,
    FaultMatrix,
    LossyLinkBurst,
    SensorDropout,
    StuckAxis,
)
from repro.scenarios.spec import ScenarioSpec, scenario_library


@dataclass(frozen=True)
class FaultSpec:
    """A named, ordered fault recipe a campaign injects into a cell."""

    name: str
    faults: tuple[Fault, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))
        for fault in self.faults:
            if not isinstance(fault, Fault):
                raise ConfigurationError(
                    f"faults must be Fault instances, got "
                    f"{type(fault).__name__}"
                )


def fault_library() -> dict[str, FaultSpec]:
    """The built-in fault recipes, keyed by name.

    One recipe per failure family the ladder and monitor must absorb:
    the healthy baseline, a windowed sensor outage, a stuck channel, a
    CAN error storm on the IMU telemetry, and a lossy ACC link
    compounded with clock skew.
    """
    specs = [
        FaultSpec(name="nominal"),
        FaultSpec(
            name="acc_dropout_window",
            faults=(SensorDropout(sensor="acc", start=45.0, duration=10.0),),
        ),
        FaultSpec(
            name="stuck_acc_axis",
            faults=(StuckAxis(sensor="acc", axis=0, start=40.0,
                              duration=20.0),),
        ),
        FaultSpec(
            name="can_error_storm",
            faults=(CanBusErrorStorm(start=50.0, duration=2.0),),
        ),
        FaultSpec(
            name="lossy_burst_skew",
            faults=(
                ClockSkew(sensor="acc", ppm=150.0),
                LossyLinkBurst(
                    start=35.0, duration=15.0, drop_probability=0.4
                ),
            ),
        ),
    ]
    return {spec.name: spec for spec in specs}


def normalize_seeds(seeds) -> tuple[int, ...]:
    """``seeds`` as a tuple of ints, refusing negative ones up front.

    NumPy seeds only non-negative integers; refused here, a negative
    seed cannot quarantine the batch or cell it would share.
    """
    seeds = tuple(int(s) for s in seeds)
    if any(s < 0 for s in seeds):
        raise ConfigurationError(f"seeds must be non-negative, got {seeds}")
    return seeds


def scenario_jobs(
    scenario: ScenarioSpec,
    rows: Sequence[tuple[int, tuple[Fault, ...]]],
    misalignment: EulerAngles,
    estimator_config: BoresightConfig,
) -> list[EnsembleJob]:
    """One :class:`EnsembleJob` per ``(seed, fault chain)`` row, in order.

    The one place jobs are built, for campaign cells and service
    requests alike.  The trajectory is materialized once and, like
    the other payloads, shared by identity, as the lockstep engine
    requires.
    """
    trajectory = scenario.build_trajectory()
    return [
        EnsembleJob(
            seed=seed,
            trajectory=trajectory,
            misalignment=misalignment,
            estimator_config=estimator_config,
            moving=scenario.moving,
            faults=chain,
            vibration=scenario.vibration,
        )
        for seed, chain in rows
    ]


@dataclass(frozen=True)
class CampaignCell:
    """One (scenario, fault recipe, seed list) grid cell, picklable.

    The unit the campaign engines execute: everything a worker shard
    needs to rebuild the cell's :class:`EnsembleJob` list from scratch
    (trajectories are materialized inside the worker, not pickled).
    """

    scenario: ScenarioSpec
    fault: FaultSpec
    seeds: tuple[int, ...]
    #: Arm the dead-reckoning rung of the degradation ladder.
    fallback_hold: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "seeds", normalize_seeds(self.seeds))
        if not self.seeds:
            raise ConfigurationError("a campaign cell needs seeds")

    def jobs(self) -> list[EnsembleJob]:
        """The cell's ensemble jobs: scenario faults, then recipe faults."""
        chain = self.scenario.faults + self.fault.faults
        return scenario_jobs(
            self.scenario,
            [(seed, chain) for seed in self.seeds],
            DEFAULT_MISALIGNMENT,
            self.scenario.build_estimator_config(
                fallback_hold=self.fallback_hold
            ),
        )


@dataclass(frozen=True)
class CampaignSpec:
    """A full campaign grid: scenarios × fault recipes × seeds."""

    name: str
    scenarios: tuple[ScenarioSpec, ...]
    faults: tuple[FaultSpec, ...]
    seeds: tuple[int, ...]
    #: Arm the degradation ladder in every cell (the campaign default:
    #: campaigns measure graceful degradation, not raw divergence).
    fallback_hold: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "scenarios", tuple(self.scenarios))
        object.__setattr__(self, "faults", tuple(self.faults))
        object.__setattr__(self, "seeds", normalize_seeds(self.seeds))
        if not self.scenarios or not self.faults or not self.seeds:
            raise ConfigurationError(
                "a campaign needs scenarios, fault recipes and seeds"
            )
        for label, names in (
            ("scenario", [s.name for s in self.scenarios]),
            ("fault recipe", [f.name for f in self.faults]),
        ):
            if len(set(names)) != len(names):
                raise ConfigurationError(f"duplicate {label} names: {names}")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigurationError("campaign seeds must be distinct")

    def cells(self) -> tuple[CampaignCell, ...]:
        """The grid in scenario-major, fault-minor order."""
        return tuple(
            CampaignCell(
                scenario=scenario,
                fault=fault,
                seeds=self.seeds,
                fallback_hold=self.fallback_hold,
            )
            for scenario in self.scenarios
            for fault in self.faults
        )


def smoke_campaign_spec(seeds: tuple[int, ...] = tuple(range(900, 908))):
    """The CI smoke grid: the full built-in corpus × recipes × 8 seeds."""
    return CampaignSpec(
        name="campaign_smoke",
        scenarios=tuple(scenario_library().values()),
        faults=tuple(fault_library().values()),
        seeds=seeds,
    )


@dataclass(frozen=True)
class ResilienceReport:
    """What the supervisor did to finish a campaign grid."""

    #: Cell attempts replayed after a transient failure.
    retries: int = 0
    #: Cell attempts that died on the per-cell deadline.
    timeouts: int = 0
    #: Cell attempts lost to a broken worker pool (a killed worker).
    pool_failures: int = 0
    #: Cells recorded with a fault string after exhausting retries.
    quarantined: int = 0
    #: Cells rehydrated from the journal + cache instead of re-run.
    resumed_from_journal: int = 0
    #: Cells actually executed this run.
    cells_run: int = 0
    #: Cells served from the cache without a journal record.
    cells_cached: int = 0


@dataclass(frozen=True)
class CampaignResult:
    """Cell-by-cell outcome of a campaign run.

    ``summaries`` aligns with ``cells``; an entry is ``None`` when
    every seed of that cell diverged.  Classification and reporting
    live in :mod:`repro.analysis.reporting`.

    Every run also carries per-cell ``statuses`` (``"completed"``,
    ``"cached"``, ``"resumed"``, ``"quarantined"``), the matching
    ``cell_faults`` strings (``None`` except for quarantined cells)
    and a :class:`ResilienceReport`; the golden form
    (:meth:`to_golden`) reads none of them.
    """

    spec: CampaignSpec
    cells: tuple[CampaignCell, ...]
    summaries: tuple[MonteCarloSummary | None, ...]
    statuses: tuple[str, ...] = ()
    cell_faults: tuple[str | None, ...] = ()
    resilience: ResilienceReport | None = None

    def classifications(self) -> list[str]:
        """Per-cell ``absorbed``/``degraded``/``diverged``/``quarantined``.

        A quarantined cell has no summary, which would misread as
        ``"diverged"`` — the supervised statuses take precedence so
        an execution-stack casualty is never booked as a model one.
        """
        from repro.analysis.reporting import classify_cell

        labels = []
        for index, (cell, summary) in enumerate(
            zip(self.cells, self.summaries)
        ):
            if self.statuses and self.statuses[index] == "quarantined":
                labels.append("quarantined")
            else:
                labels.append(
                    classify_cell(summary, expected_runs=len(cell.seeds))
                )
        return labels

    def to_golden(self) -> dict:
        """The platform-stable golden form of this result.

        Only discrete observables — classifications, divergence and
        fallback counts — so the artifact compares exactly across
        BLAS/libm builds.
        """
        cells = []
        for cell, summary, label in zip(
            self.cells, self.summaries, self.classifications()
        ):
            cells.append(
                {
                    "scenario": cell.scenario.name,
                    "fault": cell.fault.name,
                    "seeds": len(cell.seeds),
                    "classification": label,
                    "diverged": (
                        len(summary.diverged_seeds)
                        if summary is not None
                        else len(cell.seeds)
                    ),
                    "fallback_counts": (
                        summary.fallback_counts if summary is not None else {}
                    ),
                }
            )
        return {"name": self.spec.name, "cells": cells}


def _run_cell(cell: CampaignCell, engine: str) -> MonteCarloSummary | None:
    """Run one cell through an ``"ensemble"`` engine; None = all diverged."""
    return summarize_rows(resolve_engine("ensemble", engine)(cell.jobs()))


def _run_cell_fast(
    cell: CampaignCell, _unused=None
) -> MonteCarloSummary | None:
    """Module-level pool task (spawn must pickle it by name).

    ``_unused`` takes the second argument perfbench's cell tracer passes.
    """
    return _run_cell(cell, "fast")


class _CellRun:
    """The cells of one campaign run and what became of each.

    Built by :func:`_run_cells_supervised`, which settles up front
    every cell that needs no execution — sticky journal quarantines,
    journal resumes, cache hits — and leaves the rest in ``pending``
    for the campaign engine.  The engine runs :attr:`pending_cells`
    through :meth:`Supervisor.map`, with :meth:`start` and
    :meth:`settle` as its hooks: both take a position in ``pending``,
    and :meth:`settle` stores a completed summary in the cache before
    its ``completed`` journal record lands.
    """

    def __init__(
        self,
        cells: list[CampaignCell],
        supervisor: Supervisor,
        journal: CampaignJournal | None,
        cache: CampaignCache | None,
        cell_runner: Callable,
    ) -> None:
        self.cells = cells
        self.supervisor = supervisor
        self.journal = journal
        self.cache = cache
        self.cell_runner = cell_runner
        # Journal records are keyed by the cache's canonical digest.
        self.digests = (
            None if journal is None else [canonical_digest(c) for c in cells]
        )
        self.summaries: list[MonteCarloSummary | None] = [None] * len(cells)
        self.statuses = ["pending"] * len(cells)
        self.faults: list[str | None] = [None] * len(cells)
        #: :class:`ResilienceReport` field -> count.
        self.counts: Counter = Counter()
        #: Indices of the cells left to execute, in grid order.
        self.pending: list[int] = []
        replay = journal.replay() if journal is not None else {}
        for index, cell in enumerate(cells):
            record = replay.get(self.digests[index]) if replay else None
            if record is not None and record.status == "quarantined":
                # Sticky: a quarantined cell stays quarantined on resume;
                # clearing it is an operator decision (new journal).
                self.statuses[index] = "quarantined"
                self.faults[index] = record.fault
                self.counts["quarantined"] += 1
                continue
            if cache is not None:
                hit, summary = cache.lookup(cell)
                if hit:
                    self.summaries[index] = summary
                    if record is not None and record.status == "completed":
                        self.statuses[index] = "resumed"
                        self.counts["resumed_from_journal"] += 1
                    else:
                        self.statuses[index] = "cached"
                        self.counts["cells_cached"] += 1
                    continue
            self.pending.append(index)

    @property
    def pending_cells(self) -> list[CampaignCell]:
        """The cells left to execute, in grid order."""
        return [self.cells[index] for index in self.pending]

    def start(self, position: int, attempt: int) -> None:
        """Journal an attempt at pending cell ``position`` before it runs."""
        if self.journal is not None:
            self.journal.record(
                self.digests[self.pending[position]], "started", attempt=attempt
            )

    def settle(self, position: int, outcome: SupervisedOutcome) -> None:
        """Book pending cell ``position``'s outcome: counts, cache, journal."""
        index = self.pending[position]
        self.counts["retries"] += outcome.retries
        self.counts["timeouts"] += outcome.timeouts
        self.counts["pool_failures"] += outcome.pool_failures
        if not outcome.completed:
            self.statuses[index] = "quarantined"
            self.faults[index] = outcome.fault
            self.counts["quarantined"] += 1
            if self.journal is not None:
                self.journal.record(
                    self.digests[index],
                    "quarantined",
                    attempt=outcome.attempts,
                    fault=outcome.fault,
                )
            return
        self.summaries[index] = outcome.value
        self.statuses[index] = "completed"
        self.counts["cells_run"] += 1
        if self.cache is not None:
            self.cache.store(self.cells[index], outcome.value)
        if self.journal is not None:
            self.journal.record(
                self.digests[index],
                "completed",
                attempt=outcome.attempts,
                summary_ref=(
                    None if self.cache is None else self.digests[index]
                ),
            )


@register_engine(
    "campaign",
    "model",
    oracle=True,
    description="cells in grid order through the serial ensemble oracle",
)
def run_campaign_cells_serial(run: _CellRun, workers: int = 1) -> None:
    """The ``"campaign"`` domain contract on the oracle path.

    Engines take a campaign run — its pending cells, the supervisor
    and the per-cell bookkeeping — plus a ``workers`` count, and
    settle every pending cell through ``run.settle``.  The oracle runs
    each cell through the serial per-seed ensemble engine, in grid
    order, in this process; pooling belongs to the fast engine.
    """
    run.supervisor.map(
        functools.partial(run.cell_runner, engine="model"),
        run.pending_cells,
        on_start=run.start,
        on_settle=run.settle,
    )


run_campaign_cells_serial.single_process = True


@register_engine(
    "campaign",
    "fast",
    description="lockstep cells, over a worker pool when workers > 1",
)
def run_campaign_cells_sharded(run: _CellRun, workers: int = 1) -> None:
    """Lockstep cells, in process or over ``workers`` pool processes.

    Each cell runs the lockstep ensemble engine (single-process, all
    seeds stacked, streamed in seed blocks); ``workers > 1`` spreads
    whole cells over a refilled worker pool that lives for this call,
    built by ``supervisor.pool_factory``.  Pool tasks go through
    ``_run_cell_fast``, looked up when the engine runs.  Summaries
    land by cell index regardless of completion order, so the result
    is identical for any ``workers``.
    """
    cells = run.pending_cells
    if workers > 1 and len(cells) > 1:
        pool = run.supervisor.pool_factory(min(workers, len(cells)))
        task = _run_cell_fast
    else:
        pool = None
        task = functools.partial(run.cell_runner, engine="fast")
    try:
        run.supervisor.map(
            task, cells, pool=pool, on_start=run.start, on_settle=run.settle
        )
    finally:
        if pool is not None:
            pool.shutdown()


def _run_cells_supervised(
    cells: list[CampaignCell],
    *,
    engine: str = "fast",
    workers: int = 1,
    supervisor: Supervisor | None = None,
    journal=None,
    cache: CampaignCache | None = None,
    cell_runner: Callable | None = None,
):
    """Cells through a ``"campaign"`` engine under a supervisor.

    Returns ``(summaries, statuses, faults, report)`` — what
    :func:`repro.api.execute` builds a :class:`CampaignResult` from,
    after it has validated ``engine`` and ``workers``.
    Semantics:

    - ``supervisor`` defaults to ``Supervisor()`` (no deadline, three
      attempts); on a clean run nothing retries, so supervision costs
      nothing but bookkeeping;
    - every cell is keyed by its canonical digest (the cache key);
      with a ``journal`` (a :class:`~repro.resilience.CampaignJournal`
      or a path), a ``started`` record lands before each attempt and
      a terminal ``completed``/``quarantined`` record after, fsync'd,
      so a killed process resumes by rehydrating ``completed`` cells
      from the cache and re-running only in-flight ones;
    - cells run through :meth:`Supervisor.map`: in process one at a
      time (watchdog deadline, backoff, quarantine), where
      ``cell_runner`` swaps the per-cell callable ``(cell, engine=)``
      — the in-process chaos hook; or, on the fast
      engine with ``workers > 1``, on a pool built by
      ``supervisor.pool_factory`` — the pool-level chaos hook.

    Retries replay seed-deterministic work, so every recovered summary
    is bit-identical to the fault-free serial oracle's.
    """
    owns_journal = journal is not None and not isinstance(
        journal, CampaignJournal
    )
    if owns_journal:
        journal = CampaignJournal(journal)
    try:
        run = _CellRun(
            list(cells),
            supervisor if supervisor is not None else Supervisor(),
            journal,
            cache,
            cell_runner if cell_runner is not None else _run_cell,
        )
        resolve_engine("campaign", engine)(run, workers)
    finally:
        if owns_journal:
            journal.close()
    return (
        tuple(run.summaries),
        tuple(run.statuses),
        tuple(run.faults),
        ResilienceReport(**run.counts),
    )


def run_campaign(
    spec: CampaignSpec,
    engine: str = "fast",
    workers: int = 1,
    cache: CampaignCache | None = None,
    supervisor=None,
    journal=None,
) -> CampaignResult:
    """Execute every cell of ``spec`` and collect the grid result.

    A thin shim over :func:`repro.api.execute` (the knobs are the
    uniform façade knobs): ``engine`` selects the ``"campaign"``
    backend (``"model"`` oracle or the default ``"fast"`` lockstep
    path); ``workers > 1`` spreads cells over a worker pool on the
    fast engine.  Cell summaries are bit-identical across engines and
    worker counts — which is what makes
    ``cache`` (a :class:`~repro.scenarios.cache.CampaignCache`) sound:
    cells whose canonical digest hits the cache are served without
    running, only the missing cells go to the engine, and the grid is
    stitched back in cell order.  Fresh results are stored back, so
    iterating on one scenario re-runs only its cells.

    Every campaign runs under a :class:`~repro.resilience.Supervisor`
    — ``supervisor`` or, by default, ``Supervisor()``: per-cell
    deadlines with a worker watchdog, deterministic retry/backoff and
    poison quarantine, reported on
    :attr:`CampaignResult.statuses`/``cell_faults``/``resilience``
    instead of raising.  ``journal`` (a
    :class:`~repro.resilience.CampaignJournal` or a path) adds the
    write-ahead record that lets a killed run resume, re-running only
    cells without a durable ``completed`` record.
    """
    # Imported lazily: repro.api sits on top of this module.
    from repro.api import execute

    return execute(
        spec,
        engine=engine,
        workers=workers,
        cache=cache,
        supervisor=supervisor,
        journal=journal,
    )


def matrix_fault_specs(matrix: FaultMatrix) -> dict[int, FaultSpec]:
    """A fault matrix's per-seed recipes as campaign ``FaultSpec``s.

    Recipe names embed the matrix name and seed
    (``"<matrix>/seed<k>"``), so specs from different seeds or
    matrices never collide in a campaign's duplicate-name check.
    """
    return {
        seed: FaultSpec(
            name=f"{matrix.name}/seed{seed}", faults=recipe
        )
        for seed, recipe in matrix.recipes
    }


def matrix_campaign_cells(
    scenario: ScenarioSpec,
    matrix: FaultMatrix,
    fallback_hold: bool = True,
) -> tuple[CampaignCell, ...]:
    """One single-seed cell per matrix entry, in matrix order.

    The per-seed shape is the point of a sampled matrix — every seed
    carries its *own* drawn recipe, so cells cannot share a fault spec
    the way grid campaigns do.  The cells are plain
    :class:`CampaignCell`\\ s: digestible, cacheable, journal-able and
    valid under every campaign engine.
    """
    specs = matrix_fault_specs(matrix)
    return tuple(
        CampaignCell(
            scenario=scenario,
            fault=specs[seed],
            seeds=(seed,),
            fallback_hold=fallback_hold,
        )
        for seed, _ in matrix.recipes
    )
