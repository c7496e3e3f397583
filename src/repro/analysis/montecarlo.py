"""Monte-Carlo batches over the boresight protocol.

The paper reports single runs; a reproduction can afford ensembles.
These helpers run the §11 protocols (static bench and dynamic drive)
across seeds and aggregate error statistics — used to check the
3-sigma coverage claim statistically rather than anecdotally.

Every run owns an independent seed, so ensembles batch:
``engine="fast"`` advances every run in lockstep over stacked arrays
(shared trajectory sampling, batched noise and vibration chains, a
:class:`~repro.fusion.batch_kalman.BatchKalmanFilter` with per-run
motion gating), bit-identical to the serial engine with the same seeds
and roughly ``runs`` times faster in one process.  It streams the runs
in seed blocks of :data:`~repro.experiments.arena.CHUNK_SIZE` to bound
memory; the block size is not a parameter, because no result bit
depends on it.  The serial engine, ``engine="model"``, is the
verification oracle: one rig per seed, in seed order, in this process.
Process parallelism is a campaign knob
(:mod:`repro.scenarios.campaign`), not an ensemble one.

Both engines mask divergence per run: a seed whose filter blows up
(e.g. under an injected ACC dropout) is reported in
``MonteCarloSummary.diverged_seeds`` and excluded from the aggregates
instead of aborting the whole ensemble.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from repro.engines import register_engine
from repro.errors import ConfigurationError, FilterDivergenceError
from repro.experiments.protocol import BoresightTestRig, RigConfig
from repro.experiments.table1 import (
    dynamic_estimator_config,
    static_estimator_config,
)
from repro.fusion import BoresightConfig
from repro.geometry import EulerAngles
from repro.scenarios.faults import Fault
from repro.vehicle import Trajectory, VibrationSpec

#: Default body-rate magnitude (rad/s) above which the dynamic
#: ensembles skip measurement updates.  City-drive corners peak around
#: 0.5 rad/s, so the gate trims the hard-cornering ticks where the
#: lever-arm and timing systematics are worst while keeping most of
#: the drive observable.
DYNAMIC_MOTION_GATE_RATE = 0.4


@dataclass(eq=False)
class MonteCarloSummary:
    """Aggregate over an ensemble of runs."""

    runs: int
    #: Per-axis RMS estimation error, degrees.
    rms_error_deg: np.ndarray
    #: Per-axis worst error, degrees.
    max_error_deg: np.ndarray
    #: Fraction of (run, axis) pairs with truth inside the 3-sigma bound.
    coverage_3sigma: float
    #: Mean residual 3-sigma exceedance fraction across runs.
    mean_exceedance: float
    #: Average normalized estimation error squared over the converged
    #: runs — the χ²-style filter-calibration statistic, computed
    #: vectorized over the ``(R, n)`` error/sigma stacks.  A perfectly
    #: calibrated filter scores near the error dimensionality ``n``.
    anees: float
    #: Seeds whose filter diverged; masked out of every aggregate above.
    diverged_seeds: tuple[int, ...] = ()
    #: Per converged run, in seed order: ``"degraded"`` when the run
    #: spent any tick on the dead-reckoning hold rung of the
    #: degradation ladder (``fallback_hold``), else ``"full"``.
    fallback_states: tuple[str, ...] = ()

    @property
    def fallback_counts(self) -> dict[str, int]:
        """Occurrences of each fallback label (including diverged)."""
        counts: dict[str, int] = {}
        for label in self.fallback_states:
            counts[label] = counts.get(label, 0) + 1
        if self.diverged_seeds:
            counts["diverged"] = len(self.diverged_seeds)
        return counts

    def __eq__(self, other: object) -> bool:
        # The dataclass-generated __eq__ would raise on the ndarray
        # fields; exact comparison supports the model-vs-fast
        # determinism contract.
        if not isinstance(other, MonteCarloSummary):
            return NotImplemented
        return (
            self.runs == other.runs
            and np.array_equal(self.rms_error_deg, other.rms_error_deg)
            and np.array_equal(self.max_error_deg, other.max_error_deg)
            and self.coverage_3sigma == other.coverage_3sigma
            and self.mean_exceedance == other.mean_exceedance
            and self.diverged_seeds == other.diverged_seeds
            and self.fallback_states == other.fallback_states
            and self.anees == other.anees
        )


def summarize_outcomes(
    outcomes: Sequence[tuple],
    diverged_seeds: Sequence[int] = (),
) -> MonteCarloSummary:
    """Aggregate per-run outcome tuples.

    Each outcome is ``(error_deg, covered, exceedance, hold_ticks,
    three_sigma_deg)``, as both ensemble engines produce it.  Every
    summary is built here (through :func:`summarize_rows`), whichever
    engine produced the rows, so the aggregation arithmetic — and
    therefore the bit-identity contract between engines — lives in
    exactly one place.  The 3-sigma coverage denominator is ``runs``
    times the error dimensionality taken from the error vectors
    themselves; ANEES is computed vectorized over the stacked
    ``(R, n)`` error/sigma matrices.  ``diverged_seeds`` records seeds
    already masked out of ``outcomes``; ``runs`` counts only the
    converged runs.
    """
    if not outcomes:
        raise ConfigurationError("no outcomes to summarize")
    runs = len(outcomes)
    errors = [outcome[0] for outcome in outcomes]
    covered = sum(outcome[1] for outcome in outcomes)
    exceedances = [outcome[2] for outcome in outcomes]
    hold_ticks = [int(outcome[3]) for outcome in outcomes]
    error_matrix = np.array(errors)
    axis_count = error_matrix.shape[1]
    # One-sigma from the reported 3-sigma bound; NEES per run over the
    # whitened (R, n) stack, then the ensemble average.
    sigma_matrix = np.array([outcome[4] for outcome in outcomes]) / 3.0
    nees = np.sum((error_matrix / sigma_matrix) ** 2, axis=1)
    return MonteCarloSummary(
        runs=runs,
        rms_error_deg=np.sqrt(np.mean(error_matrix**2, axis=0)),
        max_error_deg=np.max(np.abs(error_matrix), axis=0),
        coverage_3sigma=covered / (runs * axis_count),
        mean_exceedance=float(np.mean(exceedances)),
        anees=float(np.mean(nees)),
        diverged_seeds=tuple(int(s) for s in diverged_seeds),
        fallback_states=tuple(
            "degraded" if ticks > 0 else "full" for ticks in hold_ticks
        ),
    )


def summarize_rows(
    rows: Sequence[tuple[int, tuple | None]],
) -> MonteCarloSummary | None:
    """Reduce an engine's per-seed rows to one summary.

    ``rows`` are ``(seed, outcome | None)`` in job order — what every
    ``"ensemble"`` engine returns and what the service regroups per
    request; ``None`` marks a diverged seed.  The converged outcomes
    go to :func:`summarize_outcomes` and the diverged seeds are listed
    in row order.  Returns ``None`` when every seed diverged: there is
    nothing to aggregate, and each caller reports that its own way.
    """
    outcomes = [outcome for _, outcome in rows if outcome is not None]
    if not outcomes:
        return None
    diverged = [seed for seed, outcome in rows if outcome is None]
    return summarize_outcomes(outcomes, diverged_seeds=diverged)


@dataclass(frozen=True)
class EnsembleJob:
    """One seeded protocol run, fully specified and picklable.

    The typed job payload both ``"ensemble"`` engines take: everything
    a run needs to reproduce it bit-for-bit from the seed alone.
    Every job is built by :func:`repro.scenarios.spec.scenario_jobs`,
    from a :class:`~repro.scenarios.spec.ScenarioRequest` — a campaign
    cell, a service request or one of the ensemble shims below.
    """

    seed: int
    trajectory: Trajectory
    misalignment: EulerAngles
    estimator_config: BoresightConfig
    #: Whether the vibration environment is switched on (dynamic tests).
    moving: bool
    #: This run's fault chain, applied in order to its test-phase
    #: streams; a scheduled ACC failure is its trailing open-ended
    #: :class:`~repro.scenarios.faults.SensorDropout`.
    faults: tuple[Fault, ...] = ()
    #: Vibration environment override for moving runs; None keeps the
    #: rig default.
    vibration: VibrationSpec | None = None


def _run_job(
    job: EnsembleJob,
) -> tuple[np.ndarray, int, float, int, np.ndarray] | None:
    """One seeded protocol run on its own serial rig.

    Returns ``None`` when the run's filter diverges — the covariance
    check raises :class:`~repro.errors.FilterDivergenceError`, or the
    non-finite state poisons a LAPACK call (``LinAlgError``).  The
    caller masks such seeds instead of aborting the ensemble.
    """
    config_kwargs = dict(seed=job.seed, faults=job.faults)
    if job.vibration is not None:
        config_kwargs["vibration"] = job.vibration
    rig = BoresightTestRig(RigConfig(**config_kwargs))
    try:
        run = rig.run(
            job.misalignment,
            job.trajectory,
            estimator_config=job.estimator_config,
            moving=job.moving,
        )
    except (FilterDivergenceError, np.linalg.LinAlgError):
        return None
    error = run.error_vs_truth_deg()
    three_sigma = run.result.three_sigma_deg()
    covered = int(np.sum(np.abs(error) <= three_sigma))
    exceedance = float(np.max(run.result.monitor.exceedance_fraction))
    hold = run.result.history.hold_ticks()
    return error, covered, exceedance, hold, three_sigma


@register_engine(
    "ensemble",
    "model",
    oracle=True,
    description="one serial rig per seed, in job order",
)
def _run_serial_engine(
    jobs: list[EnsembleJob],
) -> list[tuple[int, tuple | None]]:
    """Execute jobs on the oracle engine, one serial rig per seed.

    The ``"ensemble"`` domain contract: ``engine(jobs) -> rows``.
    Engines take the typed :class:`EnsembleJob` list and return one
    ``(seed, outcome | None)`` row per job, in job order (``None`` =
    that seed diverged); callers reduce the rows with
    :func:`summarize_rows`.  This oracle runs one
    :class:`~repro.experiments.protocol.BoresightTestRig` per seed, in
    this process.
    """
    return [(job.seed, _run_job(job)) for job in jobs]


def run_monte_carlo_static(
    runs: int = 5,
    duration: float = 160.0,
    misalignment: EulerAngles | None = None,
    measurement_sigma: float = 0.006,
    base_seed: int = 100,
    dwell_time: float = 10.0,
    slew_time: float = 3.0,
    engine: str = "model",
    faults: Sequence[Fault] = (),
    fallback_hold: bool = False,
    cache=None,
) -> MonteCarloSummary:
    """Repeat the static protocol across seeds and aggregate.

    Uses a compressed tilt schedule by default so ensembles stay cheap;
    pass ``dwell_time=16, slew_time=4`` for the paper's full schedule.

    ``engine`` selects how the ensemble executes:

    - ``"model"`` (default) — one serial rig per seed, the verification
      oracle.
    - ``"fast"`` — the batched lockstep engine: all runs advance
      together over stacked ``(R, ...)`` arrays (one trajectory
      sampling, batched noise chains, a ``BatchKalmanFilter``).  The
      summary is **bit-identical** to ``engine="model"`` with the same
      seeds (per-seed RNG draws are unchanged) and roughly ``runs``
      times faster.

    Both run in this process; fanning work out over processes is a
    campaign knob (:func:`~repro.scenarios.campaign.run_campaign`).

    ``faults`` injects a :mod:`repro.scenarios.faults` chain into every
    run; ``fallback_hold`` arms the dead-reckoning rung of the
    degradation ladder (see
    :class:`~repro.fusion.boresight.BoresightConfig.fallback_hold`).

    This is a thin shim over :func:`repro.api.execute` — the ensemble
    is phrased as a :class:`~repro.scenarios.spec.ScenarioRequest`
    and executed through the façade, so the uniform ``cache`` knob
    applies: a :class:`~repro.scenarios.cache.CampaignCache` serves
    bit-exact repeats without recomputing.  Dispatch runs through the
    ``"ensemble"`` domain of :mod:`repro.engines`; any further
    registered backend is selectable by name.
    """
    # Imported lazily: repro.api and repro.scenarios.spec sit on top
    # of this module.
    from repro.api import execute
    from repro.scenarios.spec import FaultSpec, ScenarioRequest, ScenarioSpec

    scenario = ScenarioSpec(
        name="static_ensemble",
        profile="static_tilt",
        duration=duration,
        profile_args=(("dwell_time", dwell_time), ("slew_time", slew_time)),
        moving=False,
        measurement_sigma=measurement_sigma,
        motion_gate_rate=None,
    )
    estimator_config = static_estimator_config(measurement_sigma)
    if fallback_hold:
        estimator_config = replace(estimator_config, fallback_hold=True)
    request = ScenarioRequest(
        scenario=scenario,
        seeds=tuple(base_seed + i for i in range(runs)),
        fault=FaultSpec(name="injected", faults=tuple(faults)),
        misalignment=misalignment,
        estimator_config=estimator_config,
        fallback_hold=fallback_hold,
    )
    return execute(request, engine=engine, cache=cache).summary


def run_monte_carlo_dynamic(
    runs: int = 5,
    duration: float = 160.0,
    misalignment: EulerAngles | None = None,
    measurement_sigma: float = 0.03,
    base_seed: int = 100,
    route_seed: int = 50,
    motion_gate_rate: float | None = DYNAMIC_MOTION_GATE_RATE,
    acc_dropout: Mapping[int, float] | None = None,
    adaptive: bool = False,
    engine: str = "model",
    faults: Sequence[Fault] = (),
    fallback_hold: bool = False,
    vibration: VibrationSpec | None = None,
    cache=None,
) -> MonteCarloSummary:
    """Repeat the dynamic (driving) protocol across seeds and aggregate.

    Every seed's rig flies the *same* randomized city drive (generated
    once from ``route_seed``) with its own instrument noise and its own
    vibration environment — the ensemble twin of the paper's Table 1
    dynamic rows, with ``measurement_sigma`` defaulting to the paper's
    moving-test retune (R ≥ 0.015).  ``motion_gate_rate`` arms the
    motion gate of :func:`~repro.experiments.table1.dynamic_estimator_config`
    (``None`` disables gating).

    ``acc_dropout`` maps seeds to a test-phase time at which that
    seed's ACC goes NaN (sensor failure).  The resulting filter
    divergence is *masked*, not fatal: the seed lands in
    ``MonteCarloSummary.diverged_seeds`` and the aggregates cover the
    surviving runs — identically in both engines.

    ``adaptive`` switches on innovation-matching measurement-noise
    adaptation (:mod:`repro.fusion.adaptive`) — the automated version
    of the paper's manual R retune.  It runs in **both** engines: the
    batched ensemble carries one lockstep noise matcher per run,
    bit-identical to the serial estimator's.

    ``engine`` behaves exactly as in :func:`run_monte_carlo_static`;
    the fast engine's summary is bit-identical to the serial oracle's
    for the same seeds.

    ``faults`` injects a :mod:`repro.scenarios.faults` chain into every
    run, ``fallback_hold`` arms the dead-reckoning rung of the
    degradation ladder, and ``vibration`` overrides the rigs' default
    vibration environment (rough-road scenarios).

    Like :func:`run_monte_carlo_static`, this is a thin shim over
    :func:`repro.api.execute` with the uniform ``cache`` knob.
    """
    # Imported lazily: repro.api and repro.scenarios.spec sit on top
    # of this module.
    from repro.api import execute
    from repro.scenarios.spec import FaultSpec, ScenarioRequest, ScenarioSpec

    scenario = ScenarioSpec(
        name="dynamic_ensemble",
        profile="city_drive",
        duration=duration,
        route_seed=route_seed,
        moving=True,
        measurement_sigma=measurement_sigma,
        motion_gate_rate=motion_gate_rate,
        vibration=vibration,
    )
    estimator_config = dynamic_estimator_config(
        measurement_sigma,
        motion_gate_rate=motion_gate_rate,
        adaptive=adaptive,
    )
    if fallback_hold:
        estimator_config = replace(estimator_config, fallback_hold=True)
    seeds = tuple(base_seed + i for i in range(runs))
    dropout = () if acc_dropout is None else tuple(
        (seed, acc_dropout[seed])
        for seed in seeds
        if acc_dropout.get(seed) is not None
    )
    request = ScenarioRequest(
        scenario=scenario,
        seeds=seeds,
        fault=FaultSpec(name="injected", faults=tuple(faults)),
        misalignment=misalignment,
        estimator_config=estimator_config,
        fallback_hold=fallback_hold,
        acc_dropout=dropout,
    )
    return execute(request, engine=engine, cache=cache).summary
