"""The §11 protocols over an ensemble of seeds, in lockstep.

The serial :class:`~repro.experiments.protocol.BoresightTestRig` costs
one full Python-level pipeline per seed.  For a Monte-Carlo ensemble
the *deterministic* work — trajectory sampling, lever-arm truth, frame
rotations, the protocol schedule — is identical across seeds, and the
per-seed work (noise draws, vibration, error chains, calibration,
reconstruction, filtering) batches into stacked arrays.  This module
runs R rigs as:

1. fetch the calibration and test truth through
   :func:`~repro.vehicle.trajectory.shared_sample`, which integrates
   each (trajectory, rate) pair **once per process** — every seed
   block, campaign cell and service batch in the process reads the
   same read-only arrays;
2. draw every rig's noise streams per seed (bit-identical RNG order,
   see :mod:`repro.sensors.batch`) and, for moving tests, synthesize
   every rig's vibration fields
   (:mod:`repro.vehicle.batch_vibration`);
3. sense, calibrate, reconstruct and filter all R runs in lockstep,
   with per-run motion gating and divergence masking inside
   :class:`~repro.fusion.batch_boresight.BatchBoresightEstimator`.

:func:`run_lockstep_jobs` feeds the ensemble one seed block at a time
(:func:`~repro.experiments.arena.iter_job_outcomes`, blocks of
:data:`~repro.experiments.arena.CHUNK_SIZE`).

Each run's outputs are bit-identical to the serial rig's — the serial
path stays the verification oracle (``tests/test_batch_kalman.py`` and
``tests/test_dynamic_ensemble.py`` pin the equality,
``benchmarks/run_batch_kalman.py`` / ``run_dynamic_ensemble.py`` the
speedups).  A seed whose filter diverges (e.g. under an injected ACC
dropout) is flagged and masked out of the aggregation in both engines
rather than aborting the ensemble.

Faults are a property of each row: every run applies its own fault
chain (a job's ``faults``) to its own row views, so one batch may mix
fault recipes and repeat a seed under different chains.  Rows are kept
apart by their index, never by their seed.

The laser-boresight truth draw is skipped: it consumes an independent
child generator (stream 300), so skipping it cannot perturb any other
stream, and the ensemble statistics compare against simulation truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.engines import register_engine
from repro.errors import ConfigurationError, FusionError
from repro.experiments.arena import StateArena, iter_job_outcomes
from repro.experiments.protocol import RigConfig, bench_estimator_config
from repro.fusion import BoresightConfig
from repro.fusion.batch_boresight import (
    BatchBoresightEstimator,
    BatchBoresightResult,
)
from repro.fusion.calibration import (
    StackedSensorCalibration,
    calibrate_static_stacked,
)
from repro.fusion.reconstruction import reconstruct_stacked
from repro.geometry import EulerAngles
from repro.scenarios.faults import Fault, RunStreams, apply_faults
from repro.sensors import Mounting
from repro.sensors.batch import (
    sense_acc_stacked,
    sense_imu_stacked,
    stack_rig_streams,
)
from repro.vehicle import Trajectory
from repro.vehicle.batch_vibration import stack_vibration_fields
from repro.vehicle.profiles import static_level_profile
from repro.vehicle.trajectory import shared_sample


@dataclass
class LockstepEnsemble:
    """Everything the Monte-Carlo aggregation needs from R lockstep runs."""

    seeds: tuple[int, ...]
    #: The misalignment physically introduced (simulation truth).
    introduced: EulerAngles
    #: Stacked estimator output (final DCMs, sigmas, residual monitor,
    #: divergence flags).
    result: BatchBoresightResult
    #: Per-run biases found during the stacked calibration.
    calibration: StackedSensorCalibration

    def errors_vs_truth_deg(self) -> np.ndarray:
        """Per-run estimate − simulation truth, degrees, (R, 3).

        Rows of diverged runs hold their frozen pre-divergence
        reference and must not be aggregated; :meth:`outcomes` skips
        them.
        """
        introduced = self.introduced.as_array()
        return np.stack(
            [
                np.degrees(estimate.as_array() - introduced)
                for estimate in self.result.misalignments()
            ],
            axis=0,
        )

    @property
    def diverged_seeds(self) -> tuple[int, ...]:
        """Seeds whose filter diverged (masked out of the outcomes)."""
        return tuple(
            int(seed)
            for seed, flag in zip(self.seeds, self.result.diverged)
            if flag
        )

    def outcomes(
        self,
    ) -> list[tuple[np.ndarray, int, float, int, np.ndarray]]:
        """Per-run ``(error_deg, covered, exceedance, hold_ticks,
        three_sigma_deg)``.

        The exact aggregation inputs the serial Monte-Carlo job
        produces, computed with the same elementwise expressions, in
        seed order.  Diverged runs are skipped — the serial engine
        masks those seeds the same way.
        """
        if np.all(self.result.diverged):
            # Nothing converged; every seed is masked, as the serial
            # engine masks it.
            return []
        errors = self.errors_vs_truth_deg()
        three_sigma = self.result.three_sigma_deg()
        exceedance = self.result.monitor.exceedance_fraction
        counts = self.result.monitor.counts
        hold_ticks = self.result.hold_ticks()
        out = []
        for r in range(len(self.seeds)):
            if self.result.diverged[r]:
                continue
            if counts[r] == 0:
                # The serial monitor raises on a run that never
                # recorded an innovation (e.g. fully motion-gated).
                raise FusionError(
                    f"run for seed {self.seeds[r]} recorded no innovations; "
                    "lower motion_gate_rate or lengthen the drive"
                )
            covered = int(np.sum(np.abs(errors[r]) <= three_sigma[r]))
            out.append(
                (
                    errors[r],
                    covered,
                    float(np.max(exceedance[r])),
                    int(hold_ticks[r]),
                    three_sigma[r],
                )
            )
        return out


class StaticEnsemble(LockstepEnsemble):
    """Lockstep ensemble over the static (bench) §11 protocol."""


class DynamicEnsemble(LockstepEnsemble):
    """Lockstep ensemble over the dynamic (driving) §11 protocol."""


def _sampled_phases(
    config: RigConfig, trajectory: Trajectory
) -> tuple[list, list]:
    """The calibration and test truth at each rate, shared per process."""
    calibration_trajectory = static_level_profile(config.calibration_duration)
    rates = {config.imu.sample_rate, config.acc.sample_rate}
    sampled = {
        rate: (
            shared_sample(calibration_trajectory, rate),
            shared_sample(trajectory, rate),
        )
        for rate in rates
    }
    imu_phases = sampled[config.imu.sample_rate]
    acc_phases = sampled[config.acc.sample_rate]
    if len(imu_phases[0].time) != len(acc_phases[0].time) or len(
        imu_phases[1].time
    ) != len(acc_phases[1].time):
        raise ConfigurationError(
            "batch engine requires equal IMU/ACC sample counts per phase"
        )
    return list(imu_phases), list(acc_phases)


def _run_lockstep(
    seeds: Sequence[int],
    misalignment: EulerAngles,
    trajectory: Trajectory,
    estimator_config: BoresightConfig | None,
    rig_config: RigConfig | None,
    moving: bool,
    faults: Sequence[Sequence[Fault]] | None = None,
    arena: StateArena | None = None,
) -> tuple[BatchBoresightResult, StackedSensorCalibration]:
    """Sense → calibrate → reconstruct → filter R rigs in lockstep.

    ``faults`` holds one fault chain per seed, in seed order (``None``
    injects none); each run applies the rig config's shared faults and
    then its own chain.
    ``arena`` supplies the reusable scratch pool the stacked stages
    draw their ``(R, …)`` buffers from; ``None`` keeps every stage on
    private allocations (single-shot callers).  With an arena, the
    returned result's monitor counters and fallback timeline are pool
    views — valid until the next lockstep run on the same arena, so
    chunked callers must extract their per-run outcome rows before
    starting the next seed block (the scheduler does).
    """
    if not seeds:
        raise ConfigurationError("need at least one seed")
    chains = [()] * len(seeds) if faults is None else list(faults)
    if len(chains) != len(seeds) or any(isinstance(c, Fault) for c in chains):
        raise ConfigurationError("faults takes one fault chain per seed")
    config = rig_config if rig_config is not None else RigConfig()
    imu_phases, acc_phases = _sampled_phases(config, trajectory)

    streams = stack_rig_streams(
        seeds,
        config.imu,
        config.acc,
        [len(imu_phases[0].time), len(imu_phases[1].time)],
        arena=arena,
    )
    vibration = None
    if moving:
        fields = stack_vibration_fields(
            config.vibration, seeds, imu_phases[1], arena=arena
        )
        vibration = [[None, fields.imu], [None, fields.acc]]
    imu_calibration, imu_test = sense_imu_stacked(
        config.imu,
        streams,
        imu_phases,
        vibration=vibration[0] if vibration else None,
    )
    arm = np.array(config.lever_arm)
    acc_calibration, acc_test = sense_acc_stacked(
        config.acc,
        streams,
        acc_phases,
        [
            Mounting(lever_arm=arm),
            Mounting(misalignment=misalignment, lever_arm=arm),
        ],
        vibration=vibration[1] if vibration else None,
    )

    # Inject faults per run, on the row views of the stacked test
    # streams — the identical NumPy expressions the serial rig runs on
    # its per-seed arrays, so faulted ensembles stay bit-exact.  Row r
    # applies its own chain, as the serial oracle's ``_run_job`` does.
    for r, (seed, chain) in enumerate(zip(seeds, chains)):
        run_faults = config.faults + tuple(chain)
        if run_faults:
            apply_faults(
                run_faults,
                RunStreams(
                    imu_time=imu_test.time,
                    imu_rate=imu_test.body_rate[r],
                    imu_force=imu_test.specific_force[r],
                    acc_time=acc_test.time,
                    acc_force=acc_test.specific_force[r],
                ),
                int(seed),
            )

    calibration = calibrate_static_stacked(
        imu_calibration, acc_calibration, window=config.calibration_window
    )
    imu_debiased, acc_debiased = calibration.apply(imu_test, acc_test)
    fused = reconstruct_stacked(imu_debiased, acc_debiased, config.fusion_rate)

    if estimator_config is None:
        estimator_config = bench_estimator_config(arm)
    estimator = BatchBoresightEstimator(
        len(seeds), estimator_config, arena=arena
    )
    return estimator.run(fused), calibration


def _ensemble_for_jobs(jobs, arena: StateArena | None = None):
    """Run one homogeneous job block as a single lockstep ensemble.

    The per-chunk unit of the chunked scheduler
    (:func:`repro.experiments.arena.iter_job_outcomes`): unpacks a
    validated :class:`~repro.analysis.montecarlo.EnsembleJob` block
    into the static or dynamic lockstep runner, one fault chain per
    row, drawing every stacked scratch array from ``arena``.
    """
    first = jobs[0]
    rig_config = (
        RigConfig(vibration=first.vibration)
        if first.vibration is not None
        else None
    )
    runner = run_dynamic_ensemble if first.moving else run_static_ensemble
    return runner(
        seeds=[job.seed for job in jobs],
        misalignment=first.misalignment,
        trajectory=first.trajectory,
        estimator_config=first.estimator_config,
        rig_config=rig_config,
        faults=[job.faults for job in jobs],
        arena=arena,
    )


@register_engine(
    "ensemble",
    "fast",
    description="seed-block chunks advanced in lockstep over one arena",
)
def run_lockstep_jobs(jobs):
    """The ``"ensemble"`` domain contract over the lockstep engine.

    ``engine(jobs) -> rows``: takes the same typed
    :class:`~repro.analysis.montecarlo.EnsembleJob` list as the serial
    oracle and returns the bit-identical ``(seed, outcome | None)``
    rows, in job order, computed in this process.  Jobs run in
    lockstep seed blocks of :data:`~repro.experiments.arena.CHUNK_SIZE`
    over one reused :class:`~repro.experiments.arena.StateArena`, so
    arbitrary R streams through bounded memory; blocking only
    partitions the job list, so the rows are bit-identical at every
    block size.
    The jobs must share one trajectory, misalignment and estimator
    config object, one ``moving`` flag and one vibration environment.
    Seeds and fault chains vary freely per row: a seed may repeat under
    different chains, and each row keeps its own outcome.
    """
    if not jobs:
        raise ConfigurationError("need at least one job")
    first = jobs[0]
    for job in jobs[1:]:
        if (
            job.trajectory is not first.trajectory
            or job.misalignment is not first.misalignment
            or job.estimator_config is not first.estimator_config
            or job.moving != first.moving
            or job.vibration != first.vibration
        ):
            raise ConfigurationError(
                "the lockstep engine requires homogeneous jobs: shared "
                "trajectory, misalignment and estimator config objects, "
                "one moving flag and one vibration set (only seeds and "
                "fault chains vary)"
            )
    return list(iter_job_outcomes(jobs))


def run_static_ensemble(
    seeds: list[int] | tuple[int, ...],
    misalignment: EulerAngles,
    trajectory: Trajectory,
    estimator_config: BoresightConfig | None = None,
    rig_config: RigConfig | None = None,
    faults: Sequence[Sequence[Fault]] | None = None,
    arena: StateArena | None = None,
) -> StaticEnsemble:
    """Run the static §11 protocol for every seed, batched in lockstep.

    Mirrors ``BoresightTestRig(RigConfig(seed=s)).run(misalignment,
    trajectory, estimator_config, moving=False)`` for each seed — same
    calibration recording, same remount between phases, same fusion
    pipeline — with all per-seed arrays stacked on a leading run axis.
    ``rig_config`` supplies the shared hardware parameters (its
    ``seed`` field is ignored; the ensemble seeds come from ``seeds``).
    ``faults`` holds one :mod:`repro.scenarios.faults` chain per seed,
    in seed order (per-seed randomness comes from each fault's own
    RNG); an ACC failure is an open-ended
    :class:`~repro.scenarios.faults.SensorDropout` at the end of that
    seed's chain.  Seeds whose filter diverges are masked, not fatal.
    """
    result, calibration = _run_lockstep(
        seeds,
        misalignment,
        trajectory,
        estimator_config,
        rig_config,
        moving=False,
        faults=faults,
        arena=arena,
    )
    return StaticEnsemble(
        seeds=tuple(int(s) for s in seeds),
        introduced=misalignment,
        result=result,
        calibration=calibration,
    )


def run_dynamic_ensemble(
    seeds: list[int] | tuple[int, ...],
    misalignment: EulerAngles,
    trajectory: Trajectory,
    estimator_config: BoresightConfig | None = None,
    rig_config: RigConfig | None = None,
    faults: Sequence[Sequence[Fault]] | None = None,
    arena: StateArena | None = None,
) -> DynamicEnsemble:
    """Run the dynamic §11 protocol for every seed, batched in lockstep.

    Mirrors ``BoresightTestRig(RigConfig(seed=s)).run(misalignment,
    trajectory, estimator_config, moving=True)`` for each seed: every
    rig flies the same drive, sees its own vibration environment
    (stacked synthesis, bit-identical per seed to the serial
    :class:`~repro.vehicle.vibration.VibrationModel` pair) and, when
    ``estimator_config`` arms ``motion_gate_rate``, gates its own
    measurement updates on its own measured body rate.  ``faults``
    holds one :mod:`repro.scenarios.faults` chain per seed, as for
    :func:`run_static_ensemble`; diverged seeds (e.g. after an ACC
    dropout) are flagged on the returned ensemble and masked out of
    :meth:`~LockstepEnsemble.outcomes`.
    """
    result, calibration = _run_lockstep(
        seeds,
        misalignment,
        trajectory,
        estimator_config,
        rig_config,
        moving=True,
        faults=faults,
        arena=arena,
    )
    return DynamicEnsemble(
        seeds=tuple(int(s) for s in seeds),
        introduced=misalignment,
        result=result,
        calibration=calibration,
    )
