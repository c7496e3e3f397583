"""The paper's §11 test procedure as a reusable rig.

Protocol, quoted from the paper: "In these tests, the system was
calibrated first and then misalignments of a few degrees were
introduced in roll, pitch and yaw to the boresighted sensor.  The
correction system was then started and data was collected for 300
seconds."  Truth: "The absolute misalignments were measured directly
using a laser attached to the boresighted sensor."

The rig owns one set of instruments (their error draws persist across
the calibration and test phases, like real hardware) and runs:

1. *calibration* — level, still, sensor aligned; biases estimated;
2. *misalignment* — the ACC/camera is remounted at the test angles;
3. *test* — the supplied trajectory is flown/driven and the estimator
   processes the reconstructed streams;
4. *truth* — a laser boresight measures the introduced misalignment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.engines import register_engine
from repro.errors import ConfigurationError
from repro.fusion import (
    BoresightConfig,
    BoresightEstimator,
    BoresightResult,
    SensorCalibration,
    calibrate_static,
    reconstruct,
)
from repro.geometry import EulerAngles
from repro.rng import make_rng, spawn_child
from repro.scenarios.faults import Fault, RunStreams, apply_faults
from repro.sensors import DualAxisAccelerometer, Mounting, SixDofImu
from repro.sensors.acc2 import AccConfig
from repro.sensors.imu import ImuConfig
from repro.vehicle import LaserBoresight, Trajectory, VibrationModel, VibrationSpec
from repro.vehicle.profiles import static_level_profile


@dataclass(frozen=True)
class RigConfig:
    """Hardware and procedure parameters of the test rig."""

    seed: int = 7
    imu: ImuConfig = field(default_factory=ImuConfig)
    acc: AccConfig = field(default_factory=AccConfig)
    laser: LaserBoresight = field(default_factory=LaserBoresight)
    #: Level calibration recording length, seconds.
    calibration_duration: float = 40.0
    #: Averaging window used inside the calibration recording, seconds.
    calibration_window: float = 30.0
    #: Fusion (Kalman) rate, Hz — sensor streams are averaged down to it.
    fusion_rate: float = 5.0
    #: Vibration environment for *moving* tests.
    vibration: VibrationSpec = field(default_factory=VibrationSpec)
    #: Lever arm from IMU to ACC, body frame, meters.
    lever_arm: tuple[float, float, float] = (0.8, 0.2, -0.3)
    #: Fault injectors applied to the test-phase sensor streams, in
    #: order, after sensing and before calibration/reconstruction
    #: (see :mod:`repro.scenarios.faults`).
    faults: tuple[Fault, ...] = ()

    def __post_init__(self) -> None:
        if self.calibration_window > self.calibration_duration:
            raise ConfigurationError(
                "calibration window longer than the recording"
            )
        if not isinstance(self.faults, tuple):
            object.__setattr__(self, "faults", tuple(self.faults))
        for fault in self.faults:
            if not isinstance(fault, Fault):
                raise ConfigurationError(
                    f"faults must be Fault instances, got "
                    f"{type(fault).__name__}"
                )


def bench_estimator_config(lever_arm: np.ndarray) -> BoresightConfig:
    """The rig's default estimator tuning for bench (static) tests.

    Sensible bench defaults: the paper's static noise band, lever-arm
    compensation for the rig's geometry, and enough process noise to
    keep the confidence honest against instrument systematics.  Shared
    by the serial rig and the batched ensemble driver so the two
    engines can never drift apart on defaults.
    """
    return BoresightConfig(
        measurement_sigma=0.006,
        angle_process_noise=2e-5,
        lever_arm=np.asarray(lever_arm, dtype=np.float64),
    )


@register_engine(
    "sensing",
    "model",
    oracle=True,
    description="per-seed serial instruments over the rig's RNG tree",
)
def sense_rigs_serial(
    seeds: Sequence[int],
    imu_config: ImuConfig,
    acc_config: AccConfig,
    imu_phases: Sequence,
    acc_phases: Sequence,
    mountings: Sequence[Mounting],
) -> dict[str, list[np.ndarray]]:
    """Sense every phase with one serial instrument set per seed.

    The ``"sensing"`` domain contract: given per-phase trajectories
    (sampled at each instrument's rate) and the physical ACC mounting
    of each phase, return the stacked measured streams
    ``{"imu_rate": [(R, N, 3) per phase], "imu_force": [...],
    "acc": [(R, N, 2) per phase]}``.  This oracle builds each seed's
    instruments on the exact :class:`BoresightTestRig` child-generator
    tree (ids 100/200) and senses the phases in rig order, remounting
    the ACC between phases as the rig does — the reference the stacked
    engine (:mod:`repro.sensors.batch`) is verified against.
    """
    if len(mountings) != len(acc_phases):
        raise ConfigurationError("need one ACC mounting per phase")
    if len(imu_phases) != len(acc_phases):
        raise ConfigurationError("need matching IMU and ACC phase lists")
    per_seed: list[tuple[list, list, list]] = []
    for seed in seeds:
        root = make_rng(int(seed))
        imu = SixDofImu(imu_config, spawn_child(root, 100))
        acc = DualAxisAccelerometer(
            acc_config, mountings[0], spawn_child(root, 200)
        )
        rates, forces, accs = [], [], []
        for imu_phase, acc_phase, mounting in zip(
            imu_phases, acc_phases, mountings
        ):
            imu_samples = imu.sense(imu_phase)
            acc.remount(mounting)
            acc_samples = acc.sense(acc_phase)
            rates.append(imu_samples.body_rate)
            forces.append(imu_samples.specific_force)
            accs.append(acc_samples.specific_force)
        per_seed.append((rates, forces, accs))
    phases = len(imu_phases)
    return {
        "imu_rate": [
            np.stack([run[0][i] for run in per_seed]) for i in range(phases)
        ],
        "imu_force": [
            np.stack([run[1][i] for run in per_seed]) for i in range(phases)
        ],
        "acc": [
            np.stack([run[2][i] for run in per_seed]) for i in range(phases)
        ],
    }


@dataclass
class TestRun:
    """Everything a Table-1 style row needs from one test."""

    #: The misalignment physically introduced (simulation truth).
    introduced: EulerAngles
    #: The laser-boresight measurement of it (the paper's "truth").
    laser_truth: EulerAngles
    #: The Kalman estimate and full history.
    result: BoresightResult
    #: Biases found during calibration.
    calibration: SensorCalibration

    def error_vs_laser_deg(self) -> np.ndarray:
        """Estimate − laser truth, degrees (what Table 1 compares)."""
        return np.degrees(
            self.result.misalignment.as_array() - self.laser_truth.as_array()
        )

    def error_vs_truth_deg(self) -> np.ndarray:
        """Estimate − simulation truth, degrees."""
        return np.degrees(
            self.result.misalignment.as_array() - self.introduced.as_array()
        )


class BoresightTestRig:
    """One instrumented vehicle/platform, reusable across phases."""

    def __init__(self, config: RigConfig | None = None) -> None:
        self.config = config if config is not None else RigConfig()
        rng = make_rng(self.config.seed)
        self._rng = rng
        self.imu = SixDofImu(self.config.imu, spawn_child(rng, 100))
        self.acc = DualAxisAccelerometer(
            self.config.acc,
            Mounting(lever_arm=np.array(self.config.lever_arm)),
            spawn_child(rng, 200),
        )
        self._laser_rng = spawn_child(rng, 300)
        self._vib_rng = spawn_child(rng, 400)

    def calibrate(self) -> SensorCalibration:
        """Phase 1: level/still recording with the sensor aligned."""
        traj = static_level_profile(self.config.calibration_duration)
        imu_rate = self.config.imu.sample_rate
        acc_rate = self.config.acc.sample_rate
        imu_samples = self.imu.sense(traj.sample(imu_rate))
        acc_samples = self.acc.sense(traj.sample(acc_rate))
        return calibrate_static(
            imu_samples, acc_samples, window=self.config.calibration_window
        )

    def run(
        self,
        misalignment: EulerAngles,
        trajectory: Trajectory,
        estimator_config: BoresightConfig | None = None,
        moving: bool = False,
    ) -> TestRun:
        """Phases 2–4: misalign, drive/tilt, estimate, laser-check.

        ``moving`` switches the vibration environment on (the paper's
        dynamic tests) — bench tests see only instrument noise.
        """
        calibration = self.calibrate()

        # Remount the sensor at the test misalignment; the lever arm is
        # unchanged (the camera stays on its bracket, only rotated).
        self.acc.remount(
            Mounting(
                misalignment=misalignment,
                lever_arm=np.array(self.config.lever_arm),
            )
        )

        vib_imu = vib_acc = None
        if moving:
            vib_imu, vib_acc = VibrationModel.make_pair(
                self.config.vibration, self._vib_rng
            )

        imu_samples = self.imu.sense(
            trajectory.sample(self.config.imu.sample_rate), vib_imu
        )
        acc_samples = self.acc.sense(
            trajectory.sample(self.config.acc.sample_rate), vib_acc
        )
        if self.config.faults:
            apply_faults(
                self.config.faults,
                RunStreams(
                    imu_time=imu_samples.time,
                    imu_rate=imu_samples.body_rate,
                    imu_force=imu_samples.specific_force,
                    acc_time=acc_samples.time,
                    acc_force=acc_samples.specific_force,
                ),
                self.config.seed,
            )
        imu_cal, acc_cal = calibration.apply(imu_samples, acc_samples)
        fused = reconstruct(imu_cal, acc_cal, self.config.fusion_rate)

        if estimator_config is None:
            estimator_config = bench_estimator_config(
                np.array(self.config.lever_arm)
            )
        estimator = BoresightEstimator(estimator_config)
        result = estimator.run(fused)

        laser_truth = self.config.laser.measure(misalignment, self._laser_rng)
        # Restore the aligned mounting so the rig can be reused.
        self.acc.remount(Mounting(lever_arm=np.array(self.config.lever_arm)))
        return TestRun(
            introduced=misalignment,
            laser_truth=laser_truth,
            result=result,
            calibration=calibration,
        )
