"""Batch ensemble engine vs the serial oracle — bit-identity suite.

The PR-1 contract extended to Kalman ensembles: the batched lockstep
engine (`engine="fast"`) must reproduce the serial per-run pipeline
(`engine="model"`, the verification oracle) **bit-for-bit** — stacked
noise draws, sensing, calibration, reconstruction, filtering and the
final Monte-Carlo summary.  Every comparison here is ``array_equal`` /
``==``, never ``allclose``.
"""

# Long-running equivalence/hypothesis suite: CI's fast lane skips
# it with -m "not slow"; the slow lane and local tier-1 run it.

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import run_monte_carlo_static, summarize_outcomes
from repro.errors import ConfigurationError, FusionError, GeometryError
from repro.experiments import run_static_ensemble
from repro.experiments.protocol import BoresightTestRig, RigConfig
from repro.experiments.table1 import static_estimator_config
from repro.fusion import (
    BatchBoresightEstimator,
    BatchKalmanFilter,
    BoresightConfig,
    BoresightEstimator,
    KalmanFilter,
    calibrate_static,
    calibrate_static_stacked,
    reconstruct,
    reconstruct_stacked,
)
from repro.geometry import (
    EulerAngles,
    orthonormalize,
    orthonormalize_stack,
    skew,
    skew_stack,
)
from repro.rng import make_rng, spawn_child
from repro.sensors import (
    DualAxisAccelerometer,
    Mounting,
    SixDofImu,
    sense_acc_stacked,
    sense_imu_stacked,
    stack_rig_streams,
)
from repro.sensors.acc2 import AccConfig
from repro.sensors.imu import ImuConfig
from repro.vehicle.profiles import static_level_profile

pytestmark = pytest.mark.slow

SEEDS = [100, 101, 102]
LEVER_ARM = np.array([0.8, 0.2, -0.3])
MISALIGNMENT = EulerAngles.from_degrees(2.0, -1.5, 3.0)


class TestBatchGeometry:
    def test_skew_stack_matches_serial(self, rng):
        vectors = rng.normal(size=(8, 3))
        stacked = skew_stack(vectors)
        for r in range(8):
            assert np.array_equal(stacked[r], skew(vectors[r]))

    def test_orthonormalize_stack_matches_serial(self, rng):
        nearly = np.stack(
            [np.eye(3) + 0.05 * rng.normal(size=(3, 3)) for _ in range(16)]
        )
        stacked = orthonormalize_stack(nearly)
        for r in range(16):
            assert np.array_equal(stacked[r], orthonormalize(nearly[r]))

    def test_orthonormalize_stack_reflection_branch(self, rng):
        # Mix in matrices with negative determinant to exercise the
        # per-slice det<0 fix-up against the serial branch.
        flip = np.diag([1.0, 1.0, -1.0])
        nearly = np.stack(
            [
                (np.eye(3) if r % 2 else flip) + 0.05 * rng.normal(size=(3, 3))
                for r in range(10)
            ]
        )
        stacked = orthonormalize_stack(nearly)
        for r in range(10):
            assert np.array_equal(stacked[r], orthonormalize(nearly[r]))
        assert np.all(np.linalg.det(stacked) > 0.0)

    def test_shape_validation(self):
        with pytest.raises(GeometryError):
            skew_stack(np.zeros(3))
        with pytest.raises(GeometryError):
            orthonormalize_stack(np.zeros((3, 3)))


class TestBatchKalmanFilter:
    def _random_setup(self, rng, runs, n):
        x0 = rng.normal(size=(runs, n))
        p0 = np.stack(
            [
                (lambda a: a @ a.T + np.eye(n))(rng.normal(size=(n, n)))
                for _ in range(runs)
            ]
        )
        return x0, p0

    def test_lockstep_bit_identity(self, rng):
        runs, n, m = 12, 3, 2
        x0, p0 = self._random_setup(rng, runs, n)
        serial = [KalmanFilter(x0[r], p0[r]) for r in range(runs)]
        batch = BatchKalmanFilter(x0, p0)
        for _ in range(40):
            q = np.diag(rng.uniform(0.01, 0.1, size=n))
            z = rng.normal(size=(runs, m))
            h = rng.normal(size=(runs, m, n))
            r_matrix = rng.uniform(0.1, 1.0) ** 2 * np.eye(m)
            z_hat = rng.normal(size=(runs, m))
            batch.predict(process_noise=q)
            stacked = batch.update(z, h, r_matrix, predicted_measurement=z_hat)
            for r in range(runs):
                serial[r].predict(process_noise=q)
                innovation = serial[r].update(
                    z[r], h[r], r_matrix, predicted_measurement=z_hat[r]
                )
                assert np.array_equal(serial[r].state, batch.state[r])
                assert np.array_equal(serial[r].covariance, batch.covariance[r])
                assert np.array_equal(innovation.residual, stacked.residual[r])
                assert np.array_equal(innovation.sigma, stacked.sigma[r])
                assert np.array_equal(innovation.gain, stacked.gain[r])
                assert float(innovation.nis) == float(stacked.nis[r])

    def test_linear_update_and_transition(self, rng):
        # Exercise the H x measurement prediction and F-matrix predict
        # paths (unused by the boresight MEKF but part of the contract).
        runs, n, m = 6, 4, 2
        x0, p0 = self._random_setup(rng, runs, n)
        serial = [KalmanFilter(x0[r], p0[r]) for r in range(runs)]
        batch = BatchKalmanFilter(x0, p0)
        f = np.eye(n) + 0.1 * rng.normal(size=(n, n))
        z = rng.normal(size=(runs, m))
        h = rng.normal(size=(m, n))
        r_matrix = np.eye(m) * 0.25
        batch.predict(transition=f)
        stacked = batch.update(z, h, r_matrix)
        for r in range(runs):
            serial[r].predict(transition=f)
            innovation = serial[r].update(z[r], h, r_matrix)
            assert np.array_equal(serial[r].state, batch.state[r])
            assert np.array_equal(serial[r].covariance, batch.covariance[r])
            assert np.array_equal(innovation.residual, stacked.residual[r])

    def test_shape_validation(self):
        with pytest.raises(FusionError):
            BatchKalmanFilter(np.zeros(3), np.eye(3))
        with pytest.raises(FusionError):
            BatchKalmanFilter(np.zeros((2, 3)), np.eye(4))
        batch = BatchKalmanFilter(np.zeros((2, 3)), np.eye(3))
        with pytest.raises(FusionError):
            batch.update(np.zeros((3, 2)), np.zeros((2, 3)), np.eye(2))
        with pytest.raises(FusionError):
            batch.update(np.zeros((2, 2)), np.zeros((3, 3)), np.eye(2))
        with pytest.raises(FusionError):
            batch.predict(process_noise=np.eye(5))
        with pytest.raises(FusionError):
            batch.state = np.zeros((3, 3))

    @given(st.integers(1, 6), st.integers(2, 4))
    @settings(max_examples=20, deadline=None)
    def test_bit_identity_over_shapes(self, runs, n):
        rng = make_rng(runs * 10 + n)
        x0 = rng.normal(size=(runs, n))
        p0 = np.stack(
            [
                (lambda a: a @ a.T + np.eye(n))(rng.normal(size=(n, n)))
                for _ in range(runs)
            ]
        )
        serial = [KalmanFilter(x0[r], p0[r]) for r in range(runs)]
        batch = BatchKalmanFilter(x0, p0)
        z = rng.normal(size=(runs, 2))
        h = rng.normal(size=(runs, 2, n))
        r_matrix = 0.04 * np.eye(2)
        batch.predict(process_noise=0.01 * np.eye(n))
        batch.update(z, h, r_matrix)
        for r in range(runs):
            serial[r].predict(process_noise=0.01 * np.eye(n))
            serial[r].update(z[r], h[r], r_matrix)
            assert np.array_equal(serial[r].state, batch.state[r])
            assert np.array_equal(serial[r].covariance, batch.covariance[r])


class _SerialPipeline:
    """One serial rig run decomposed so stages can be compared."""

    def __init__(self, seed, calibration_trajectory, test_trajectory):
        root = make_rng(seed)
        self.imu = SixDofImu(ImuConfig(), spawn_child(root, 100))
        self.acc = DualAxisAccelerometer(
            AccConfig(), Mounting(lever_arm=LEVER_ARM), spawn_child(root, 200)
        )
        self.imu_cal = self.imu.sense(calibration_trajectory.sample(100.0))
        self.acc_cal = self.acc.sense(calibration_trajectory.sample(100.0))
        self.acc.remount(
            Mounting(misalignment=MISALIGNMENT, lever_arm=LEVER_ARM)
        )
        self.imu_test = self.imu.sense(test_trajectory.sample(100.0))
        self.acc_test = self.acc.sense(test_trajectory.sample(100.0))


class TestStackedPipeline:
    """Stage-by-stage bit-identity of the stacked sensing pipeline."""

    @pytest.fixture(scope="class")
    def pipelines(self, request):
        calibration_trajectory = static_level_profile(12.0)
        test_trajectory = static_level_profile(20.0)
        phases = [
            calibration_trajectory.sample(100.0),
            test_trajectory.sample(100.0),
        ]
        streams = stack_rig_streams(
            SEEDS, ImuConfig(), AccConfig(), [len(p.time) for p in phases]
        )
        imu_stack = sense_imu_stacked(ImuConfig(), streams, phases)
        acc_stack = sense_acc_stacked(
            AccConfig(),
            streams,
            phases,
            [
                Mounting(lever_arm=LEVER_ARM),
                Mounting(misalignment=MISALIGNMENT, lever_arm=LEVER_ARM),
            ],
        )
        serial = [
            _SerialPipeline(seed, calibration_trajectory, test_trajectory)
            for seed in SEEDS
        ]
        return serial, imu_stack, acc_stack

    def test_sensing_bit_identity(self, pipelines):
        serial, imu_stack, acc_stack = pipelines
        for r, run in enumerate(serial):
            assert np.array_equal(run.imu_cal.body_rate, imu_stack[0].body_rate[r])
            assert np.array_equal(
                run.imu_cal.specific_force, imu_stack[0].specific_force[r]
            )
            assert np.array_equal(
                run.acc_cal.specific_force, acc_stack[0].specific_force[r]
            )
            assert np.array_equal(run.imu_test.body_rate, imu_stack[1].body_rate[r])
            assert np.array_equal(
                run.imu_test.specific_force, imu_stack[1].specific_force[r]
            )
            assert np.array_equal(
                run.acc_test.specific_force, acc_stack[1].specific_force[r]
            )

    def test_calibration_and_reconstruction_bit_identity(self, pipelines):
        serial, imu_stack, acc_stack = pipelines
        stacked_calibration = calibrate_static_stacked(
            imu_stack[0], acc_stack[0], window=10.0
        )
        imu_debiased, acc_debiased = stacked_calibration.apply(
            imu_stack[1], acc_stack[1]
        )
        fused_stack = reconstruct_stacked(imu_debiased, acc_debiased, 5.0)
        for r, run in enumerate(serial):
            calibration = calibrate_static(run.imu_cal, run.acc_cal, window=10.0)
            assert np.array_equal(
                calibration.gyro_bias, stacked_calibration.gyro_bias[r]
            )
            assert np.array_equal(
                calibration.imu_accel_bias,
                stacked_calibration.imu_accel_bias[r],
            )
            assert np.array_equal(
                calibration.acc_bias, stacked_calibration.acc_bias[r]
            )
            imu_cal, acc_cal = calibration.apply(run.imu_test, run.acc_test)
            fused = reconstruct(imu_cal, acc_cal, 5.0)
            assert np.array_equal(fused.time, fused_stack.time)
            assert np.array_equal(
                fused.specific_force, fused_stack.specific_force[r]
            )
            assert np.array_equal(fused.body_rate, fused_stack.body_rate[r])
            assert np.array_equal(
                fused.body_rate_dot, fused_stack.body_rate_dot[r]
            )
            assert np.array_equal(fused.acc_xy, fused_stack.acc_xy[r])

    def test_estimator_bit_identity(self, pipelines):
        serial, imu_stack, acc_stack = pipelines
        stacked_calibration = calibrate_static_stacked(
            imu_stack[0], acc_stack[0], window=10.0
        )
        imu_debiased, acc_debiased = stacked_calibration.apply(
            imu_stack[1], acc_stack[1]
        )
        fused_stack = reconstruct_stacked(imu_debiased, acc_debiased, 5.0)
        config = static_estimator_config(0.006)
        batch = BatchBoresightEstimator(len(SEEDS), config)
        result = batch.run(fused_stack)
        for r in range(len(SEEDS)):
            estimator = BoresightEstimator(config)
            serial_result = estimator.run(fused_stack.run(r))
            assert np.array_equal(
                serial_result.misalignment.as_array(),
                result.misalignments()[r].as_array(),
            )
            assert np.array_equal(serial_result.angle_sigma, result.angle_sigma[r])
            assert np.array_equal(
                serial_result.monitor.exceedance_fraction,
                result.monitor.exceedance_fraction[r],
            )
            assert float(serial_result.monitor.mean_nis) == float(
                result.monitor.mean_nis[r]
            )


class TestStaticEnsemble:
    def test_matches_serial_rig_bit_for_bit(self, short_tilt_profile):
        config = static_estimator_config(0.006)
        ensemble = run_static_ensemble(
            SEEDS, MISALIGNMENT, short_tilt_profile, estimator_config=config
        )
        errors = ensemble.errors_vs_truth_deg()
        three_sigma = ensemble.result.three_sigma_deg()
        for r, seed in enumerate(SEEDS):
            rig = BoresightTestRig(RigConfig(seed=seed))
            run = rig.run(
                MISALIGNMENT,
                short_tilt_profile,
                estimator_config=config,
                moving=False,
            )
            assert np.array_equal(run.error_vs_truth_deg(), errors[r])
            assert np.array_equal(run.result.three_sigma_deg(), three_sigma[r])
            assert np.array_equal(
                run.result.monitor.exceedance_fraction,
                ensemble.result.monitor.exceedance_fraction[r],
            )

    def test_needs_seeds(self, short_tilt_profile):
        with pytest.raises(ConfigurationError):
            run_static_ensemble([], MISALIGNMENT, short_tilt_profile)


class TestMonteCarloFastEngine:
    KWARGS = dict(runs=3, duration=110.0, dwell_time=8.0, slew_time=3.0)

    def test_summary_bit_identical_to_serial(self):
        serial = run_monte_carlo_static(engine="model", **self.KWARGS)
        fast = run_monte_carlo_static(engine="fast", **self.KWARGS)
        assert np.array_equal(serial.rms_error_deg, fast.rms_error_deg)
        assert np.array_equal(serial.max_error_deg, fast.max_error_deg)
        assert serial.coverage_3sigma == fast.coverage_3sigma
        assert serial.mean_exceedance == fast.mean_exceedance
        assert serial == fast

    def test_engine_validation(self):
        with pytest.raises(ConfigurationError):
            run_monte_carlo_static(runs=1, engine="warp9")

    def test_batch_estimator_supports_every_serial_feature(self):
        # Motion gating is batched (per-run masks) since the dynamic
        # ensemble engine; adaptive measurement noise joined it with
        # the engine registry (its bit-identity is pinned in
        # tests/test_dynamic_ensemble.py and the registry harness).
        BatchBoresightEstimator(2, BoresightConfig(motion_gate_rate=0.1))
        estimator = BatchBoresightEstimator(2, BoresightConfig(adaptive=True))
        assert np.array_equal(
            estimator.measurement_sigma, np.full(2, 0.005)
        )

    def test_coverage_denominator_follows_error_dimension(self):
        # Satellite regression: the 3-sigma coverage denominator derives
        # from the error vectors, not a hard-coded 3-axis assumption.
        outcomes_2axis = [
            (np.array([0.1, 0.2]), 2, 0.01, 0, np.array([0.3, 0.3])),
            (np.array([0.3, 0.1]), 1, 0.02, 0, np.array([0.2, 0.3])),
        ]
        summary = summarize_outcomes(outcomes_2axis)
        assert summary.coverage_3sigma == 3 / 4
        outcomes_3axis = [
            (np.array([0.1, 0.2, 0.3]), 2, 0.01, 0, np.array([0.3, 0.3, 0.2]))
        ]
        assert summarize_outcomes(outcomes_3axis).coverage_3sigma == 2 / 3
        with pytest.raises(ConfigurationError):
            summarize_outcomes([])
