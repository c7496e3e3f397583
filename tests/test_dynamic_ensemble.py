"""Dynamic batched ensemble vs the serial oracle — bit-identity suite.

The PR-2 contract extended to the paper's *dynamic* (driving) tests:
the batched lockstep engine (``engine="fast"``) must reproduce the
serial per-seed rig (``engine="model"``, the verification oracle)
**bit-for-bit** — stacked vibration synthesis, vibrating sensing,
motion-gated filtering, divergence masking and the final Monte-Carlo
summary.  Every comparison here is ``array_equal`` / ``==``, never
``allclose``.
"""

# Long-running equivalence/hypothesis suite: CI's fast lane skips
# it with -m "not slow"; the slow lane and local tier-1 run it.

import numpy as np
import pytest

from repro.analysis import EnsembleJob, run_monte_carlo_dynamic
from repro.errors import ConfigurationError, FilterDivergenceError
from repro.experiments import BoresightTestRig, RigConfig, run_dynamic_ensemble
from repro.experiments.table1 import dynamic_estimator_config
from repro.fusion import (
    BatchKalmanFilter,
    BatchResidualMonitor,
    KalmanFilter,
)
from repro.fusion.confidence import ResidualMonitor
from repro.fusion.kalman import Innovation
from repro.geometry import EulerAngles
from repro.rng import make_rng, spawn_child
from repro.scenarios.faults import SensorDropout
from repro.vehicle import VibrationModel, VibrationSpec, stack_vibration_fields
from repro.vehicle.profiles import city_drive_profile

pytestmark = pytest.mark.slow

SEEDS = [100, 101, 102]
MISALIGNMENT = EulerAngles.from_degrees(2.0, -1.5, 3.0)
MC_KWARGS = dict(runs=3, duration=110.0)


@pytest.fixture(scope="module")
def short_drive():
    """A compressed city drive shared by the equivalence tests."""
    return city_drive_profile(duration=110.0, rng=make_rng(50))


class TestStackedVibration:
    def test_fields_bit_identical_to_serial_pair(self, short_drive):
        spec = VibrationSpec()
        trajectory = short_drive.sample(100.0)
        fields = stack_vibration_fields(spec, SEEDS, trajectory)
        for r, seed in enumerate(SEEDS):
            vib_rng = spawn_child(make_rng(seed), 400)
            vib_imu, vib_acc = VibrationModel.make_pair(spec, vib_rng)
            serial_imu = np.stack(
                [
                    vib_imu.sample(float(t), float(trajectory.speed[i]))
                    for i, t in enumerate(trajectory.time)
                ]
            )
            serial_acc = np.stack(
                [
                    vib_acc.sample(float(t), float(trajectory.speed[i]))
                    for i, t in enumerate(trajectory.time)
                ]
            )
            assert np.array_equal(serial_imu, fields.imu[r])
            assert np.array_equal(serial_acc, fields.acc[r])

    def test_needs_seeds(self, short_drive):
        with pytest.raises(ConfigurationError):
            stack_vibration_fields(
                VibrationSpec(), [], short_drive.sample(100.0)
            )


class TestDynamicEnsemble:
    @pytest.fixture(scope="class")
    def config(self):
        return dynamic_estimator_config(0.03, motion_gate_rate=0.4)

    @pytest.fixture(scope="class")
    def ensemble(self, short_drive, config):
        return run_dynamic_ensemble(
            SEEDS, MISALIGNMENT, short_drive, estimator_config=config
        )

    def test_matches_serial_rig_bit_for_bit(
        self, short_drive, config, ensemble
    ):
        errors = ensemble.errors_vs_truth_deg()
        three_sigma = ensemble.result.three_sigma_deg()
        for r, seed in enumerate(SEEDS):
            rig = BoresightTestRig(RigConfig(seed=seed))
            run = rig.run(
                MISALIGNMENT,
                short_drive,
                estimator_config=config,
                moving=True,
            )
            assert np.array_equal(run.error_vs_truth_deg(), errors[r])
            assert np.array_equal(run.result.three_sigma_deg(), three_sigma[r])
            assert np.array_equal(
                run.result.monitor.exceedance_fraction,
                ensemble.result.monitor.exceedance_fraction[r],
            )
            assert run.result.monitor.count == ensemble.result.monitor.counts[r]
            assert float(run.result.monitor.mean_nis) == float(
                ensemble.result.monitor.mean_nis[r]
            )

    def test_motion_gating_fires(self, ensemble):
        # The city drive's corners peak above the 0.4 rad/s gate, so
        # every run must skip some ticks — and none may gate out
        # entirely.  (Per-run gate decisions are pinned run-by-run
        # against the serial estimator in the bit-for-bit test above.)
        monitor = ensemble.result.monitor
        counts = monitor.counts
        assert np.all(counts > 0)
        assert counts.max() < monitor.ticks


class TestMonteCarloDynamicFastEngine:
    def test_summary_bit_identical_to_serial(self):
        serial = run_monte_carlo_dynamic(engine="model", **MC_KWARGS)
        fast = run_monte_carlo_dynamic(engine="fast", **MC_KWARGS)
        assert np.array_equal(serial.rms_error_deg, fast.rms_error_deg)
        assert np.array_equal(serial.max_error_deg, fast.max_error_deg)
        assert serial.coverage_3sigma == fast.coverage_3sigma
        assert serial.mean_exceedance == fast.mean_exceedance
        assert serial.diverged_seeds == fast.diverged_seeds == ()
        assert serial == fast

    def test_diverging_seed_is_masked_not_fatal(self):
        # Seed 101's ACC dies mid-drive; its filter diverges.  Both
        # engines must flag it, mask it out of the aggregates, and
        # still agree bit-for-bit on the survivors.
        dropout = {101: 60.0}
        serial = run_monte_carlo_dynamic(
            engine="model", acc_dropout=dropout, **MC_KWARGS
        )
        fast = run_monte_carlo_dynamic(
            engine="fast", acc_dropout=dropout, **MC_KWARGS
        )
        assert serial.diverged_seeds == (101,)
        assert serial.runs == 2
        assert serial == fast
        # The survivors' aggregates equal a 2-run ensemble without the
        # faulty seed only in coverage terms; at minimum they are
        # finite and unpolluted by the NaN stream.
        assert np.all(np.isfinite(fast.rms_error_deg))

    def test_adaptive_noise_bit_identical_to_serial(self):
        # The PR-4 port: innovation-matching measurement noise runs in
        # the lockstep engine — one windowed matcher per run, advanced
        # only on that run's recorded ticks — bit-identical to the
        # serial oracle.
        serial = run_monte_carlo_dynamic(
            engine="model", adaptive=True, **MC_KWARGS
        )
        fast = run_monte_carlo_dynamic(
            engine="fast", adaptive=True, **MC_KWARGS
        )
        assert serial == fast
        # And the adaptation must actually engage: a fixed-R ensemble
        # lands on a different summary.
        fixed = run_monte_carlo_dynamic(engine="fast", **MC_KWARGS)
        assert fast != fixed

    def test_engine_validation(self):
        with pytest.raises(ConfigurationError):
            run_monte_carlo_dynamic(runs=1, engine="warp9")

    @pytest.mark.parametrize("dropout_time", [55.0, 0.0])
    def test_all_seeds_diverging_raises(self, dropout_time):
        # dropout_time=0.0 kills the ACC before the filter records a
        # single innovation — the fast engine must still surface the
        # serial engine's ConfigurationError, not a monitor error.
        dropout = {100 + i: dropout_time for i in range(2)}
        with pytest.raises(ConfigurationError):
            run_monte_carlo_dynamic(
                runs=2, duration=110.0, engine="fast", acc_dropout=dropout
            )

    def test_job_payload_is_typed_and_picklable(self):
        import pickle

        job = EnsembleJob(
            seed=7,
            trajectory=city_drive_profile(duration=80.0, rng=make_rng(1)),
            misalignment=MISALIGNMENT,
            estimator_config=dynamic_estimator_config(0.03),
            moving=True,
            faults=(SensorDropout(sensor="acc", start=12.5),),
        )
        clone = pickle.loads(pickle.dumps(job))
        assert clone.seed == job.seed
        assert clone.moving is True
        assert clone.faults == (SensorDropout(sensor="acc", start=12.5),)


class TestSerialDropout:
    def test_rig_dropout_diverges_serially(self, short_drive):
        dropout = SensorDropout(sensor="acc", start=60.0)
        rig = BoresightTestRig(RigConfig(seed=101, faults=(dropout,)))
        with pytest.raises((FilterDivergenceError, np.linalg.LinAlgError)):
            rig.run(
                MISALIGNMENT,
                short_drive,
                estimator_config=dynamic_estimator_config(0.03),
                moving=True,
            )


class TestMaskedFilterPrimitives:
    def test_update_masked_equals_update_when_all_active(self, rng):
        runs, n, m = 6, 3, 2
        x0 = rng.normal(size=(runs, n))
        p0 = np.stack(
            [
                (lambda a: a @ a.T + np.eye(n))(rng.normal(size=(n, n)))
                for _ in range(runs)
            ]
        )
        plain = BatchKalmanFilter(x0, p0)
        masked = BatchKalmanFilter(x0, p0)
        z = rng.normal(size=(runs, m))
        h = rng.normal(size=(runs, m, n))
        r = 0.04 * np.eye(m)
        innovation = plain.update(z, h, r)
        innovation_masked, diverged = masked.update_masked(z, h, r)
        assert not np.any(diverged)
        assert np.array_equal(plain.state, masked.state)
        assert np.array_equal(plain.covariance, masked.covariance)
        assert np.array_equal(innovation.residual, innovation_masked.residual)
        assert np.array_equal(innovation.nis, innovation_masked.nis)

    def test_update_masked_freezes_inactive_runs(self, rng):
        runs, n, m = 4, 3, 2
        x0 = rng.normal(size=(runs, n))
        p0 = np.stack([np.eye(n)] * runs)
        kf = BatchKalmanFilter(x0, p0)
        active = np.array([True, False, True, False])
        z = rng.normal(size=(runs, m))
        h = rng.normal(size=(runs, m, n))
        _, diverged = kf.update_masked(z, h, 0.04 * np.eye(m), active=active)
        assert not np.any(diverged)
        assert np.array_equal(kf.state[1], x0[1])
        assert np.array_equal(kf.covariance[1], np.eye(n))
        assert not np.array_equal(kf.state[0], x0[0])
        # Active slices match a solo serial update bit-for-bit.
        serial = KalmanFilter(x0[0], p0[0])
        serial.update(z[0], h[0], 0.04 * np.eye(m))
        assert np.array_equal(serial.state, kf.state[0])
        assert np.array_equal(serial.covariance, kf.covariance[0])

    def test_update_masked_skips_inactive_but_matches_full(self, rng):
        # Satellite regression for the masked-update skip: a partial
        # mask gathers only the active slices, yet every committed
        # state/covariance and every active innovation slice must stay
        # bit-identical to the full-stack update; inactive innovation
        # slices are NaN, and inactive filters are frozen.
        runs, n, m = 5, 3, 2
        x0 = rng.normal(size=(runs, n))
        p0 = np.stack(
            [
                (lambda a: a @ a.T + np.eye(n))(rng.normal(size=(n, n)))
                for _ in range(runs)
            ]
        )
        z = rng.normal(size=(runs, m))
        h = rng.normal(size=(runs, m, n))
        r = 0.04 * np.eye(m)
        active = np.array([True, False, True, False, True])

        full = BatchKalmanFilter(x0, p0)
        masked = BatchKalmanFilter(x0, p0)
        reference = full.update(z, h, r)
        innovation, diverged = masked.update_masked(z, h, r, active=active)
        assert not np.any(diverged)

        assert np.array_equal(masked.state[active], full.state[active])
        assert np.array_equal(
            masked.covariance[active], full.covariance[active]
        )
        assert np.array_equal(masked.state[~active], x0[~active])
        assert np.array_equal(masked.covariance[~active], p0[~active])

        for got, want in (
            (innovation.residual, reference.residual),
            (innovation.covariance, reference.covariance),
            (innovation.sigma, reference.sigma),
            (innovation.nis, reference.nis),
            (innovation.gain, reference.gain),
        ):
            assert np.array_equal(got[active], want[active])
            assert np.all(np.isnan(got[~active]))

    def test_update_masked_all_inactive_is_a_no_op(self, rng):
        runs, n, m = 3, 3, 2
        x0 = rng.normal(size=(runs, n))
        p0 = np.stack([np.eye(n)] * runs)
        kf = BatchKalmanFilter(x0, p0)
        innovation, diverged = kf.update_masked(
            rng.normal(size=(runs, m)),
            rng.normal(size=(runs, m, n)),
            0.04 * np.eye(m),
            active=np.zeros(runs, dtype=bool),
        )
        assert not np.any(diverged)
        assert np.array_equal(kf.state, x0)
        assert np.array_equal(kf.covariance, p0)
        assert np.all(np.isnan(innovation.residual))
        assert np.all(np.isnan(innovation.nis))

    def test_update_masked_flags_nan_measurement(self, rng):
        runs, n, m = 3, 3, 2
        kf = BatchKalmanFilter(
            rng.normal(size=(runs, n)), np.stack([np.eye(n)] * runs)
        )
        z = rng.normal(size=(runs, m))
        z[1] = np.nan
        h = rng.normal(size=(runs, m, n))
        _, diverged = kf.update_masked(z, h, 0.04 * np.eye(m))
        assert diverged.tolist() == [False, True, False]

    def test_update_masked_recovers_from_singular_slice(self, rng):
        runs, n, m = 3, 3, 2
        kf = BatchKalmanFilter(
            rng.normal(size=(runs, n)), np.stack([np.eye(n)] * runs)
        )
        z = rng.normal(size=(runs, m))
        h = rng.normal(size=(runs, m, n))
        h[1] = 0.0  # S = 0 for run 1: exactly singular
        _, diverged = kf.update_masked(z, h, np.zeros((m, m)))
        assert diverged[1]
        assert not diverged[0] and not diverged[2]

    def test_monitor_active_mask_matches_serial(self, rng):
        runs = 3
        batch = BatchResidualMonitor(runs, axes=2)
        serial = [ResidualMonitor(axes=2) for _ in range(runs)]
        kf = BatchKalmanFilter(
            rng.normal(size=(runs, 3)), np.stack([np.eye(3)] * runs)
        )
        for _ in range(20):
            active = rng.uniform(size=runs) < 0.7
            z = rng.normal(size=(runs, 2))
            h = rng.normal(size=(runs, 2, 3))
            innovation = kf.update(z, h, 0.25 * np.eye(2))
            batch.record(innovation, active=active)
            for r in range(runs):
                if active[r]:
                    serial[r].record(
                        Innovation(
                            residual=innovation.residual[r],
                            covariance=innovation.covariance[r],
                            sigma=innovation.sigma[r],
                            nis=float(innovation.nis[r]),
                            gain=innovation.gain[r],
                        )
                    )
        assert batch.ticks == 20
        for r in range(runs):
            if serial[r].count:
                assert np.array_equal(
                    serial[r].exceedance_fraction,
                    batch.exceedance_fraction[r],
                )
                assert float(serial[r].mean_nis) == float(batch.mean_nis[r])
                assert serial[r].count == batch.counts[r]
            else:
                assert batch.counts[r] == 0
                assert np.all(np.isnan(batch.exceedance_fraction[r]))

    def test_batch_estimator_reports_divergence_tick(self, short_drive):
        # Direct ensemble-level check that the divergence metadata is
        # populated and the non-faulty runs are unaffected.
        ensemble = run_dynamic_ensemble(
            SEEDS,
            MISALIGNMENT,
            short_drive,
            estimator_config=dynamic_estimator_config(0.03),
            faults=[(), (SensorDropout(sensor="acc", start=60.0),), ()],
        )
        assert ensemble.diverged_seeds == (101,)
        diverged = ensemble.result.diverged
        assert diverged.tolist() == [False, True, False]
        tick = int(ensemble.result.diverged_at_tick[1])
        assert tick > 0
        assert int(ensemble.result.diverged_at_tick[0]) == -1
        outcomes = ensemble.outcomes()
        assert len(outcomes) == 2
