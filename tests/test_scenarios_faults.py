"""The fault DSL and the graceful-degradation ladder.

Three clusters:

- **Fault mechanics** — each injector's window arithmetic, per-seed
  randomness and validation, on bare arrays (no rig needed);
- **Alias regression** — a job's per-seed ACC dropout time becomes an
  open-ended :class:`~repro.scenarios.faults.SensorDropout`; the
  per-seed schedule and the explicit fault must give bit-identical
  summaries on both ensemble engines;
- **Degradation ladder** — ``fallback_hold`` turns NaN inputs into
  labelled dead-reckoning holds instead of divergence, off by default.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.experiments.protocol import BoresightTestRig, RigConfig
from repro.experiments.table1 import (
    DEFAULT_MISALIGNMENT,
    dynamic_estimator_config,
)
from repro.fusion.boresight import (
    FALLBACK_FULL,
    FALLBACK_GATED,
    FALLBACK_HOLD,
    FALLBACK_LABELS,
)
from repro.rng import make_rng
from repro.scenarios.faults import (
    CanBusErrorStorm,
    ClockSkew,
    DriftRamp,
    Fault,
    LossyLinkBurst,
    RunStreams,
    SaturatedAxis,
    SensorDropout,
    StuckAxis,
    apply_faults,
    fault_rng,
)
from repro.vehicle.profiles import city_drive_profile


def _streams(n: int = 200, m: int = 100) -> RunStreams:
    rng = make_rng(42)
    return RunStreams(
        imu_time=np.linspace(0.0, 20.0, n),
        imu_rate=rng.normal(size=(n, 3)),
        imu_force=rng.normal(size=(n, 3)),
        acc_time=np.linspace(0.0, 20.0, m),
        acc_force=rng.normal(size=(m, 2)),
    )


class TestFaultMechanics:
    def test_dropout_window_nans_only_the_window(self):
        s = _streams()
        SensorDropout(sensor="acc", start=5.0, duration=5.0).apply(s, 1)
        inside = (s.acc_time >= 5.0) & (s.acc_time < 10.0)
        assert np.isnan(s.acc_force[inside]).all()
        assert np.isfinite(s.acc_force[~inside]).all()
        assert np.isfinite(s.imu_rate).all()

    def test_open_ended_dropout_matches_legacy_mask(self):
        s = _streams()
        SensorDropout(sensor="acc", start=7.5).apply(s, 1)
        dead = s.acc_time >= 7.5
        assert np.isnan(s.acc_force[dead]).all()
        assert np.isfinite(s.acc_force[~dead]).all()

    def test_dropout_axes_subset(self):
        s = _streams()
        SensorDropout(sensor="acc", start=5.0, duration=5.0, axes=(1,)).apply(
            s, 1
        )
        inside = (s.acc_time >= 5.0) & (s.acc_time < 10.0)
        assert np.isnan(s.acc_force[inside, 1]).all()
        assert np.isfinite(s.acc_force[inside, 0]).all()

    def test_dropout_jitter_is_per_seed_deterministic(self):
        windows = []
        for seed in (1, 2, 1):
            s = _streams()
            SensorDropout(
                sensor="acc", start=8.0, duration=4.0, jitter=2.0
            ).apply(s, seed)
            windows.append(np.isnan(s.acc_force[:, 0]))
        assert np.array_equal(windows[0], windows[2])
        assert not np.array_equal(windows[0], windows[1])

    def test_stuck_axis_holds_last_healthy_value(self):
        s = _streams()
        held = s.acc_force[np.argmax(s.acc_time >= 5.0) - 1, 0]
        StuckAxis(sensor="acc", axis=0, start=5.0, duration=5.0).apply(s, 1)
        inside = (s.acc_time >= 5.0) & (s.acc_time < 10.0)
        assert (s.acc_force[inside, 0] == held).all()

    def test_saturated_axis_clips_to_level(self):
        s = _streams()
        s.acc_force[:, 0] *= 10.0
        SaturatedAxis(sensor="acc", axis=0, start=0.0, level=1.0).apply(s, 1)
        assert np.abs(s.acc_force[:, 0]).max() <= 1.0

    def test_clock_skew_shifts_values_not_time(self):
        s = _streams()
        time_before = s.acc_time.copy()
        original = s.acc_force.copy()
        ClockSkew(sensor="acc", ppm=5000.0).apply(s, 1)
        assert np.array_equal(s.acc_time, time_before)
        assert not np.array_equal(s.acc_force, original)

    def test_zero_skew_is_identity(self):
        s = _streams()
        original = s.acc_force.copy()
        ClockSkew(sensor="acc", ppm=0.0).apply(s, 1)
        assert np.array_equal(s.acc_force, original)

    def test_can_storm_blanks_imu_window_plus_resync_tail(self):
        from repro.comm.can import RESYNC_FRAME_BOUND

        from repro.scenarios.faults import FRAMES_PER_IMU_SAMPLE

        s = _streams()
        CanBusErrorStorm(start=5.0, duration=2.0).apply(s, 1)
        mask = (s.imu_time >= 5.0) & (s.imu_time < 7.0)
        tail = int(np.ceil(RESYNC_FRAME_BOUND / FRAMES_PER_IMU_SAMPLE))
        last = int(np.flatnonzero(mask)[-1])
        mask[last + 1 : last + 1 + tail] = True
        assert np.isnan(s.imu_rate[mask]).all()
        assert np.isnan(s.imu_force[mask]).all()
        assert np.isfinite(s.imu_rate[~mask]).all()
        assert np.isfinite(s.acc_force).all()

    def test_lossy_burst_drops_i_i_d_per_seed(self):
        s1, s2 = _streams(), _streams()
        burst = LossyLinkBurst(start=0.0, duration=20.0, drop_probability=0.5)
        burst.apply(s1, 1)
        burst.apply(s2, 2)
        d1 = np.isnan(s1.acc_force[:, 0])
        d2 = np.isnan(s2.acc_force[:, 0])
        assert 0 < d1.sum() < len(d1)
        assert not np.array_equal(d1, d2)

    def test_drift_ramp_grows_linearly_from_start(self):
        s = _streams()
        original = s.acc_force.copy()
        DriftRamp(sensor="acc", rate=0.1, start=10.0).apply(s, 1)
        delta = s.acc_force - original
        expected = 0.1 * np.maximum(0.0, s.acc_time - 10.0)
        assert np.allclose(delta, expected[:, None])

    def test_gyro_and_imu_targets(self):
        s = _streams()
        SensorDropout(sensor="gyro", start=0.0).apply(s, 1)
        assert np.isnan(s.imu_rate).all()
        assert np.isfinite(s.imu_force).all()
        s = _streams()
        SensorDropout(sensor="imu", start=0.0).apply(s, 1)
        assert np.isnan(s.imu_rate).all()
        assert np.isnan(s.imu_force).all()

    def test_fault_rng_independent_of_salt_and_seed(self):
        a = fault_rng(1, 0).uniform(size=4)
        b = fault_rng(1, 1).uniform(size=4)
        c = fault_rng(2, 0).uniform(size=4)
        d = fault_rng(1, 0).uniform(size=4)
        assert np.array_equal(a, d)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_validation_errors(self):
        with pytest.raises(ConfigurationError):
            SensorDropout(sensor="camera")
        with pytest.raises(ConfigurationError):
            SensorDropout(start=-1.0)
        with pytest.raises(ConfigurationError):
            SensorDropout(start=0.0, duration=0.0)
        with pytest.raises(ConfigurationError):
            SensorDropout(jitter=-0.1)
        with pytest.raises(ConfigurationError):
            SaturatedAxis(level=0.0)
        with pytest.raises(ConfigurationError):
            LossyLinkBurst(drop_probability=1.5)
        with pytest.raises(ConfigurationError):
            ClockSkew(jitter_ppm=-1.0)
        with pytest.raises(ConfigurationError):
            apply_faults(("not a fault",), _streams(), 1)
        with pytest.raises(ConfigurationError):
            RigConfig(faults=(object(),))
        # NaN fails every check instead of slipping past it (it would
        # inject nothing, or NaN the whole stream).
        nan = float("nan")
        for build in (
            lambda: SensorDropout(start=nan),
            lambda: SensorDropout(start=1.0, duration=nan),
            lambda: SensorDropout(jitter=nan),
            lambda: StuckAxis(start=nan),
            lambda: SaturatedAxis(level=nan),
            lambda: CanBusErrorStorm(start=nan),
            lambda: LossyLinkBurst(duration=nan),
            lambda: ClockSkew(jitter_ppm=nan),
            lambda: DriftRamp(start=nan),
        ):
            with pytest.raises(ConfigurationError):
                build()
        # Non-finite magnitudes would NaN or overflow the whole stream
        # (or raise in apply, sinking every request of a shared batch).
        inf = float("inf")
        for build in (
            lambda: ClockSkew(ppm=nan),
            lambda: ClockSkew(ppm=-inf),
            lambda: ClockSkew(jitter_ppm=inf),
            lambda: DriftRamp(rate=nan),
            lambda: DriftRamp(rate=inf),
            lambda: SensorDropout(jitter=inf),
            # rng.uniform(-j, j) overflows once 2 * j does.
            lambda: SensorDropout(start=1.0, duration=1.0, jitter=1e308),
            lambda: ClockSkew(jitter_ppm=1e308),
        ):
            with pytest.raises(ConfigurationError, match="finite"):
                build()
        SensorDropout(start=1.0, duration=1.0, jitter=1e300).apply(
            _streams(), 1
        )
        ClockSkew(jitter_ppm=1e300).apply(_streams(), 1)
        # Axis indices must exist on the sensor (ACC has two axes, the
        # IMU triads three); a negative index would wrap silently.
        for build in (
            lambda: StuckAxis(sensor="acc", axis=2, start=5.0),
            lambda: StuckAxis(sensor="acc", axis=-1),
            lambda: SaturatedAxis(sensor="gyro", axis=3),
            lambda: SensorDropout(sensor="acc", axes=(0, 2)),
            lambda: SensorDropout(sensor="imu", axes=(-1,)),
            lambda: DriftRamp(sensor="imu_accel", axes=(3,)),
        ):
            with pytest.raises(ConfigurationError, match="axes"):
                build()
        assert StuckAxis(sensor="gyro", axis=2).axis == 2
        assert DriftRamp(sensor="acc", axes=(0, 1)).axes == (0, 1)

    def test_apply_order_matters(self):
        ramp = DriftRamp(sensor="acc", rate=0.5, start=0.0)
        drop = SensorDropout(sensor="acc", start=5.0, duration=5.0)
        s1, s2 = _streams(), _streams()
        apply_faults((ramp, drop), s1, 1)
        apply_faults((drop, ramp), s2, 1)
        inside = (s1.acc_time >= 5.0) & (s1.acc_time < 10.0)
        # drop-last leaves NaN; ramp-last turns NaN + ramp into NaN too,
        # but outside the window the ramped values must agree.
        assert np.isnan(s1.acc_force[inside]).all()
        assert np.array_equal(
            s1.acc_force[~inside], s2.acc_force[~inside]
        )


class TestDropoutAliasRegression:
    """A per-seed ACC dropout and the explicit fault are bit-identical."""

    @pytest.mark.parametrize("engine", ["model", "fast"])
    def test_batched_ensemble_honors_explicit_faults(self, engine):
        from repro.analysis.montecarlo import run_monte_carlo_dynamic

        scheduled = run_monte_carlo_dynamic(
            runs=2,
            duration=80.0,
            base_seed=700,
            acc_dropout={700: 60.0, 701: 60.0},
            fallback_hold=True,
            engine=engine,
        )
        explicit = run_monte_carlo_dynamic(
            runs=2,
            duration=80.0,
            base_seed=700,
            faults=(SensorDropout(sensor="acc", start=60.0),),
            fallback_hold=True,
            engine=engine,
        )
        assert scheduled == explicit


class TestDegradationLadder:
    def _run(self, fallback_hold: bool, faults: tuple[Fault, ...]):
        trajectory = city_drive_profile(duration=80.0, rng=make_rng(50))
        config = dynamic_estimator_config(0.03, motion_gate_rate=0.4)
        if fallback_hold:
            from dataclasses import replace

            config = replace(config, fallback_hold=True)
        rig = BoresightTestRig(RigConfig(seed=11, faults=faults))
        return rig.run(
            DEFAULT_MISALIGNMENT,
            trajectory,
            estimator_config=config,
            moving=True,
        )

    def test_ladder_codes_are_ordered_and_labelled(self):
        assert FALLBACK_LABELS[FALLBACK_FULL] == "full"
        assert FALLBACK_LABELS[FALLBACK_GATED] == "gated"
        assert FALLBACK_LABELS[FALLBACK_HOLD] == "hold"
        assert FALLBACK_LABELS[3] == "diverged"

    def test_hold_rung_survives_a_dropout_window(self):
        drop = SensorDropout(sensor="acc", start=40.0, duration=10.0)
        run = self._run(True, (drop,))
        history = run.result.history
        assert history.hold_ticks() > 0
        hold = history.fallback == FALLBACK_HOLD
        # Holds sit inside the dropout window (reconstruction averages
        # spread NaN one fusion tick around it).
        assert history.time[hold].min() >= 39.0
        assert history.time[hold].max() <= 51.0
        # The filter recovers: the final estimate stays finite and the
        # last tick is not a hold.
        assert np.isfinite(run.result.misalignment.as_array()).all()
        assert history.fallback[-1] != FALLBACK_HOLD

    def test_ladder_off_keeps_legacy_nan_behavior(self):
        # Historical contract: without fallback_hold an open-ended
        # dropout still poisons the filter (the divergence-masking
        # studies rely on it).
        from repro.errors import FilterDivergenceError

        drop = SensorDropout(sensor="acc", start=40.0)
        with pytest.raises(
            (FilterDivergenceError, np.linalg.LinAlgError)
        ):
            self._run(False, (drop,))

    def test_gate_and_hold_compose(self):
        drop = SensorDropout(sensor="acc", start=40.0, duration=10.0)
        run = self._run(True, (drop,))
        fallback = run.result.history.fallback
        gated = run.result.history.gated
        # Gated ticks carry the gated code unless the tick is a hold.
        assert (
            fallback[gated & (fallback != FALLBACK_HOLD)] == FALLBACK_GATED
        ).all()
        # Every code used is one of the ladder's.
        assert set(np.unique(fallback)) <= {
            FALLBACK_FULL,
            FALLBACK_GATED,
            FALLBACK_HOLD,
        }

    def test_nominal_run_is_all_full_or_gated(self):
        run = self._run(True, ())
        fallback = run.result.history.fallback
        assert run.result.history.hold_ticks() == 0
        assert set(np.unique(fallback)) <= {FALLBACK_FULL, FALLBACK_GATED}

    def test_summary_fallback_states_label_every_run(self):
        from repro.analysis.montecarlo import run_monte_carlo_dynamic

        drop = SensorDropout(sensor="acc", start=40.0, duration=10.0)
        summary = run_monte_carlo_dynamic(
            runs=3,
            duration=80.0,
            base_seed=710,
            faults=(drop,),
            fallback_hold=True,
            engine="fast",
        )
        assert summary.fallback_states == ("degraded",) * 3
        assert summary.fallback_counts == {"degraded": 3}
        nominal = run_monte_carlo_dynamic(
            runs=3, duration=80.0, base_seed=710, engine="fast"
        )
        assert nominal.fallback_states == ("full",) * 3


class TestFaultMatrix:
    """Sampled fault matrices: drawn once, digest-stable forever."""

    def _distribution(self):
        from repro.scenarios.faults import FaultDraw

        return (
            FaultDraw(
                family="sensor_dropout",
                probability=0.5,
                params=(
                    ("sensor", "acc"),
                    ("start", (10.0, 30.0)),
                    ("duration", (2.0, 8.0)),
                ),
            ),
            FaultDraw(
                family="clock_skew",
                probability=1.0,
                params=(("sensor", "gyro"), ("ppm", (-200.0, 200.0))),
            ),
            FaultDraw(
                family="stuck_axis",
                probability=0.0,
                params=(("sensor", "acc"), ("axis", (0, 2)), ("start", 5.0)),
            ),
        )

    def test_sampling_is_deterministic(self):
        from repro.scenarios.faults import sample_fault_matrix

        a = sample_fault_matrix(42, self._distribution(), seeds=range(8))
        b = sample_fault_matrix(42, self._distribution(), seeds=range(8))
        assert a == b
        assert sample_fault_matrix(43, self._distribution(), seeds=range(8)) != a

    def test_recipes_are_digest_stable(self):
        from repro.scenarios.cache import canonical_digest
        from repro.scenarios.faults import sample_fault_matrix

        a = sample_fault_matrix(7, self._distribution(), seeds=(1, 2, 3))
        b = sample_fault_matrix(7, self._distribution(), seeds=(1, 2, 3))
        assert canonical_digest(a) == canonical_digest(b)

    def test_per_seed_draws_are_order_independent(self):
        # Each seed samples from its own (rng_seed, seed) spawn key, so
        # a seed's recipe does not depend on which other seeds were in
        # the matrix or in what order.
        from repro.scenarios.faults import sample_fault_matrix

        wide = sample_fault_matrix(11, self._distribution(), seeds=(1, 2, 3, 4))
        narrow = sample_fault_matrix(11, self._distribution(), seeds=(3,))
        assert narrow.recipe_for(3) == wide.recipe_for(3)
        shuffled = sample_fault_matrix(11, self._distribution(), seeds=(4, 1))
        assert shuffled.recipe_for(4) == wide.recipe_for(4)

    def test_probability_gates(self):
        # probability=1 always appears, probability=0 never does, and a
        # 0.5 gate over enough seeds lands strictly between.
        from repro.scenarios.faults import (
            ClockSkew,
            SensorDropout,
            StuckAxis,
            sample_fault_matrix,
        )

        matrix = sample_fault_matrix(
            5, self._distribution(), seeds=range(64)
        )
        recipes = [matrix.recipe_for(seed) for seed in matrix.seeds]
        assert all(
            any(isinstance(f, ClockSkew) for f in recipe)
            for recipe in recipes
        )
        assert not any(
            isinstance(f, StuckAxis) for recipe in recipes for f in recipe
        )
        dropouts = sum(
            any(isinstance(f, SensorDropout) for f in recipe)
            for recipe in recipes
        )
        assert 0 < dropouts < 64

    def test_ranged_params_stay_in_bounds(self):
        from repro.scenarios.faults import SensorDropout, sample_fault_matrix

        matrix = sample_fault_matrix(
            9, self._distribution(), seeds=range(64)
        )
        for seed in matrix.seeds:
            for fault in matrix.recipe_for(seed):
                if isinstance(fault, SensorDropout):
                    assert 10.0 <= fault.start <= 30.0
                    assert 2.0 <= fault.duration <= 8.0

    def test_unknown_family_and_bad_probability_rejected(self):
        from repro.scenarios.faults import FaultDraw, sample_fault_matrix

        with pytest.raises(ConfigurationError, match="unknown fault family"):
            FaultDraw(family="meteor_strike")
        with pytest.raises(ConfigurationError, match="probability"):
            FaultDraw(family="clock_skew", probability=1.5)
        with pytest.raises(ConfigurationError, match="at least one draw"):
            sample_fault_matrix(1, (), seeds=(1,))
        with pytest.raises(ConfigurationError, match="needs seeds"):
            sample_fault_matrix(1, self._distribution(), seeds=())
        with pytest.raises(ConfigurationError, match="distinct"):
            sample_fault_matrix(1, self._distribution(), seeds=(1, 1))

    def test_matrix_campaign_cells_adapter(self):
        from repro.scenarios.campaign import matrix_campaign_cells
        from repro.scenarios.faults import sample_fault_matrix
        from repro.scenarios.spec import ScenarioSpec

        scenario = ScenarioSpec(
            name="matrix_static",
            profile="static_tilt",
            duration=60.0,
            profile_args=(("dwell_time", 3.0), ("slew_time", 1.5)),
            moving=False,
        )
        matrix = sample_fault_matrix(
            3, self._distribution(), seeds=(30, 31, 32), name="mx"
        )
        cells = matrix_campaign_cells(scenario, matrix)
        assert len(cells) == 3
        for cell, seed in zip(cells, (30, 31, 32)):
            assert cell.seeds == (seed,)
            assert cell.fault.name == f"mx/seed{seed}"
            assert cell.fault.faults == matrix.recipe_for(seed)
