"""Tests for repro.vehicle: maneuvers, trajectories, vibration, bench."""

import dataclasses
import math

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.geometry import EulerAngles
from repro.units import STANDARD_GRAVITY, deg_to_rad
from repro.vehicle import (
    Accelerate,
    Brake,
    Dwell,
    LaserBoresight,
    LevelTable,
    RotateAbout,
    Slalom,
    Trajectory,
    Turn,
    VibrationModel,
    VibrationSpec,
    braking_profile,
    city_drive_profile,
    highway_profile,
    static_level_profile,
    static_tilt_profile,
)
from repro.vehicle import trajectory as trajectory_module
from repro.vehicle.trajectory import shared_sample


class TestManeuvers:
    def test_dwell_is_still(self):
        d = Dwell(5.0)
        assert np.allclose(d.body_rate(2.0), 0.0)
        assert np.allclose(d.body_accel(2.0), 0.0)

    def test_duration_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            Dwell(0.0)

    def test_rotate_integrates_to_angle(self):
        r = RotateAbout("y", deg_to_rad(20.0), 4.0)
        times = np.linspace(0.0, 4.0, 4001)
        rates = np.array([r.body_rate(t)[1] for t in times])
        integral = np.trapezoid(rates, times)
        assert integral == pytest.approx(deg_to_rad(20.0), rel=1e-6)

    def test_rotate_rate_zero_at_ends(self):
        r = RotateAbout("x", 0.3, 2.0)
        assert np.allclose(r.body_rate(0.0), 0.0)
        assert np.allclose(r.body_rate(2.0), 0.0)

    def test_rotate_rejects_bad_axis(self):
        with pytest.raises(ConfigurationError):
            RotateAbout("w", 0.1, 1.0)

    def test_accelerate_integrates_to_delta_speed(self):
        a = Accelerate(10.0, 5.0)
        times = np.linspace(0.0, 5.0, 5001)
        accels = np.array([a.body_accel(t)[0] for t in times])
        assert np.trapezoid(accels, times) == pytest.approx(10.0, rel=1e-6)
        assert a.speed_delta() == 10.0

    def test_brake_is_negative_accelerate(self):
        b = Brake(8.0, 4.0)
        assert b.speed_delta() == -8.0
        with pytest.raises(ConfigurationError):
            Brake(-1.0, 2.0)

    def test_turn_centripetal_consistency(self):
        t = Turn(math.pi / 2, speed=10.0, duration=6.0)
        mid_rate = t.body_rate(3.0)[2]
        mid_lat = t.body_accel(3.0)[1]
        assert mid_lat == pytest.approx(10.0 * mid_rate)

    def test_slalom_zero_net_heading(self):
        s = Slalom(deg_to_rad(10.0), 2, 12.0, 8.0)
        times = np.linspace(0.0, 8.0, 8001)
        rates = np.array([s.body_rate(t)[2] for t in times])
        assert abs(np.trapezoid(rates, times)) < 1e-10


class TestTrajectory:
    def test_level_rest_specific_force(self):
        data = static_level_profile(5.0).sample(50.0)
        assert np.allclose(
            data.specific_force, [0.0, 0.0, -STANDARD_GRAVITY], atol=1e-12
        )
        assert np.allclose(data.body_rate, 0.0)

    def test_rotation_reaches_target_attitude(self):
        traj = Trajectory([RotateAbout("y", deg_to_rad(20.0), 4.0), Dwell(1.0)])
        data = traj.sample(200.0)
        assert math.degrees(data.euler[-1, 1]) == pytest.approx(20.0, abs=1e-4)

    def test_tilted_gravity_components(self):
        traj = Trajectory([RotateAbout("y", deg_to_rad(20.0), 4.0), Dwell(2.0)])
        data = traj.sample(100.0)
        f = data.specific_force[-1]
        assert f[0] == pytest.approx(
            STANDARD_GRAVITY * math.sin(deg_to_rad(20.0)), abs=1e-5
        )

    def test_sample_count_and_rate(self):
        data = static_level_profile(10.0).sample(100.0)
        assert len(data) == 1001
        assert data.sample_rate == pytest.approx(100.0)

    def test_speed_never_negative(self, rng):
        data = city_drive_profile(120.0, rng).sample(100.0)
        assert np.all(data.speed >= 0.0)

    def test_slice(self):
        data = static_level_profile(10.0).sample(10.0)
        part = data.slice(10, 20)
        assert len(part) == 10
        assert part.time[0] == pytest.approx(data.time[10])

    def test_empty_trajectory_rejected(self):
        with pytest.raises(ConfigurationError):
            Trajectory([])

    def test_bad_sample_rate(self):
        with pytest.raises(ConfigurationError):
            static_level_profile(5.0).sample(0.0)


def _short_drive(angle: float = 0.3) -> Trajectory:
    """A few seconds of tilt, turn and acceleration, built afresh."""
    return Trajectory(
        [
            Dwell(0.5),
            RotateAbout("y", angle, 1.0),
            Turn(0.4, 10.0, 1.5),
            Accelerate(2.0, 1.0),
        ],
        initial_attitude=EulerAngles(0.01, -0.02, 0.03),
        initial_speed=10.0,
    )


class TestSharedSample:
    """The per-process memo of sampled truth in front of the integrator."""

    def test_every_library_trajectory_matches_a_fresh_sample(self):
        from repro.scenarios.spec import scenario_library

        trajectories = [
            spec.build_trajectory() for spec in scenario_library().values()
        ]
        for trajectory in trajectories + [static_level_profile(40.0)]:
            shared = shared_sample(trajectory, 100.0)
            fresh = trajectory.sample(100.0)
            for field in dataclasses.fields(fresh):
                got = getattr(shared, field.name)
                want = getattr(fresh, field.name)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes(), field.name

    def test_equal_trajectories_built_apart_integrate_once(
        self, truth_integrations
    ):
        first = shared_sample(_short_drive(), 100.0)
        second = shared_sample(_short_drive(), 100.0)
        assert second is first
        assert len(truth_integrations) == 1

    def test_any_bit_of_the_key_misses(self, truth_integrations):
        shared_sample(_short_drive(0.3), 100.0)
        shared_sample(_short_drive(np.nextafter(0.3, 1.0)), 100.0)
        assert len(truth_integrations) == 2
        # Equal under ==, yet they integrate to different bytes.
        positive = Trajectory([RotateAbout("z", 0.0, 1.0)])
        negative = Trajectory([RotateAbout("z", -0.0, 1.0)])
        assert positive.maneuvers[0].angle == negative.maneuvers[0].angle
        a = shared_sample(positive, 100.0)
        b = shared_sample(negative, 100.0)
        assert a.body_rate.tobytes() != b.body_rate.tobytes()
        assert len(truth_integrations) == 4
        shared_sample(_short_drive(0.3), 50.0)
        assert len(truth_integrations) == 5

    def test_concurrent_callers_integrate_each_key_once(
        self, truth_integrations
    ):
        import sys
        import threading

        drives = [_short_drive(0.1 * k) for k in (1, 2, 3)]
        results = []
        threads = [
            threading.Thread(
                target=lambda d=d: results.append(shared_sample(d, 100.0))
            )
            for d in drives * 4
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(results) == 12
        assert len({id(r) for r in results}) == 3
        assert len(truth_integrations) == 3

    def test_values_are_read_only(self):
        data = shared_sample(_short_drive(), 100.0)
        for field in dataclasses.fields(data):
            array = getattr(data, field.name)
            with pytest.raises(ValueError):
                array[...] = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            data.time = np.zeros(3)

    def test_byte_budget_evicts_least_recently_used(
        self, truth_integrations, monkeypatch
    ):
        one = _short_drive().sample(100.0).nbytes
        truth_integrations.clear()
        monkeypatch.setattr(trajectory_module, "SHARED_TRUTH_BYTES", 2 * one)
        a, b, c = _short_drive(0.1), _short_drive(0.2), _short_drive(0.3)
        shared_sample(a, 100.0)
        shared_sample(b, 100.0)
        shared_sample(a, 100.0)  # a is now the most recently used
        shared_sample(c, 100.0)  # over budget: evicts b, keeps a
        assert len(truth_integrations) == 3
        shared_sample(a, 100.0)
        assert len(truth_integrations) == 3
        shared_sample(b, 100.0)
        assert len(truth_integrations) == 4

    def test_entry_over_the_budget_is_returned_not_kept(
        self, truth_integrations, monkeypatch
    ):
        monkeypatch.setattr(trajectory_module, "SHARED_TRUTH_BYTES", 1)
        data = shared_sample(_short_drive(), 100.0)
        assert not data.time.flags.writeable
        shared_sample(_short_drive(), 100.0)
        assert len(truth_integrations) == 2


class TestProfiles:
    def test_tilt_profile_covers_all_axes(self):
        data = static_tilt_profile(300.0).sample(20.0)
        # Gravity must appear on x (pitch legs) and y (roll legs).
        assert np.abs(data.specific_force[:, 0]).max() > 2.0
        assert np.abs(data.specific_force[:, 1]).max() > 2.0
        # Heading changes during the pitched-yaw legs.
        assert np.abs(data.euler[:, 2]).max() > deg_to_rad(10.0)

    def test_tilt_profile_two_sided(self):
        data = static_tilt_profile(300.0).sample(20.0)
        assert data.specific_force[:, 0].max() > 2.0
        assert data.specific_force[:, 0].min() < -2.0

    def test_tilt_profile_duration_check(self):
        with pytest.raises(ConfigurationError):
            static_tilt_profile(duration=30.0)

    def test_city_profile_randomization_differs(self, rng):
        from repro.rng import make_rng

        a = city_drive_profile(200.0, make_rng(1)).sample(10.0)
        b = city_drive_profile(200.0, make_rng(2)).sample(10.0)
        assert not np.allclose(a.specific_force, b.specific_force)

    def test_city_profile_has_lateral_excitation(self, rng):
        data = city_drive_profile(200.0, rng).sample(20.0)
        assert np.abs(data.specific_force[:, 1]).max() > 1.0

    def test_highway_profile_low_lateral(self):
        data = highway_profile(120.0).sample(20.0)
        lateral = np.abs(data.specific_force[:, 1]).max()
        city = city_drive_profile(120.0).sample(20.0)
        assert lateral < np.abs(city.specific_force[:, 1]).max()

    def test_braking_profile_longitudinal_only(self):
        data = braking_profile(60.0, pulses=2).sample(20.0)
        assert np.abs(data.specific_force[:, 0]).max() > 2.0
        assert np.abs(data.specific_force[:, 1]).max() < 0.1

    def test_braking_profile_rejects_zero_pulses(self):
        with pytest.raises(ConfigurationError):
            braking_profile(60.0, pulses=0)


class TestVibration:
    def test_rms_scales_with_speed(self, rng):
        spec = VibrationSpec()
        model = VibrationModel(spec, rng)
        slow = np.array([model.sample(t, 1.0) for t in np.arange(0, 5, 0.01)])
        model2 = VibrationModel(spec, rng)
        fast = np.array([model2.sample(t, 20.0) for t in np.arange(0, 5, 0.01)])
        assert fast.std() > slow.std()

    def test_pair_is_correlated_but_not_identical(self, rng):
        spec = VibrationSpec(decorrelation=0.3)
        a, b = VibrationModel.make_pair(spec, rng)
        times = np.arange(0.0, 10.0, 0.01)
        sa = np.array([a.sample(t, 14.0) for t in times])[:, 0]
        sb = np.array([b.sample(t, 14.0) for t in times])[:, 0]
        corr = np.corrcoef(sa, sb)[0, 1]
        assert 0.2 < corr < 0.999

    def test_rejects_negative_speed(self, rng):
        model = VibrationModel(VibrationSpec(), rng)
        with pytest.raises(ConfigurationError):
            model.sample(0.0, -1.0)

    def test_spec_validation(self):
        with pytest.raises(ConfigurationError):
            VibrationSpec(decorrelation=2.0)
        with pytest.raises(ConfigurationError):
            VibrationSpec(engine_frequency_hz=0.0)


class TestTestbench:
    def test_level_table_error_small(self, rng):
        table = LevelTable(leveling_error_deg=0.01)
        attitude = table.leveled_attitude(rng)
        assert abs(math.degrees(attitude.roll)) < 0.1
        assert attitude.yaw == 0.0

    def test_laser_measures_with_small_error(self, rng):
        laser = LaserBoresight(accuracy_deg=0.005)
        truth = EulerAngles.from_degrees(2.0, -1.0, 3.0)
        measured = laser.measure(truth, rng)
        error = np.degrees((measured - truth).as_array())
        assert np.max(np.abs(error)) < 0.05

    def test_laser_rejects_negative_accuracy(self):
        with pytest.raises(ConfigurationError):
            LaserBoresight(accuracy_deg=-1.0)
