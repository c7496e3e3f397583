"""Vehicle and test-platform motion simulation.

This package replaces the paper's physical test hardware (a level test
platform for the static tests, a private passenger vehicle for the
dynamic tests).  It generates the *true* kinematics — attitude, body
angular rate and specific force — that the sensor models in
:mod:`repro.sensors` then corrupt with MEMS error models.

Key entry points:

- :class:`~repro.vehicle.trajectory.Trajectory` — a sequence of
  maneuvers sampled into a :class:`~repro.vehicle.trajectory.TrajectoryData`;
  :func:`~repro.vehicle.trajectory.shared_sample` serves the same
  truth, integrated once per process, to the lockstep engines.
- :mod:`repro.vehicle.profiles` — ready-made profiles reproducing the
  paper's test protocols (static tilt-table runs, dynamic drives).
- :class:`~repro.vehicle.vibration.VibrationModel` — the engine/road
  vibration that forced the authors to raise the Kalman measurement
  noise from 0.003–0.01 to 0.015+ when moving.
- :mod:`repro.vehicle.testbench` — level table and laser-boresight
  ground-truth instruments.
"""

from repro.vehicle.maneuvers import (
    Accelerate,
    Brake,
    Dwell,
    Maneuver,
    RotateAbout,
    Slalom,
    Turn,
)
from repro.vehicle.profiles import (
    braking_profile,
    city_drive_profile,
    highway_profile,
    mountain_switchback_profile,
    static_level_profile,
    static_tilt_profile,
    stop_and_go_profile,
)
from repro.vehicle.batch_vibration import (
    StackedVibrationFields,
    stack_vibration_fields,
)
from repro.vehicle.testbench import LaserBoresight, LevelTable
from repro.vehicle.trajectory import Trajectory, TrajectoryData
from repro.vehicle.vibration import VibrationModel, VibrationSpec

__all__ = [
    "Maneuver",
    "Dwell",
    "RotateAbout",
    "Accelerate",
    "Brake",
    "Turn",
    "Slalom",
    "Trajectory",
    "TrajectoryData",
    "VibrationModel",
    "VibrationSpec",
    "StackedVibrationFields",
    "stack_vibration_fields",
    "LevelTable",
    "LaserBoresight",
    "static_level_profile",
    "static_tilt_profile",
    "city_drive_profile",
    "highway_profile",
    "mountain_switchback_profile",
    "stop_and_go_profile",
    "braking_profile",
]
