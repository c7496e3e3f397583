"""Trajectory assembly and sampling.

A :class:`Trajectory` is an ordered list of maneuvers.  Sampling it
produces a :class:`TrajectoryData` — dense arrays of the *true* signals
the sensors will observe: attitude, body angular rate, and body-frame
specific force.

Specific force is what accelerometers actually measure:

    f_b = a_b - C_nb @ g_n

with ``a_b`` the body-frame coordinate acceleration, ``C_nb`` the
NED→body DCM and ``g_n = (0, 0, +g)`` the gravity vector in NED (z
down).  A vehicle at rest and level therefore senses
``f_b = (0, 0, -g)`` — the familiar "1 g up" reading.

:meth:`Trajectory.sample` integrates in a pure-Python loop, and in the
§11 protocol every rig flies the same deterministic trajectories, so
the lockstep engines fetch truth through :func:`shared_sample`: one
per-process memo of sampled truth in front of the integrator.

- **Key.** The pickled ``(rate, initial_attitude, initial_speed,
  [(maneuver class, maneuver field items), …])`` tuple.  Pickle
  writes floats as their IEEE-754 bytes, so a hit needs every field
  equal bit for bit: ``0.0`` and ``-0.0`` (equal under ``==``,
  different ``body_rate`` bytes) or a one-ULP change are misses.
  Object identity plays no part, so equal trajectories built
  separately share one entry.
- **Read-only values.** Every array of a returned
  :class:`TrajectoryData` is flagged non-writeable and the dataclass
  is frozen, so no caller can alter the truth another one reads.
  Consumers that need to write (e.g. adding vibration) copy first.
- **Bound.** Entries are evicted least recently used beyond
  :data:`SHARED_TRUTH_BYTES`; a sample larger than the whole budget
  is returned but not kept.
- **Lock.** One :class:`threading.Lock` guards lookup, integration
  and insertion: a supervisor deadline can leave a timed-out
  in-process attempt running beside its retry, and the retry then
  waits for that integration and hits it instead of repeating it.

Spawned worker processes each hold their own memo.  The serial
oracle, the full-system simulator and the registry probes call
:meth:`Trajectory.sample` directly, so every oracle-vs-fast
comparison checks memo-served truth against freshly integrated truth.
"""

from __future__ import annotations

import pickle
import threading
from collections import OrderedDict
from dataclasses import dataclass, field, fields
from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.geometry import EulerAngles, Quaternion
from repro.units import STANDARD_GRAVITY
from repro.vehicle.maneuvers import Maneuver

#: Gravity vector in the NED frame (z down), m/s**2.
GRAVITY_NED = np.array([0.0, 0.0, STANDARD_GRAVITY])

#: Byte budget of the :func:`shared_sample` memo.  One 110 s drive at
#: 100 Hz is about 1.6 MB, so this holds every trajectory a campaign
#: grid or a service instance revisits.
SHARED_TRUTH_BYTES = 64 * 2**20

_SHARED: OrderedDict[bytes, "TrajectoryData"] = OrderedDict()
_SHARED_LOCK = threading.Lock()


@dataclass(frozen=True)
class TrajectoryData:
    """Densely sampled true motion of the platform.

    Attributes
    ----------
    time:
        Sample instants, seconds, shape (N,).
    quaternion:
        NED→body attitude at each instant, shape (N, 4), scalar first.
    euler:
        The same attitude as roll/pitch/yaw radians, shape (N, 3).
    body_rate:
        True body angular rate, rad/s, shape (N, 3).
    specific_force:
        True specific force in body axes, m/s**2, shape (N, 3).
    body_accel:
        Coordinate acceleration in body axes, m/s**2, shape (N, 3).
    speed:
        Longitudinal speed, m/s, shape (N,).
    """

    time: np.ndarray
    quaternion: np.ndarray
    euler: np.ndarray
    body_rate: np.ndarray
    specific_force: np.ndarray
    body_accel: np.ndarray
    speed: np.ndarray

    def __len__(self) -> int:
        return int(self.time.shape[0])

    @property
    def nbytes(self) -> int:
        """Bytes held by the sampled arrays."""
        return sum(getattr(self, f.name).nbytes for f in fields(self))

    @property
    def duration(self) -> float:
        """Total trajectory span in seconds."""
        if len(self) == 0:
            return 0.0
        return float(self.time[-1] - self.time[0])

    @property
    def sample_rate(self) -> float:
        """Mean sample rate in Hz."""
        if len(self) < 2:
            raise ConfigurationError("need at least two samples for a rate")
        return float((len(self) - 1) / self.duration)

    def attitude_at(self, index: int) -> Quaternion:
        """Attitude quaternion of sample ``index``."""
        w, x, y, z = self.quaternion[index]
        return Quaternion(float(w), float(x), float(y), float(z))

    def slice(self, start: int, stop: int) -> "TrajectoryData":
        """Return the sub-trajectory of samples [start, stop)."""
        return TrajectoryData(
            time=self.time[start:stop].copy(),
            quaternion=self.quaternion[start:stop].copy(),
            euler=self.euler[start:stop].copy(),
            body_rate=self.body_rate[start:stop].copy(),
            specific_force=self.specific_force[start:stop].copy(),
            body_accel=self.body_accel[start:stop].copy(),
            speed=self.speed[start:stop].copy(),
        )


@dataclass
class Trajectory:
    """An ordered sequence of maneuvers starting from a known attitude.

    Parameters
    ----------
    maneuvers:
        The motion segments, executed back to back.
    initial_attitude:
        NED→body attitude at t=0.  Defaults to level, heading north.
    initial_speed:
        Longitudinal speed at t=0, m/s.
    """

    maneuvers: Sequence[Maneuver]
    initial_attitude: EulerAngles = field(default_factory=EulerAngles.zero)
    initial_speed: float = 0.0

    def __post_init__(self) -> None:
        if not self.maneuvers:
            raise ConfigurationError("trajectory needs at least one maneuver")

    @property
    def duration(self) -> float:
        """Total duration of all maneuvers, seconds."""
        return float(sum(m.duration for m in self.maneuvers))

    def sample(self, rate: float) -> TrajectoryData:
        """Sample the trajectory at ``rate`` Hz.

        Attitude is integrated with the exact single-step quaternion
        exponential per sample, using the mid-point body rate — accurate
        to O(dt^3) per step for the smooth rate profiles used here.
        """
        if rate <= 0.0:
            raise ConfigurationError(f"sample rate must be > 0, got {rate}")
        dt = 1.0 / rate
        count = int(round(self.duration * rate)) + 1

        time = np.empty(count)
        quaternion = np.empty((count, 4))
        euler = np.empty((count, 3))
        body_rate = np.empty((count, 3))
        specific_force = np.empty((count, 3))
        body_accel = np.empty((count, 3))
        speed = np.empty(count)

        attitude = Quaternion.from_euler(self.initial_attitude)
        current_speed = float(self.initial_speed)

        for i in range(count):
            t = i * dt
            omega, accel = self._signals_at(t)
            c_nb = attitude.to_dcm()
            f_b = accel - c_nb @ GRAVITY_NED

            time[i] = t
            quaternion[i] = attitude.as_array()
            e = attitude.to_euler()
            euler[i] = (e.roll, e.pitch, e.yaw)
            body_rate[i] = omega
            specific_force[i] = f_b
            body_accel[i] = accel
            speed[i] = current_speed

            if i + 1 < count:
                omega_mid, accel_mid = self._signals_at(t + 0.5 * dt)
                attitude = attitude.integrated(omega_mid, dt)
                # Clamp at rest: integration round-off must not produce
                # a (physically meaningless) negative speed.
                current_speed = max(0.0, current_speed + float(accel_mid[0]) * dt)

        return TrajectoryData(
            time=time,
            quaternion=quaternion,
            euler=euler,
            body_rate=body_rate,
            specific_force=specific_force,
            body_accel=body_accel,
            speed=speed,
        )

    def _signals_at(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """Body rate and body acceleration at global time ``t``."""
        remaining = t
        for maneuver in self.maneuvers:
            if remaining <= maneuver.duration:
                return maneuver.body_rate(remaining), maneuver.body_accel(remaining)
            remaining -= maneuver.duration
        # Past the end: hold the final state (at rest).
        return np.zeros(3), np.zeros(3)


def shared_sample(trajectory: Trajectory, rate: float) -> TrajectoryData:
    """``trajectory.sample(rate)``, integrated once per process.

    Returns the memoized, read-only :class:`TrajectoryData` for a
    bit-identical ``(trajectory, rate)`` and integrates on a miss; see
    the module docstring for the key, the bound and the lock.
    """
    key = pickle.dumps(
        (
            rate,
            trajectory.initial_attitude,
            trajectory.initial_speed,
            [(type(m), tuple(vars(m).items())) for m in trajectory.maneuvers],
        )
    )
    with _SHARED_LOCK:
        data = _SHARED.get(key)
        if data is not None:
            _SHARED.move_to_end(key)
            return data
        # By attribute, so a wrapper on ``Trajectory.sample`` sees
        # exactly the misses.
        data = trajectory.sample(rate)
        for f in fields(data):
            getattr(data, f.name).setflags(write=False)
        if data.nbytes <= SHARED_TRUTH_BYTES:
            _SHARED[key] = data
            while sum(d.nbytes for d in _SHARED.values()) > SHARED_TRUTH_BYTES:
                _SHARED.popitem(last=False)
        return data
