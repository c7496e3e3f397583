"""Composable fault injectors over the rig's raw sensor streams.

The Monte-Carlo stack grew up with exactly one fault — a per-seed
ACC NaN cut — hard-coded into both the serial rig and the lockstep
ensemble driver.  This module generalizes it into a declarative
library of :class:`Fault` objects that the campaign layer
(:mod:`repro.scenarios.campaign`) composes freely; the per-seed cut
itself is now an open-ended :class:`SensorDropout` at the end of that
seed's fault chain.

Bit-identity by construction
----------------------------
Every fault implements one method, :meth:`Fault.apply`, that mutates a
:class:`RunStreams` view of *one run's* test-phase sensor arrays in
place.  The serial rig wraps its sample objects directly; the lockstep
ensemble wraps the ``r``-th row views of its stacked ``(R, N, ...)``
arrays (:mod:`repro.sensors.batch`) and applies row ``r``'s own
chain, so rows of one batch may carry different chains.  Both engines
therefore execute the *same* NumPy expressions on bit-identical
sensed data, so the faulted streams — and everything downstream —
stay bit-identical per run.  The registry equivalence harness and the
hypothesis sweep in ``tests/test_engine_registry.py`` pin this.

Per-seed randomness (burst drops, window jitter) comes from
:func:`fault_rng`: a deterministic generator derived from the run seed
and the fault's ``salt``, independent of every instrument stream, so
adding a fault never perturbs the underlying noise draws.

Faults mutate *values only*; the shared time bases are read-only (the
lockstep engines share one time grid across runs).  Clock skew is
therefore modelled by resampling values at skewed instants onto the
unchanged grid, not by bending the grid.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError

#: The DMU telemetry link carries one gyro and one accel frame per
#: IMU sample (see :mod:`repro.comm.protocol`).
FRAMES_PER_IMU_SAMPLE = 2

#: Each sensor's value-array axis count (the ACC is two-axis).
_SENSORS = {"acc": 2, "imu": 3, "gyro": 3, "imu_accel": 3}


@dataclass
class RunStreams:
    """Mutable view of one run's test-phase sensor streams.

    Array fields are *views* (the serial rig's sample arrays, or one
    row of the lockstep engine's stacked arrays) — faults mutate them
    in place.  Time bases are shared across runs and must never be
    written.
    """

    #: IMU sample times, (N,) — read-only.
    imu_time: np.ndarray
    #: IMU body rate, (N, 3) — mutated in place.
    imu_rate: np.ndarray
    #: IMU specific force, (N, 3) — mutated in place.
    imu_force: np.ndarray
    #: ACC sample times, (M,) — read-only.
    acc_time: np.ndarray
    #: ACC two-axis specific force, (M, 2) — mutated in place.
    acc_force: np.ndarray

    def targets(self, sensor: str) -> list[np.ndarray]:
        """The value arrays a fault on ``sensor`` writes to."""
        if sensor == "acc":
            return [self.acc_force]
        if sensor == "gyro":
            return [self.imu_rate]
        if sensor == "imu_accel":
            return [self.imu_force]
        if sensor == "imu":
            return [self.imu_rate, self.imu_force]
        raise ConfigurationError(
            f"unknown sensor {sensor!r}; expected one of {tuple(_SENSORS)}"
        )

    def time_of(self, sensor: str) -> np.ndarray:
        """The time base of ``sensor``'s streams."""
        return self.acc_time if sensor == "acc" else self.imu_time


def fault_rng(seed: int, salt: int) -> np.random.Generator:
    """Deterministic per-run generator for a fault's random draws.

    Derived from the run seed and the fault's ``salt`` on a dedicated
    spawn key, so it is independent of every instrument noise stream
    (which live on spawn keys 100/200/...) and of other faults with a
    different salt.
    """
    seq = np.random.SeedSequence(
        entropy=int(seed), spawn_key=(0xFA007, int(salt))
    )
    return np.random.Generator(np.random.PCG64(seq))


def _check_window(start: float, duration: float | None) -> None:
    # Negated comparisons, so a NaN fails them instead of slipping past.
    if not start >= 0.0:
        raise ConfigurationError(f"fault start must be >= 0, got {start}")
    if duration is not None and not duration > 0.0:
        raise ConfigurationError(
            f"fault duration must be > 0, got {duration}"
        )


def _check_sensor(sensor: str, axes=()) -> None:
    """Refuse an unknown sensor, or an axis index it does not have.

    A negative index is refused too: NumPy would wrap it onto another
    axis instead of failing.
    """
    if sensor not in _SENSORS:
        raise ConfigurationError(f"unknown sensor {sensor!r}")
    for axis in axes:
        if not 0 <= axis < _SENSORS[sensor]:
            raise ConfigurationError(
                f"sensor {sensor!r} has axes 0..{_SENSORS[sensor] - 1}, "
                f"got axis {axis}"
            )


def _window_mask(
    time: np.ndarray, start: float, duration: float | None
) -> np.ndarray:
    """Boolean mask of samples inside ``[start, start + duration)``.

    An open-ended window (``duration=None``) is ``time >= start`` —
    the per-seed ACC dropout cut a request's ``acc_dropout`` schedules.
    """
    if duration is None:
        return time >= start
    return (time >= start) & (time < start + duration)


class Fault(ABC):
    """One injectable sensor/link fault.

    Subclasses are frozen dataclasses: hashable, picklable (they ride
    :class:`~repro.analysis.montecarlo.EnsembleJob` into spawned
    workers) and comparable (the scenario service dedupes a batch's
    rows by ``(seed, fault chain)``).
    """

    @abstractmethod
    def apply(self, streams: RunStreams, seed: int) -> None:
        """Mutate one run's streams in place; ``seed`` is the run seed."""


@dataclass(frozen=True)
class SensorDropout(Fault):
    """A windowed outage: the sensor reads NaN inside the window.

    ``duration=None`` leaves the sensor dead for the rest of the run —
    the fault a request's per-seed ``acc_dropout`` time becomes, last
    in that seed's chain.  ``jitter`` randomizes each run's window start
    by ±jitter seconds (per-seed, via :func:`fault_rng`), modelling
    failures that do not strike every vehicle at the same instant.
    """

    sensor: str = "acc"
    start: float = 0.0
    duration: float | None = None
    #: Restrict the outage to these axis indices; ``None`` = all axes.
    axes: tuple[int, ...] | None = None
    #: Half-width of the per-seed uniform start jitter, seconds.
    jitter: float = 0.0
    salt: int = 0

    def __post_init__(self) -> None:
        _check_window(self.start, self.duration)
        _check_sensor(self.sensor, self.axes or ())
        # rng.uniform(-j, j) needs its range, 2 * j, to be finite.
        if not 0.0 <= 2.0 * self.jitter < math.inf:
            raise ConfigurationError(
                f"jitter must be >= 0 with 2 * jitter finite, got {self.jitter}"
            )

    def apply(self, streams: RunStreams, seed: int) -> None:
        start = self.start
        if self.jitter > 0.0:
            rng = fault_rng(seed, self.salt)
            start = max(
                0.0, start + float(rng.uniform(-self.jitter, self.jitter))
            )
        mask = _window_mask(streams.time_of(self.sensor), start, self.duration)
        for target in streams.targets(self.sensor):
            if self.axes is None:
                target[mask] = np.nan
            else:
                for axis in self.axes:
                    target[mask, axis] = np.nan


@dataclass(frozen=True)
class StuckAxis(Fault):
    """One axis freezes at its last healthy value over the window.

    Models a stuck ADC/register: the channel keeps reporting the
    sample captured just before ``start``.  Unlike a dropout the
    output stays finite, so the filter ingests consistent-but-wrong
    measurements — the fault class the residual monitor (not the
    NaN ladder) has to catch.
    """

    sensor: str = "acc"
    axis: int = 0
    start: float = 0.0
    duration: float | None = None

    def __post_init__(self) -> None:
        _check_window(self.start, self.duration)
        _check_sensor(self.sensor, (self.axis,))

    def apply(self, streams: RunStreams, seed: int) -> None:
        time = streams.time_of(self.sensor)
        mask = _window_mask(time, self.start, self.duration)
        if not mask.any():
            return
        first = int(np.argmax(mask))
        held_index = first - 1 if first > 0 else 0
        for target in streams.targets(self.sensor):
            target[mask, self.axis] = target[held_index, self.axis]


@dataclass(frozen=True)
class SaturatedAxis(Fault):
    """One axis rails: readings clip to ±``level`` inside the window.

    Models a gain fault or a range-switch failure that shrinks the
    usable full scale.  ``level`` is in the sensor's units (m/s² for
    accelerometers, rad/s for the gyro triad).
    """

    sensor: str = "acc"
    axis: int = 0
    start: float = 0.0
    duration: float | None = None
    level: float = 1.0

    def __post_init__(self) -> None:
        _check_window(self.start, self.duration)
        _check_sensor(self.sensor, (self.axis,))
        if not self.level > 0.0:
            raise ConfigurationError("saturation level must be > 0")

    def apply(self, streams: RunStreams, seed: int) -> None:
        mask = _window_mask(
            streams.time_of(self.sensor), self.start, self.duration
        )
        for target in streams.targets(self.sensor):
            target[mask, self.axis] = np.clip(
                target[mask, self.axis], -self.level, self.level
            )


@dataclass(frozen=True)
class ClockSkew(Fault):
    """The sensor's sample clock runs fast/slow by ``ppm``.

    The shared fusion time grid cannot bend per run (the lockstep
    engines stack runs on one grid), so the skew is modelled on the
    *values*: each axis is resampled at the skewed instants
    ``t * (1 + ppm·1e-6)`` via linear interpolation back onto the
    nominal grid — what a consumer timestamping with the nominal clock
    would observe.  ``jitter_ppm`` adds a per-seed uniform offset.
    """

    sensor: str = "acc"
    ppm: float = 100.0
    jitter_ppm: float = 0.0
    salt: int = 0

    def __post_init__(self) -> None:
        _check_sensor(self.sensor)
        if not math.isfinite(self.ppm):
            raise ConfigurationError(f"ppm must be finite, got {self.ppm}")
        if not 0.0 <= 2.0 * self.jitter_ppm < math.inf:
            raise ConfigurationError(
                "jitter_ppm must be >= 0 with 2 * jitter_ppm finite, "
                f"got {self.jitter_ppm}"
            )

    def apply(self, streams: RunStreams, seed: int) -> None:
        ppm = self.ppm
        if self.jitter_ppm > 0.0:
            rng = fault_rng(seed, self.salt)
            ppm += float(rng.uniform(-self.jitter_ppm, self.jitter_ppm))
        factor = 1.0 + ppm * 1e-6
        time = streams.time_of(self.sensor)
        skewed = time * factor
        for target in streams.targets(self.sensor):
            for axis in range(target.shape[1]):
                target[:, axis] = np.interp(skewed, time, target[:, axis])


@dataclass(frozen=True)
class CanBusErrorStorm(Fault):
    """An error storm on the DMU's CAN link blanks the IMU telemetry.

    During ``[start, start + duration)`` every frame on the bus is
    corrupted, so the host sees no valid IMU samples: the window reads
    NaN.  After the storm the stream decoder needs up to
    :data:`~repro.comm.can.RESYNC_FRAME_BOUND` frames to re-lock on a
    frame boundary (gap resynchronisation — the bounded-recovery fix
    for the cascade weakness PR 5 pinned), so the outage extends by
    the corresponding number of samples at ``FRAMES_PER_IMU_SAMPLE``
    frames per sample.
    """

    start: float = 0.0
    duration: float = 1.0

    def __post_init__(self) -> None:
        _check_window(self.start, self.duration)

    def apply(self, streams: RunStreams, seed: int) -> None:
        # Imported here so the faults module stays import-light for
        # the protocol layer (repro.comm pulls in the engine registry).
        from repro.comm.can import RESYNC_FRAME_BOUND

        mask = _window_mask(streams.imu_time, self.start, self.duration)
        if mask.any():
            tail = math.ceil(RESYNC_FRAME_BOUND / FRAMES_PER_IMU_SAMPLE)
            last = int(np.flatnonzero(mask)[-1])
            mask[last + 1 : last + 1 + tail] = True
        streams.imu_rate[mask] = np.nan
        streams.imu_force[mask] = np.nan


@dataclass(frozen=True)
class LossyLinkBurst(Fault):
    """A burst of i.i.d. packet drops on the ACC serial link.

    Inside the window each ACC sample is lost independently with
    ``drop_probability`` — the fault-injection twin of
    :class:`~repro.comm.link.LossyLink` burst loss.  Draws come from
    :func:`fault_rng`, so each run's drop pattern is deterministic in
    its seed and identical across engines.
    """

    start: float = 0.0
    duration: float = 1.0
    drop_probability: float = 0.3
    salt: int = 0

    def __post_init__(self) -> None:
        _check_window(self.start, self.duration)
        if not 0.0 <= self.drop_probability <= 1.0:
            raise ConfigurationError(
                "drop probability must be within [0, 1]"
            )

    def apply(self, streams: RunStreams, seed: int) -> None:
        mask = _window_mask(streams.acc_time, self.start, self.duration)
        count = int(np.count_nonzero(mask))
        if count == 0:
            return
        rng = fault_rng(seed, self.salt)
        dropped = rng.uniform(size=count) < self.drop_probability
        rows = np.flatnonzero(mask)[dropped]
        streams.acc_force[rows] = np.nan


@dataclass(frozen=True)
class DriftRamp(Fault):
    """A thermal drift ramp: bias grows linearly from ``start`` onward.

    Models warm-up/thermal-gradient drift (``rate`` sensor-units per
    second, applied to every axis or the ``axes`` subset).  Purely
    deterministic — the calibration happened cold, the test runs warm.
    """

    sensor: str = "acc"
    rate: float = 1e-4
    start: float = 0.0
    axes: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        _check_window(self.start, None)
        _check_sensor(self.sensor, self.axes or ())
        if not math.isfinite(self.rate):
            raise ConfigurationError(f"rate must be finite, got {self.rate}")

    def apply(self, streams: RunStreams, seed: int) -> None:
        time = streams.time_of(self.sensor)
        ramp = self.rate * np.maximum(0.0, time - self.start)
        for target in streams.targets(self.sensor):
            if self.axes is None:
                target += ramp[:, None]
            else:
                for axis in self.axes:
                    target[:, axis] += ramp


#: Fault families :func:`sample_fault_matrix` can draw, with the
#: parameters that may carry a ``(low, high)`` uniform range.  Integer
#: parameters (axis indices) are drawn inclusive of both endpoints.
_MATRIX_FAMILIES: dict[str, type] = {
    "sensor_dropout": SensorDropout,
    "stuck_axis": StuckAxis,
    "saturated_axis": SaturatedAxis,
    "clock_skew": ClockSkew,
    "can_bus_error_storm": CanBusErrorStorm,
    "lossy_link_burst": LossyLinkBurst,
    "drift_ramp": DriftRamp,
}

_MATRIX_INT_PARAMS = frozenset({"axis", "salt"})


@dataclass(frozen=True)
class FaultDraw:
    """One fault family's sampling declaration for a fault matrix.

    ``family`` names a :data:`_MATRIX_FAMILIES` entry.  ``params``
    maps constructor fields to either a fixed value or a ``(low,
    high)`` tuple drawn uniformly per seed (integer fields — axis
    indices, salts — draw integers, inclusive of both ends).
    ``probability`` gates whether the fault appears in a given seed's
    recipe at all.
    """

    family: str
    probability: float = 1.0
    params: tuple[tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        if self.family not in _MATRIX_FAMILIES:
            raise ConfigurationError(
                f"unknown fault family {self.family!r}; expected one of "
                f"{sorted(_MATRIX_FAMILIES)}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ConfigurationError(
                f"draw probability must be within [0, 1], got "
                f"{self.probability}"
            )
        object.__setattr__(self, "params", tuple(self.params))

    def draw(self, rng: np.random.Generator) -> Fault | None:
        """One seed's realization of this declaration, or ``None``.

        The RNG is always consumed in the same order (gate first, then
        every ranged parameter in declaration order) regardless of the
        gate's outcome, so one family's draw never shifts another's.
        """
        gate = float(rng.uniform())
        kwargs = {}
        for name, value in self.params:
            if isinstance(value, tuple) and len(value) == 2:
                low, high = value
                if name in _MATRIX_INT_PARAMS:
                    kwargs[name] = int(
                        rng.integers(int(low), int(high), endpoint=True)
                    )
                else:
                    kwargs[name] = float(rng.uniform(float(low), float(high)))
            else:
                kwargs[name] = value
        if gate >= self.probability:
            return None
        return _MATRIX_FAMILIES[self.family](**kwargs)


@dataclass(frozen=True)
class FaultMatrix:
    """Per-seed fault recipes drawn from declared distributions.

    The product of :func:`sample_fault_matrix`: for every seed a
    *fixed* tuple of concrete :class:`Fault` instances — plain frozen
    dataclasses with plain floats/ints, so each recipe is picklable,
    digest-stable under
    :func:`repro.scenarios.cache.canonical_digest`, and replayable
    bit-identically forever after, no matter when or where the matrix
    was sampled.  The campaign adapter
    (:func:`repro.scenarios.campaign.matrix_campaign_cells`) turns one
    into single-seed campaign cells.
    """

    name: str
    rng_seed: int
    recipes: tuple[tuple[int, tuple[Fault, ...]], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "recipes",
            tuple(
                (int(seed), tuple(faults)) for seed, faults in self.recipes
            ),
        )
        seeds = [seed for seed, _ in self.recipes]
        if len(set(seeds)) != len(seeds):
            raise ConfigurationError(
                f"fault matrix seeds must be distinct, got {seeds}"
            )

    @property
    def seeds(self) -> tuple[int, ...]:
        return tuple(seed for seed, _ in self.recipes)

    def recipe_for(self, seed: int) -> tuple[Fault, ...]:
        """The fixed recipe drawn for ``seed``."""
        for matrix_seed, faults in self.recipes:
            if matrix_seed == int(seed):
                return faults
        raise ConfigurationError(
            f"seed {seed} is not in fault matrix {self.name!r}"
        )


def sample_fault_matrix(
    rng_seed: int,
    distribution: tuple[FaultDraw, ...] | list[FaultDraw],
    seeds: tuple[int, ...] | list[int],
    name: str = "matrix",
) -> FaultMatrix:
    """Draw one fixed fault recipe per seed from ``distribution``.

    Each seed's draws come from a dedicated generator on the
    ``(0xFA117, seed)`` spawn key of ``rng_seed`` — deterministic per
    ``(rng_seed, seed)`` pair and independent of seed order, the other
    seeds, and every instrument/fault stream (which live on other
    spawn keys).  Sampling happens exactly once, here: the returned
    :class:`FaultMatrix` holds concrete fault instances, so campaigns
    built from it are as digest-stable and bit-replayable as
    hand-written recipes.  This closes the ROADMAP's "fault matrices
    drawn from distributions" remainder at its minimal useful size.
    """
    distribution = tuple(distribution)
    if not distribution:
        raise ConfigurationError("a fault matrix needs at least one draw")
    for draw in distribution:
        if not isinstance(draw, FaultDraw):
            raise ConfigurationError(
                f"distribution entries must be FaultDraw, got "
                f"{type(draw).__name__}"
            )
    seeds = tuple(int(seed) for seed in seeds)
    if not seeds:
        raise ConfigurationError("a fault matrix needs seeds")
    recipes = []
    for seed in seeds:
        seq = np.random.SeedSequence(
            entropy=int(rng_seed), spawn_key=(0xFA117, seed)
        )
        rng = np.random.Generator(np.random.PCG64(seq))
        faults = tuple(
            fault
            for fault in (draw.draw(rng) for draw in distribution)
            if fault is not None
        )
        recipes.append((seed, faults))
    return FaultMatrix(name=name, rng_seed=int(rng_seed), recipes=tuple(recipes))


def apply_faults(
    faults: tuple[Fault, ...], streams: RunStreams, seed: int
) -> None:
    """Apply ``faults`` to one run's streams, in order.

    Order matters (a dropout after a drift ramp NaNs the ramped
    values; the reverse ramps the NaNs) and both engines apply a job's
    chain as built: the scenario's faults, the recipe's, then the
    seed's scheduled ACC dropout, if any.
    """
    for fault in faults:
        if not isinstance(fault, Fault):
            raise ConfigurationError(
                f"faults must be Fault instances, got {type(fault).__name__}"
            )
        fault.apply(streams, int(seed))
