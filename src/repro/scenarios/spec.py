"""The scenario DSL and its one unit of work.

A :class:`ScenarioSpec` declares *where the vehicle drives and how the
estimator is tuned for it* — a named, frozen, picklable recipe over the
profile builders of :mod:`repro.vehicle.profiles` plus the estimator
tuning knobs of :mod:`repro.experiments.table1`.  Crossing a scenario
with a :class:`FaultSpec` recipe and a seed list yields one
:class:`ScenarioRequest`: the unit of work campaigns,
:func:`repro.api.execute` and the scenario service all run and cache
under one digest, its jobs built by :func:`scenario_jobs`.

Scenarios are declarative on purpose: the spec stores the builder
*name* and scalar arguments, not a :class:`~repro.vehicle.Trajectory`,
so specs hash, compare, pickle across process shards and serialize
into golden artifacts; :meth:`ScenarioSpec.build_trajectory`
materializes the (deterministic) trajectory on demand.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

from repro.analysis.montecarlo import EnsembleJob
from repro.errors import ConfigurationError
from repro.experiments.table1 import (
    DEFAULT_MISALIGNMENT,
    dynamic_estimator_config,
    static_estimator_config,
)
from repro.fusion import BoresightConfig
from repro.geometry import EulerAngles
from repro.rng import make_rng
from repro.scenarios.cache import canonical_digest
from repro.scenarios.faults import DriftRamp, Fault, SensorDropout
from repro.vehicle import Trajectory, VibrationSpec
from repro.vehicle.profiles import (
    braking_profile,
    city_drive_profile,
    highway_profile,
    mountain_switchback_profile,
    static_tilt_profile,
    stop_and_go_profile,
)

#: Named trajectory builders a scenario may reference.
PROFILE_BUILDERS = {
    "static_tilt": static_tilt_profile,
    "city_drive": city_drive_profile,
    "highway": highway_profile,
    "mountain_switchbacks": mountain_switchback_profile,
    "stop_and_go": stop_and_go_profile,
    "braking": braking_profile,
}

#: Builders that accept an ``rng`` (route randomization).
_RNG_PROFILES = frozenset({"city_drive"})

#: Body-rate gate (rad/s) the dynamic scenarios arm by default —
#: the same value the dynamic Monte-Carlo ensembles use.
SCENARIO_MOTION_GATE_RATE = 0.4


def require_type(label: str, value, kind: type) -> None:
    """Refuse ``value`` with a ConfigurationError unless it is a ``kind``.

    A wrongly typed field would otherwise construct, then fail as an
    ``AttributeError`` inside the batch or grid it shares.
    """
    if not isinstance(value, kind):
        raise ConfigurationError(
            f"{label} must be a {kind.__name__}, got {type(value).__name__}"
        )


@dataclass(frozen=True)
class ScenarioSpec:
    """One named operating condition of the vehicle and estimator.

    ``profile`` names a :data:`PROFILE_BUILDERS` entry; ``profile_args``
    carries extra scalar keyword arguments for it as sorted
    ``(name, value)`` pairs (kept as a tuple so the spec stays hashable
    and picklable).  ``route_seed`` feeds the builder's ``rng`` for
    randomized routes — the route is generated *once* per cell, so
    every seed of the cell drives the same road, exactly like the
    dynamic Monte-Carlo ensembles.
    """

    name: str
    profile: str
    duration: float = 120.0
    #: Extra keyword arguments for the profile builder.
    profile_args: tuple[tuple[str, float], ...] = ()
    #: Seed of the route-randomizing RNG; None for deterministic routes.
    route_seed: int | None = None
    #: Whether the §11 dynamic protocol applies (vibration on).
    moving: bool = True
    #: Kalman measurement sigma for this condition, m/s².
    measurement_sigma: float = 0.03
    #: Motion gate (rad/s); None disables gating.
    motion_gate_rate: float | None = SCENARIO_MOTION_GATE_RATE
    #: Vibration environment override; None keeps the rig default.
    vibration: VibrationSpec | None = None
    #: Faults intrinsic to the scenario itself (e.g. a thermal drift
    #: ramp) — applied before any campaign-injected faults.
    faults: tuple[Fault, ...] = ()

    def __post_init__(self) -> None:
        if self.profile not in PROFILE_BUILDERS:
            raise ConfigurationError(
                f"unknown profile {self.profile!r}; expected one of "
                f"{sorted(PROFILE_BUILDERS)}"
            )
        if self.duration <= 0.0:
            raise ConfigurationError("scenario duration must be positive")
        if self.route_seed is not None and self.profile not in _RNG_PROFILES:
            raise ConfigurationError(
                f"profile {self.profile!r} takes no route rng; "
                "route_seed must be None"
            )
        object.__setattr__(
            self, "profile_args", tuple(sorted(tuple(self.profile_args)))
        )
        object.__setattr__(self, "faults", tuple(self.faults))
        for fault in self.faults:
            require_type("each fault", fault, Fault)

    def build_trajectory(self) -> Trajectory:
        """Materialize the scenario's trajectory (deterministically)."""
        kwargs = dict(self.profile_args)
        if self.route_seed is not None:
            kwargs["rng"] = make_rng(self.route_seed)
        return PROFILE_BUILDERS[self.profile](duration=self.duration, **kwargs)

    def build_estimator_config(
        self, fallback_hold: bool = False
    ) -> BoresightConfig:
        """The estimator tuning this scenario calls for.

        Static scenarios get the bench tuning
        (:func:`~repro.experiments.table1.static_estimator_config`),
        dynamic ones the driving tuning with this spec's motion gate.
        ``fallback_hold`` arms the dead-reckoning rung of the
        degradation ladder.
        """
        if self.moving:
            config = dynamic_estimator_config(
                self.measurement_sigma,
                motion_gate_rate=self.motion_gate_rate,
            )
        else:
            config = static_estimator_config(self.measurement_sigma)
        if fallback_hold:
            config = replace(config, fallback_hold=True)
        return config


def scenario_library() -> dict[str, ScenarioSpec]:
    """The built-in scenario corpus, keyed by name.

    Spans the operating envelope the campaign exercises: a bench
    reference, four driving styles with distinct excitation signatures,
    a rough-road vibration stress and a thermal drift ramp.
    """
    specs = [
        ScenarioSpec(
            name="static_bench",
            profile="static_tilt",
            duration=80.0,
            profile_args=(("dwell_time", 6.0), ("slew_time", 2.0)),
            moving=False,
            measurement_sigma=0.006,
            motion_gate_rate=None,
        ),
        ScenarioSpec(
            name="city_drive",
            profile="city_drive",
            duration=110.0,
            route_seed=50,
        ),
        ScenarioSpec(name="highway", profile="highway", duration=110.0),
        ScenarioSpec(
            name="mountain_switchbacks",
            profile="mountain_switchbacks",
            duration=120.0,
        ),
        ScenarioSpec(
            name="stop_and_go", profile="stop_and_go", duration=100.0
        ),
        ScenarioSpec(
            name="off_road",
            profile="city_drive",
            duration=110.0,
            route_seed=53,
            vibration=VibrationSpec(road_rms=0.35, engine_rms=0.12),
        ),
        ScenarioSpec(
            name="thermal_ramp",
            profile="highway",
            duration=110.0,
            faults=(DriftRamp(sensor="acc", rate=4e-4),),
        ),
    ]
    return {spec.name: spec for spec in specs}


@dataclass(frozen=True)
class FaultSpec:
    """A named, ordered fault recipe injected into every run of a request."""

    name: str
    faults: tuple[Fault, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))
        for fault in self.faults:
            require_type("each fault", fault, Fault)


#: The healthy-baseline recipe requests default to.
NOMINAL_FAULT = FaultSpec(name="nominal")


def normalize_seeds(seeds) -> tuple[int, ...]:
    """``seeds`` as a tuple of ints, refusing negative ones up front.

    NumPy seeds only non-negative integers; refused here, a negative
    seed cannot quarantine the batch or cell it would share.
    """
    seeds = tuple(int(s) for s in seeds)
    if any(s < 0 for s in seeds):
        raise ConfigurationError(f"seeds must be non-negative, got {seeds}")
    return seeds


def scenario_jobs(
    scenario: ScenarioSpec,
    rows: Sequence[tuple[int, tuple[Fault, ...]]],
    misalignment: EulerAngles,
    estimator_config: BoresightConfig,
) -> list[EnsembleJob]:
    """One :class:`EnsembleJob` per ``(seed, fault chain)`` row, in order.

    The one place jobs are built: for one request
    (:meth:`ScenarioRequest.jobs`) or a coalesced batch of them
    (:func:`~repro.service.requests.coalesce_requests`).  The
    trajectory is materialized once and, like the other payloads,
    shared by identity, as the lockstep engine requires.
    """
    trajectory = scenario.build_trajectory()
    return [
        EnsembleJob(
            seed=seed,
            trajectory=trajectory,
            misalignment=misalignment,
            estimator_config=estimator_config,
            moving=scenario.moving,
            faults=chain,
            vibration=scenario.vibration,
        )
        for seed, chain in rows
    ]


#: Version tag folded into every compatibility key, so a change to the
#: grouping rule can never alias old and new groups.
_GROUP_KEY_VERSION = "service-group-v2"


@dataclass(frozen=True)
class ScenarioRequest:
    """One unit of work: scenario × fault recipe × seeds, plus extras.

    A campaign cell, a request to :func:`repro.api.execute` and a
    service admission are all this type, so one
    :func:`~repro.scenarios.cache.canonical_digest` keys the run for
    the campaign journal, the cache, ``execute`` and the service.  It
    is frozen and picklable; a worker rebuilds the jobs from it.

    ``misalignment`` defaults to
    :data:`~repro.experiments.table1.DEFAULT_MISALIGNMENT` (normalized
    at construction, so equal requests digest equal).
    ``estimator_config`` overrides the tuning the scenario would derive
    (:meth:`ScenarioSpec.build_estimator_config`); leave it ``None`` to
    derive.  ``acc_dropout`` schedules per-seed ACC failures as
    ``(seed, time)`` pairs — every scheduled seed must be in ``seeds``,
    and every time must be a valid
    :class:`~repro.scenarios.faults.SensorDropout` start.  Fields are
    type-checked, so a malformed request is refused alone instead of
    failing the batch it would share.
    """

    scenario: ScenarioSpec
    seeds: tuple[int, ...]
    fault: FaultSpec = NOMINAL_FAULT
    misalignment: EulerAngles | None = None
    estimator_config: BoresightConfig | None = None
    #: Arm the dead-reckoning rung when deriving the estimator config.
    fallback_hold: bool = False
    #: Per-seed ACC failure times, seconds, as sorted (seed, time) pairs.
    acc_dropout: tuple[tuple[int, float], ...] = field(default=())

    def __post_init__(self) -> None:
        if self.misalignment is None:
            object.__setattr__(self, "misalignment", DEFAULT_MISALIGNMENT)
        require_type("scenario", self.scenario, ScenarioSpec)
        require_type("fault", self.fault, FaultSpec)
        require_type("misalignment", self.misalignment, EulerAngles)
        if self.estimator_config is not None:
            require_type(
                "estimator_config", self.estimator_config, BoresightConfig
            )
        object.__setattr__(self, "seeds", normalize_seeds(self.seeds))
        if not self.seeds:
            raise ConfigurationError("a scenario request needs seeds")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigurationError(
                "scenario request seeds must be distinct"
            )
        dropout = tuple(
            sorted((int(seed), float(time)) for seed, time in self.acc_dropout)
        )
        object.__setattr__(self, "acc_dropout", dropout)
        scheduled = [seed for seed, _ in dropout]
        if len(set(scheduled)) != len(scheduled):
            raise ConfigurationError(
                "acc_dropout schedules a seed twice"
            )
        stray = sorted(set(scheduled) - set(self.seeds))
        if stray:
            raise ConfigurationError(
                f"acc_dropout schedules seeds not in the request: {stray}"
            )
        for _, time in dropout:
            # The fault's own checks: a bad time is refused here, before
            # it can sink a batch it shares with valid requests.
            SensorDropout(sensor="acc", start=time)

    def row_keys(self) -> list[tuple[int, tuple[Fault, ...]]]:
        """This request's rows as ``(seed, fault chain)``, in seed order.

        The chain is the scenario's faults, then the recipe's, then —
        for a seed ``acc_dropout`` schedules — an open-ended ACC
        :class:`~repro.scenarios.faults.SensorDropout` from that time
        on.  With the group key, the pair fixes the row's outcome, so
        it is what a batch dedupes and regroups by.
        """
        chain = self.scenario.faults + self.fault.faults
        cut = {
            seed: (SensorDropout(sensor="acc", start=time),)
            for seed, time in self.acc_dropout
        }
        return [(seed, chain + cut.get(seed, ())) for seed in self.seeds]

    def effective_estimator_config(self) -> BoresightConfig:
        """The override, or the scenario-derived tuning."""
        if self.estimator_config is not None:
            return self.estimator_config
        return self.scenario.build_estimator_config(
            fallback_hold=self.fallback_hold
        )

    def group_key(self) -> str:
        """The coalescing compatibility key.

        Everything that shapes a job *except* its row key (seed and
        fault chain): requests with equal keys may merge into one
        lockstep batch, because their merged job list is homogeneous
        in trajectory, misalignment, estimator config, motion flag and
        vibration — the lockstep preconditions.  Fault recipes and
        dropout schedules vary per row.
        """
        return canonical_digest(
            (
                _GROUP_KEY_VERSION,
                self.scenario,
                self.misalignment,
                self.estimator_config,
                self.fallback_hold,
            )
        )

    def jobs(self) -> list[EnsembleJob]:
        """This request's ensemble jobs, one per row, in seed order.

        Executing these jobs through any ``"ensemble"`` engine and
        summarizing is the request's serial oracle semantics.
        """
        return scenario_jobs(
            self.scenario,
            self.row_keys(),
            self.misalignment,
            self.effective_estimator_config(),
        )
