"""Chaos-injection harness: reproducible execution-stack faults.

PR 6 injected faults into the *modeled system* (sensor dropouts, bus
error storms); this module injects faults into the *execution stack*
so the test suite can prove the resilience ladder instead of trusting
it:

- :class:`ChaosPool` wraps a :class:`~repro.resilience.pool.WorkerPool`
  and, on a seeded :class:`ChaosSchedule`, kills workers mid-flight,
  delays task completion past deadlines, or raises transient/permanent
  faults *inside the worker*;
- :class:`ChaosRunner` does the same for in-process callables;
- :func:`corrupt_cache_file` truncates or bit-flips an on-disk
  :class:`~repro.scenarios.cache.CampaignCache` entry.

Schedules are explicit event tuples (or drawn via
:func:`sample_chaos_schedule` from a seeded RNG), consumed one event
per call — deterministic, so every chaos test replays the exact same
failure timeline.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping

import numpy as np

from repro.errors import ConfigurationError, PermanentError, TransientError

#: Event kinds a schedule may carry; ``None`` entries mean "no chaos".
CHAOS_EVENTS = ("kill", "delay", "transient", "permanent")


class ChaosTransientError(TransientError):
    """An injected failure the supervisor should retry."""


class ChaosPermanentError(PermanentError):
    """An injected failure the supervisor should quarantine on sight."""


@dataclass(frozen=True)
class ChaosSchedule:
    """A fixed per-call event timeline.

    ``events[i]`` is the fault injected on the *i*-th supervised call
    (``None`` = clean); calls past the end of the tuple are clean.
    ``delay`` is the injected sleep for ``"delay"`` events and
    ``kill_after`` the mid-flight delay before a ``"kill"`` event's
    watchdog pulls the trigger.
    """

    events: tuple[str | None, ...]
    delay: float = 0.5
    kill_after: float = 0.05

    def __post_init__(self) -> None:
        for event in self.events:
            if event is not None and event not in CHAOS_EVENTS:
                raise ConfigurationError(
                    f"unknown chaos event {event!r}; expected one of "
                    f"{CHAOS_EVENTS} or None"
                )
        if self.delay < 0 or self.kill_after < 0:
            raise ConfigurationError(
                "chaos delays must be >= 0, got "
                f"delay={self.delay} kill_after={self.kill_after}"
            )

    def event(self, index: int) -> str | None:
        """The event for call number ``index`` (0-based)."""
        if 0 <= index < len(self.events):
            return self.events[index]
        return None


def sample_chaos_schedule(
    seed: int,
    length: int,
    weights: Mapping[str, float] | None = None,
    *,
    delay: float = 0.5,
    kill_after: float = 0.05,
) -> ChaosSchedule:
    """Draw a schedule from a seeded categorical distribution.

    ``weights`` maps ``"none"`` and each :data:`CHAOS_EVENTS` kind to a
    non-negative weight (missing kinds get 0); the default mix is
    mostly-clean with occasional transients.  Same ``seed`` ->
    identical schedule, independent of call order anywhere else.
    """
    if length < 0:
        raise ConfigurationError(f"schedule length must be >= 0, got {length}")
    if weights is None:
        weights = {"none": 0.6, "transient": 0.2, "delay": 0.1, "kill": 0.1}
    kinds = ("none",) + CHAOS_EVENTS
    unknown = set(weights) - set(kinds)
    if unknown:
        raise ConfigurationError(
            f"unknown chaos event weights {sorted(unknown)}; expected {kinds}"
        )
    raw = np.array([float(weights.get(kind, 0.0)) for kind in kinds])
    if (raw < 0).any() or raw.sum() <= 0:
        raise ConfigurationError(
            f"chaos weights must be >= 0 and sum > 0, got {dict(weights)}"
        )
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(0xC4A05,))
    )
    draws = rng.choice(len(kinds), size=length, p=raw / raw.sum())
    events = tuple(
        None if kinds[int(i)] == "none" else kinds[int(i)] for i in draws
    )
    return ChaosSchedule(events=events, delay=delay, kill_after=kill_after)


def _delayed_call(
    delay: float, fn: Callable, args: tuple
) -> object:
    """Worker-side wrapper: sleep past the deadline, then run the task."""
    time.sleep(delay)
    return fn(*args)


def _raise_transient(message: str) -> None:
    """Worker-side raiser for scheduled transient faults."""
    raise ChaosTransientError(message)


def _raise_permanent(message: str) -> None:
    """Worker-side raiser for scheduled permanent faults."""
    raise ChaosPermanentError(message)


class ChaosPool:
    """A worker-pool proxy that injects scheduled faults per call.

    Wraps anything with the :class:`~repro.resilience.pool.WorkerPool`
    surface :meth:`~repro.resilience.supervisor.Supervisor.map` uses
    (``workers``/``submit``/``kill_workers``/``restart``/``broken``/
    ``shutdown``).  Install via ``Supervisor(pool_factory=...)`` so
    campaigns and the scenario service build their pool pre-wrapped.
    """

    def __init__(self, pool: object, schedule: ChaosSchedule) -> None:
        self._pool = pool
        self.schedule = schedule
        self.calls = 0
        self.injected: list[str] = []

    @property
    def workers(self) -> int:
        return self._pool.workers

    @property
    def broken(self) -> bool:
        return self._pool.broken

    def kill_workers(self) -> None:
        self._pool.kill_workers()

    def restart(self) -> None:
        self._pool.restart()

    def shutdown(self) -> None:
        self._pool.shutdown()

    def submit(self, fn: Callable, *args: object):
        fn, args = self._armed(fn, args)
        return self._pool.submit(fn, *args)

    def _armed(self, fn: Callable, args: tuple) -> tuple[Callable, tuple]:
        """Consume the next schedule event, rewriting the submitted task."""
        event = self.schedule.event(self.calls)
        self.calls += 1
        if event is None:
            return fn, args
        self.injected.append(event)
        if event == "transient":
            return _raise_transient, ("chaos: scheduled transient fault",)
        if event == "permanent":
            return _raise_permanent, ("chaos: scheduled permanent fault",)
        if event == "delay":
            return _delayed_call, (self.schedule.delay, fn, tuple(args))
        # "kill": let the real task start, then shoot its worker.
        killer = threading.Timer(
            self.schedule.kill_after, self._pool.kill_workers
        )
        killer.daemon = True
        killer.start()
        return fn, args


@dataclass
class ChaosRunner:
    """In-process chaos: wrap a callable, injecting per-call events.

    The supervised in-process paths (serial batches, ``workers=1``
    campaigns) have no worker to kill, so ``"kill"`` raises a
    :class:`ChaosTransientError` labelled as a kill instead.
    """

    inner: Callable
    schedule: ChaosSchedule
    calls: int = 0
    injected: list = field(default_factory=list)

    def __call__(self, *args: object, **kwargs: object) -> object:
        event = self.schedule.event(self.calls)
        self.calls += 1
        if event is not None:
            self.injected.append(event)
        if event == "transient":
            raise ChaosTransientError("chaos: scheduled transient fault")
        if event == "permanent":
            raise ChaosPermanentError("chaos: scheduled permanent fault")
        if event == "kill":
            raise ChaosTransientError("chaos: simulated in-process worker kill")
        if event == "delay":
            time.sleep(self.schedule.delay)
        return self.inner(*args, **kwargs)


def corrupt_cache_file(
    cache_dir: str | Path,
    digest: str,
    mode: str = "truncate",
    *,
    suffix: str = ".pkl",
) -> Path:
    """Damage one on-disk cache entry in place; returns its path.

    ``mode="truncate"`` keeps the first half of the file (a torn
    write); ``mode="bitflip"`` flips one bit in the middle (silent
    media corruption).  The cache's disk tier must treat either as a
    quarantined miss, never as data.
    """
    path = Path(cache_dir) / f"{digest}{suffix}"
    raw = path.read_bytes()
    if mode == "truncate":
        path.write_bytes(raw[: max(1, len(raw) // 2)])
    elif mode == "bitflip":
        if not raw:
            raise ConfigurationError(f"cannot bit-flip empty file {path}")
        flipped = bytearray(raw)
        flipped[len(flipped) // 2] ^= 0x10
        path.write_bytes(bytes(flipped))
    else:
        raise ConfigurationError(
            f"unknown corruption mode {mode!r}; expected 'truncate' or 'bitflip'"
        )
    return path
