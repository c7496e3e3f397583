"""The resilience supervisor: deadlines, bounded retry, quarantine.

A :class:`Supervisor` runs tasks under a :class:`RetryPolicy`:

- failures classified *transient* are retried after a deterministic
  exponential backoff, up to ``max_attempts`` total attempts;
- failures classified *permanent* quarantine immediately — the work is
  a deterministic function of its inputs, so replaying a permanent
  fault only burns time;
- an optional per-attempt ``deadline``: in process a watchdog thread
  raises :class:`~repro.errors.TaskTimeoutError` (transient) on a miss;
  on a worker pool the hung worker is SIGKILLed.  Either way the miss
  counts in the outcome's ``timeouts``.

:meth:`Supervisor.run` climbs that ladder for one zero-argument
callable.  :meth:`Supervisor.map` climbs it for many items at once:
in process one item at a time through :meth:`~Supervisor.run`, or on
a :class:`~repro.resilience.pool.WorkerPool` (campaign cells, service
batches) with the pool refilled as items finish and restarted when it
breaks.

The result is always a :class:`SupervisedOutcome` — ``completed`` with
the task's value, or ``quarantined`` with the last fault string.  The
supervisor never lets a task exception escape (``KeyboardInterrupt``
and friends excepted): quarantining is the whole point, a poison task
must not sink the run.

Retries are pure replays of seed-deterministic work, so a recovered
result is bit-identical to what the failed attempt would have
produced.  Every campaign runs under a supervisor, so the registry
harness's ``("campaign", "fast")`` pair pins the clean supervised path
against the oracle, and the chaos suite pins the recovered ones.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.errors import (
    ConfigurationError,
    PermanentError,
    TaskTimeoutError,
)
from repro.resilience.pool import WorkerPool

#: Failure classes, as returned by :func:`classify_error`.
TRANSIENT = "transient"
PERMANENT = "permanent"


def classify_error(exc: BaseException) -> str:
    """Classify an exception as ``"transient"`` or ``"permanent"``.

    Explicitly permanent errors (:class:`~repro.errors.PermanentError`,
    :class:`~repro.errors.ConfigurationError`) quarantine without
    retries.  Everything else — including unknown exceptions — is
    transient: infrastructure faults (killed workers, timeouts) earn
    their retries, and a deterministic poison task still ends up
    quarantined once its attempts are exhausted.
    """
    if isinstance(exc, (PermanentError, ConfigurationError)):
        return PERMANENT
    return TRANSIENT


@dataclass(frozen=True)
class RetryPolicy:
    """How hard the supervisor tries before quarantining.

    ``backoff_delay(i)`` for retry index ``i`` (0 for the first retry)
    is ``backoff_base * backoff_factor ** i`` capped at
    ``backoff_cap`` — deterministic on purpose: no jitter, so a chaos
    schedule replays the exact same timeline every run.
    """

    max_attempts: int = 3
    deadline: float | None = None
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_cap: float = 2.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"retry policy needs max_attempts >= 1, got {self.max_attempts}"
            )
        if self.deadline is not None and self.deadline <= 0:
            raise ConfigurationError(
                f"retry policy deadline must be > 0 seconds, got {self.deadline}"
            )
        if self.backoff_base < 0 or self.backoff_factor < 1 or self.backoff_cap < 0:
            raise ConfigurationError(
                "retry policy backoff needs base >= 0, factor >= 1, cap >= 0; "
                f"got base={self.backoff_base} factor={self.backoff_factor} "
                f"cap={self.backoff_cap}"
            )

    def backoff_delay(self, retry_index: int) -> float:
        """Deterministic delay before retry number ``retry_index`` (0-based)."""
        if retry_index < 0:
            raise ConfigurationError(
                f"retry index must be >= 0, got {retry_index}"
            )
        return min(self.backoff_base * self.backoff_factor**retry_index, self.backoff_cap)


@dataclass(frozen=True)
class SupervisedOutcome:
    """What became of one supervised task.

    ``status`` is ``"completed"`` (``value`` holds the task's return)
    or ``"quarantined"`` (``fault`` holds the last failure as
    ``"ExcType: message"``).  ``attempts`` counts executions,
    ``retries = attempts - 1`` of which were replays; ``timeouts``
    counts the attempts that died on the deadline and
    ``pool_failures`` the attempts lost to a broken worker pool
    (:class:`~concurrent.futures.process.BrokenProcessPool`).
    """

    status: str
    value: object = None
    attempts: int = 1
    retries: int = 0
    timeouts: int = 0
    pool_failures: int = 0
    fault: str | None = None

    @property
    def completed(self) -> bool:
        return self.status == "completed"


def format_fault(exc: BaseException) -> str:
    """The canonical fault string recorded on quarantine."""
    return f"{type(exc).__name__}: {exc}"


def call_with_deadline(
    task: Callable[[], object], deadline: float, label: str
) -> object:
    """Run ``task`` in a watchdog thread, failing after ``deadline`` seconds.

    Raises :class:`~repro.errors.TaskTimeoutError` on a miss.  The
    timed-out thread cannot be killed from Python — it is left to
    finish in the background — so in-process tasks run under a
    deadline must not share mutable state (the service passes
    ``arena=None`` on supervised in-process batches for exactly this
    reason).  On a pool, :meth:`Supervisor.map` enforces the deadline
    instead, by killing the worker process.
    """
    box: dict[str, object] = {}
    done = threading.Event()

    def _runner() -> None:
        try:
            box["value"] = task()
        except BaseException as exc:  # noqa: BLE001 - re-raised in caller
            box["error"] = exc
        finally:
            done.set()

    thread = threading.Thread(
        target=_runner, name=f"supervised-{label}", daemon=True
    )
    thread.start()
    if not done.wait(deadline):
        raise TaskTimeoutError(
            f"{label}: exceeded {deadline:g}s deadline"
        )
    if "error" in box:
        raise box["error"]  # type: ignore[misc]
    return box["value"]


class Supervisor:
    """Runs tasks under a :class:`RetryPolicy`, quarantining poison.

    Parameters
    ----------
    policy:
        Retry/deadline/backoff knobs; defaults to ``RetryPolicy()``.
    classify:
        Maps an exception to ``"transient"``/``"permanent"``; defaults
        to :func:`classify_error`.
    sleep:
        Injected backoff sleeper (tests pass a recorder to pin the
        deterministic delay sequence without waiting it out).
    pool_factory:
        How pooled campaigns and the scenario service build their
        worker pool (default :class:`~repro.resilience.pool.WorkerPool`);
        the chaos harness swaps in a
        :class:`~repro.resilience.chaos.ChaosPool` wrapper here.
    """

    def __init__(
        self,
        policy: RetryPolicy | None = None,
        *,
        classify: Callable[[BaseException], str] = classify_error,
        sleep: Callable[[float], None] = time.sleep,
        pool_factory: Callable[[int], object] = WorkerPool,
    ) -> None:
        self.policy = policy if policy is not None else RetryPolicy()
        self.classify = classify
        self.sleep = sleep
        self.pool_factory = pool_factory

    def backoff(self, retry_index: int) -> None:
        """Sleep the deterministic backoff before retry ``retry_index``."""
        delay = self.policy.backoff_delay(retry_index)
        if delay > 0:
            self.sleep(delay)

    def run(
        self,
        task: Callable[[], object],
        *,
        label: str = "task",
        enforce_deadline: bool = True,
    ) -> SupervisedOutcome:
        """Run ``task`` to a :class:`SupervisedOutcome`, never raising.

        ``enforce_deadline=False`` skips the watchdog, for a last-resort
        rung that should finish however long it takes.
        """
        policy = self.policy
        timeouts = 0
        fault: str | None = None
        for attempt in range(1, policy.max_attempts + 1):
            if attempt > 1:
                self.backoff(attempt - 2)
            try:
                if enforce_deadline and policy.deadline is not None:
                    value = call_with_deadline(task, policy.deadline, label)
                else:
                    value = task()
                return SupervisedOutcome(
                    status="completed",
                    value=value,
                    attempts=attempt,
                    retries=attempt - 1,
                    timeouts=timeouts,
                )
            except Exception as exc:
                fault = format_fault(exc)
                if isinstance(exc, TaskTimeoutError):
                    timeouts += 1
                if self.classify(exc) == PERMANENT:
                    return SupervisedOutcome(
                        status="quarantined",
                        attempts=attempt,
                        retries=attempt - 1,
                        timeouts=timeouts,
                        fault=fault,
                    )
        return SupervisedOutcome(
            status="quarantined",
            attempts=policy.max_attempts,
            retries=policy.max_attempts - 1,
            timeouts=timeouts,
            fault=fault,
        )

    def map(
        self,
        task: Callable[[object], object],
        items: Sequence,
        *,
        pool=None,
        on_start: Callable[[int, int], None] | None = None,
        on_settle: Callable[[int, SupervisedOutcome], None] | None = None,
    ) -> list[SupervisedOutcome]:
        """Run ``task(item)`` for every item to one outcome each, in order.

        ``on_start(k, attempt)`` runs before an attempt at ``items[k]``
        executes and ``on_settle(k, outcome)`` as soon as its outcome is
        final.  With no ``pool`` the items settle one at a time through
        :meth:`run` (``on_start`` once, before the first attempt).

        With a ``pool`` (the :class:`~repro.resilience.pool.WorkerPool`
        surface; ``task`` and the items must pickle), ``pool.workers``
        items stay in flight and the next is submitted as soon as any
        finishes, so a slow item never idles the other workers.  Each
        item's deadline runs from its own submission; a miss SIGKILLs
        the workers.  A broken pool (killed worker, missed deadline, or
        dead before the call) drains its in-flight futures, then
        restarts once.  A failed item re-queues after the policy's
        backoff until its attempts run out, then quarantines — the
        ladder :meth:`run` climbs in process.
        """
        start = on_start or (lambda k, attempt: None)
        finish = on_settle or (lambda k, outcome: None)
        if pool is None:
            outcomes = []
            for k, item in enumerate(items):
                start(k, 1)
                outcome = self.run(functools.partial(task, item), label=f"item-{k}")
                finish(k, outcome)
                outcomes.append(outcome)
            return outcomes

        policy = self.policy
        attempts = [0] * len(items)
        timeouts = [0] * len(items)
        pool_failures = [0] * len(items)
        outcomes = [None] * len(items)
        queue = deque(range(len(items)))
        #: future -> (item index, monotonic submission time), in submit order.
        inflight: dict = {}
        backoff = 0.0
        broken = False

        def settle(k: int, **fields) -> None:
            outcomes[k] = SupervisedOutcome(
                attempts=attempts[k],
                retries=attempts[k] - 1,
                timeouts=timeouts[k],
                pool_failures=pool_failures[k],
                **fields,
            )
            finish(k, outcomes[k])

        def failed(k: int, exc: Exception) -> None:
            nonlocal backoff
            if isinstance(exc, BrokenProcessPool):
                pool_failures[k] += 1
            if (
                self.classify(exc) == PERMANENT
                or attempts[k] >= policy.max_attempts
            ):
                settle(k, status="quarantined", fault=format_fault(exc))
            else:
                backoff = max(backoff, policy.backoff_delay(attempts[k] - 1))
                queue.append(k)

        while queue or inflight:
            if not inflight and (broken or pool.broken):
                pool.restart()
                broken = False
            while queue and len(inflight) < pool.workers and not (
                broken or pool.broken
            ):
                if backoff > 0:
                    self.sleep(backoff)
                    backoff = 0.0
                k = queue.popleft()
                attempts[k] += 1
                start(k, attempts[k])
                try:
                    future = pool.submit(task, items[k])
                except BrokenProcessPool as exc:
                    broken = True
                    failed(k, exc)
                else:
                    inflight[future] = (k, time.monotonic())
            if not inflight:
                continue
            timeout = None
            if policy.deadline is not None:
                oldest = min(submitted for _, submitted in inflight.values())
                timeout = max(0.0, oldest + policy.deadline - time.monotonic())
            done, _ = wait(inflight, timeout=timeout, return_when=FIRST_COMPLETED)
            now = time.monotonic()
            for future, (k, submitted) in list(inflight.items()):
                if future in done:
                    del inflight[future]
                    try:
                        value = future.result()
                    except Exception as exc:
                        broken = broken or isinstance(exc, BrokenProcessPool)
                        failed(k, exc)
                    else:
                        settle(k, status="completed", value=value)
                elif (
                    policy.deadline is not None
                    and now - submitted >= policy.deadline
                ):
                    # The watchdog: a hung worker is killed, not waited
                    # on; the items in flight beside it fail
                    # BrokenProcessPool and retry on the restarted pool.
                    del inflight[future]
                    pool.kill_workers()
                    broken = True
                    timeouts[k] += 1
                    failed(
                        k,
                        TaskTimeoutError(
                            f"item-{k}: exceeded {policy.deadline:g}s deadline"
                        ),
                    )
        return outcomes
