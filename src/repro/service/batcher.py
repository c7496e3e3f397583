"""Dynamic request coalescing with bounded admission.

The :class:`DynamicBatcher` is the service's waiting room: pending
requests accumulate per compatibility group (the
:meth:`~repro.scenarios.spec.ScenarioRequest.group_key`) and a group
flushes to the service's flush callback as one batch when it reaches
``max_batch_size`` — or when ``max_wait`` elapses since the group's
first entry, whichever comes first.  Size-triggered flushes give full
lockstep occupancy under load; the wait timer bounds the latency a
lone request pays for the *chance* of sharing a batch.

Admission is bounded: once ``max_pending`` entries are queued across
all groups, :meth:`add` raises
:class:`~repro.errors.ServiceOverloadError` instead of queueing more —
backpressure, not unbounded growth.  Entries in flight (already
flushed to the executor) no longer count against the bound.

Single-loop discipline: every method must be called from the event
loop that will run the flush tasks.  The batcher holds no references
to a loop between calls, so one instance survives across successive
``asyncio.run`` sessions (its queues are empty between them).
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Awaitable, Callable

from repro.errors import ServiceOverloadError


@dataclass
class PendingRequest:
    """One queued request: payload, completion future, admission time."""

    request: object
    future: asyncio.Future
    admitted_at: float


class DynamicBatcher:
    """Group-and-flush microbatching with a bounded admission queue."""

    def __init__(
        self,
        flush: Callable[[list[PendingRequest]], Awaitable[None]],
        max_batch_size: int = 64,
        max_wait: float = 0.002,
        max_pending: int = 256,
    ) -> None:
        if max_batch_size < 1:
            raise ValueError(
                f"max_batch_size must be >= 1, got {max_batch_size}"
            )
        if max_wait < 0.0:
            raise ValueError(f"max_wait must be >= 0, got {max_wait}")
        if max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        self._flush = flush
        self.max_batch_size = max_batch_size
        self.max_wait = max_wait
        self.max_pending = max_pending
        self._groups: dict[str, list[PendingRequest]] = {}
        self._timers: dict[str, asyncio.TimerHandle] = {}
        self._pending_count = 0
        self._tasks: set[asyncio.Task] = set()

    @property
    def pending(self) -> int:
        """Entries queued but not yet flushed (the admission depth)."""
        return self._pending_count

    def add(self, key: str, entry: PendingRequest) -> None:
        """Queue ``entry`` under compatibility group ``key``.

        Flushes the group immediately when it fills to
        ``max_batch_size``; otherwise arms the group's ``max_wait``
        timer on its first entry.  Raises
        :class:`~repro.errors.ServiceOverloadError` when the queue is
        already at ``max_pending``.
        """
        if self._pending_count >= self.max_pending:
            raise ServiceOverloadError(
                f"admission queue full ({self._pending_count} pending, "
                f"max_pending={self.max_pending}); retry or shed load"
            )
        group = self._groups.setdefault(key, [])
        group.append(entry)
        self._pending_count += 1
        if len(group) >= self.max_batch_size:
            self._fire(key)
        elif key not in self._timers:
            loop = asyncio.get_running_loop()
            self._timers[key] = loop.call_later(
                self.max_wait, self._fire, key
            )

    def _fire(self, key: str) -> None:
        """Flush group ``key`` now (size trigger, timer, or drain)."""
        timer = self._timers.pop(key, None)
        if timer is not None:
            timer.cancel()
        batch = self._groups.pop(key, [])
        if not batch:
            return
        self._pending_count -= len(batch)
        task = asyncio.get_running_loop().create_task(self._flush(batch))
        # Hold a strong reference until done — the loop only keeps
        # weak ones, and a collected flush task would drop its batch.
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def drain(self) -> None:
        """Flush every queued group and wait for all flushes in flight."""
        for key in list(self._groups):
            self._fire(key)
        while self._tasks:
            await asyncio.gather(*list(self._tasks), return_exceptions=True)
