"""The worker pool every parallel run in the library uses.

One spawn-process pool type behind both parallel paths: campaign
cells (``workers > 1``) and the scenario service's batches
(``workers >= 1``).  Callers own a pool for as long as they need it —
one call for a campaign, one instance for a service — and use only
this surface:

- :meth:`WorkerPool.submit` — one task, returning its future;
- :meth:`WorkerPool.kill_workers` — the deadline watchdog (SIGKILL),
  also how a pool whose executor broke is marked dead;
- :meth:`WorkerPool.restart` / :meth:`WorkerPool.shutdown`.

:meth:`~repro.resilience.supervisor.Supervisor.map` is the only code
that submits to a pool, one built by ``Supervisor.pool_factory``.  The
chaos harness (:class:`~repro.resilience.chaos.ChaosPool`) proxies
exactly
``workers``/``submit``/``kill_workers``/``restart``/``broken``/``shutdown``,
so supervised code that sticks to those runs under chaos unchanged.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable

from repro.errors import ConfigurationError


class WorkerPool:
    """A spawn-process pool that can be killed and restarted.

    Spawned (not forked) workers import a fresh interpreter, so tasks
    and their arguments must pickle by reference — module-level
    functions and plain data.  A pool whose workers died raises
    :class:`~concurrent.futures.process.BrokenProcessPool` from every
    later submit until :meth:`restart`.
    """

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ConfigurationError(
                f"worker pool needs workers >= 1, got {workers}"
            )
        self.workers = workers
        self._pool = self._make_executor()
        self._broken = False

    def _make_executor(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=multiprocessing.get_context("spawn"),
        )

    @property
    def broken(self) -> bool:
        """Whether the pool has been marked dead."""
        return self._broken

    def submit(self, fn: Callable, *args: object) -> Future:
        """Submit one task, returning its future."""
        if self._broken:
            raise BrokenProcessPool("worker pool already marked dead")
        try:
            return self._pool.submit(fn, *args)
        except BrokenProcessPool:
            self._broken = True
            raise

    def kill_workers(self) -> None:
        """SIGKILL every live worker process — the deadline watchdog.

        Marks the pool broken; in-flight futures fail with
        :class:`BrokenProcessPool`.  :meth:`restart` builds a fresh
        pool for the retry.  Called on a pool whose executor already
        broke, it only marks the pool.
        """
        self._broken = True
        # ProcessPoolExecutor keeps its workers in the private
        # ``_processes`` dict; there is no public kill surface.
        processes = getattr(self._pool, "_processes", None) or {}
        for process in list(processes.values()):
            process.kill()

    def restart(self) -> None:
        """Replace a dead executor with a fresh spawn pool."""
        self._pool.shutdown(wait=False, cancel_futures=True)
        self._pool = self._make_executor()
        self._broken = False

    def shutdown(self) -> None:
        """Release the worker processes (idempotent)."""
        self._pool.shutdown(wait=True, cancel_futures=True)
