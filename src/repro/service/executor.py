"""Batch execution backends for the scenario service.

Three ways to turn a merged lockstep job list into per-seed outcome
rows, all producing the *same rows bit for bit* — the rows both
``"ensemble"`` engines return, which the engine-registry harness pins
against each other:

- :func:`run_jobs_inline` — the chunked lockstep core in this
  process, recycling a caller-owned :class:`~repro.experiments.arena.StateArena`
  across batches;
- :class:`WorkerPool` — the same function on the library's one
  spawn-worker pool (:class:`repro.resilience.pool.WorkerPool`), kept
  for the service's lifetime so batch execution never blocks the event
  loop and pays the spawn cost once, not per batch;
- :func:`run_jobs_serial` — one serial rig per seed, the degraded
  rung the service falls back to when the pool or in-process rung
  runs out of attempts.

Rows are ``(seed, outcome | None)`` in job order; ``None`` marks a
diverged seed.
"""

from __future__ import annotations

from typing import Sequence

from repro.analysis.montecarlo import EnsembleJob, _run_job
from repro.experiments.arena import StateArena, iter_job_outcomes
from repro.resilience import pool

#: The row type every backend produces: (seed, outcome tuple or None).
Row = tuple


def run_jobs_inline(
    jobs: Sequence[EnsembleJob],
    chunk_size: int | None = None,
    arena: StateArena | None = None,
) -> list[Row]:
    """The chunked lockstep core, in this process."""
    return list(
        iter_job_outcomes(jobs, chunk_size=chunk_size, arena=arena)
    )


def run_jobs_serial(jobs: Sequence[EnsembleJob]) -> list[Row]:
    """One serial rig per seed — the service ladder's last rung.

    Bit-identical rows to the lockstep path (that is the ensemble
    engine contract), just without the stacked-array throughput.
    """
    return [(job.seed, _run_job(job)) for job in jobs]


def _pool_run_batch(
    jobs: list[EnsembleJob], chunk_size: int | None
) -> list[Row]:
    """Worker-side batch entry point; module-level so spawn pickles it."""
    return run_jobs_inline(jobs, chunk_size=chunk_size)


class WorkerPool(pool.WorkerPool):
    """The library worker pool plus the service's whole-batch call.

    :meth:`run` raises
    :class:`~concurrent.futures.process.BrokenProcessPool` when the
    pool has died (a worker was killed, the interpreter in it
    crashed); the service's supervisor restarts the pool and retries
    the batch, and degrades to :func:`run_jobs_serial` once the pool
    rung runs out of attempts.
    """

    def run(
        self,
        jobs: list[EnsembleJob],
        chunk_size: int | None = None,
        timeout: float | None = None,
    ) -> list[Row]:
        """Execute one batch on a pool worker, blocking until done.

        Called from an executor thread, never from the event loop.
        """
        return self.call(_pool_run_batch, list(jobs), chunk_size, timeout=timeout)
