"""Batch execution for the scenario service.

:func:`run_jobs_inline` turns a merged lockstep job list into per-seed
outcome rows — the rows both ``"ensemble"`` engines return, which the
engine-registry harness pins against each other — streaming the jobs
in the arena's seed blocks
(:data:`~repro.experiments.arena.CHUNK_SIZE`), so a batch of any size
runs in bounded memory.  The service runs it
in this process (recycling a caller-owned
:class:`~repro.experiments.arena.StateArena` across batches) or ships
it, with the batch, to a worker of the persistent pool that
``Supervisor.pool_factory`` built, through
:meth:`~repro.resilience.Supervisor.map`.  The ladder's last rung is
the serial ensemble oracle, ``resolve_engine("ensemble", "model")``,
whose rows are bit-identical.

Rows are ``(seed, outcome | None)`` in job order; ``None`` marks a
diverged seed.
"""

from __future__ import annotations

from typing import Sequence

from repro.analysis.montecarlo import EnsembleJob
from repro.experiments.arena import StateArena, iter_job_outcomes


def run_jobs_inline(
    jobs: Sequence[EnsembleJob],
    arena: StateArena | None = None,
) -> list[tuple[int, tuple | None]]:
    """The chunked lockstep core; module-level so spawn pickles it."""
    return list(iter_job_outcomes(jobs, arena=arena))
