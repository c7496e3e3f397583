"""The state arena and the chunked lockstep scheduler.

Two pieces the whole batch execution path now rides on:

:class:`StateArena`
    One reusable pool of named, contiguous scratch buffers.  Every
    ``(R_chunk, …)`` array the lockstep pipeline needs — sensor
    streams, vibration truth, covariance stacks, monitors, fallback
    timelines — is taken from the arena instead of allocated per run,
    so streaming a million seeds through the engines allocates like
    streaming one chunk.

:func:`iter_job_outcomes`
    Streams an arbitrary job list through the lockstep engine in
    seed-block chunks, recycling one arena across chunks and yielding
    each job's ``(seed, outcome | None)`` row before the next chunk
    overwrites the scratch.  The ``"ensemble"`` fast engine and the
    scenario service both run on it; the rows are reduced afterwards,
    all at once, by :func:`~repro.analysis.montecarlo.summarize_rows`.

Chunking is bit-identical to the monolithic whole-``R`` run at every
chunk size **by construction**: each seed's RNG tree is independent
(:mod:`repro.rng` spawns per-seed children), so partitioning the job
list only partitions which seeds share a stacked array — no draw
order, no elementwise expression and no reduction changes.  The
engine-registry harness therefore pins the chunked path against the
serial oracle for free, and ``tests/test_arena.py`` compares the rows
seed by seed at explicit chunk sizes (including ``R`` not divisible
by the chunk).

Buffer-lifetime rule: a view returned by :meth:`StateArena.take` is
valid until the *next* ``take`` of the same slot name — i.e. for one
chunk.  Anything that must outlive the chunk (per-run outcome rows,
result DCMs, diverged flags) must be copied out before the next chunk
starts; the ensemble layers do exactly that.
"""

from __future__ import annotations

from math import prod
from typing import Iterator, Sequence

import numpy as np

from repro.errors import ConfigurationError

#: Seed-block size the lockstep engines stream by when the caller
#: doesn't pick one.  Large enough that the per-chunk Python glue
#: (stream, calibration and estimator setup) amortizes to noise,
#: small enough that the working set stays a few GB at the default
#: protocol lengths regardless of total R.
DEFAULT_CHUNK_SIZE = 512


class StateArena:
    """A pool of named, reusable, contiguous scratch arrays.

    ``take(name, shape, dtype)`` returns a C-contiguous view of a flat
    backing buffer dedicated to ``name``, growing the buffer when the
    request outgrows it and reusing it otherwise.  Contents are
    **not** cleared between takes — callers own every element they
    read (use :meth:`zeros` for a cleared view).  Taking a slot again
    invalidates the previous view of that slot; see the module
    docstring for the lifetime rule.
    """

    def __init__(self) -> None:
        self._slots: dict[str, np.ndarray] = {}

    def take(
        self,
        name: str,
        shape: tuple[int, ...] | int,
        dtype: np.dtype | type = np.float64,
    ) -> np.ndarray:
        """A contiguous ``shape`` view of the slot's backing buffer."""
        if not name:
            raise ConfigurationError("arena slot needs a name")
        if isinstance(shape, int):
            shape = (shape,)
        count = prod(shape)
        dtype = np.dtype(dtype)
        backing = self._slots.get(name)
        if backing is None or backing.size < count or backing.dtype != dtype:
            backing = np.empty(count, dtype=dtype)
            self._slots[name] = backing
        return backing[:count].reshape(shape)

    def zeros(
        self,
        name: str,
        shape: tuple[int, ...] | int,
        dtype: np.dtype | type = np.float64,
    ) -> np.ndarray:
        """Like :meth:`take`, but the view is zero-filled."""
        view = self.take(name, shape, dtype)
        view[...] = 0
        return view

    @property
    def nbytes(self) -> int:
        """Total bytes currently backing the pool."""
        return sum(buf.nbytes for buf in self._slots.values())

    @property
    def slot_names(self) -> tuple[str, ...]:
        """The slot names allocated so far, sorted."""
        return tuple(sorted(self._slots))


def iter_chunks(
    items: Sequence, chunk_size: int
) -> Iterator[list]:
    """Partition ``items`` into order-preserving blocks of ``chunk_size``.

    The last block is short when ``len(items)`` is not a multiple of
    ``chunk_size``.
    """
    if chunk_size < 1:
        raise ConfigurationError(
            f"chunk_size must be >= 1, got {chunk_size}"
        )
    for start in range(0, len(items), chunk_size):
        yield list(items[start : start + chunk_size])


def iter_job_outcomes(
    jobs: Sequence,
    chunk_size: int | None = None,
    arena: StateArena | None = None,
) -> Iterator[tuple[int, tuple | None]]:
    """Yield ``(seed, outcome)`` per job, in job order, chunk by chunk.

    The per-job view of the chunked lockstep core: each seed-block
    chunk runs as one stacked ensemble drawing its ``(R_chunk, …)``
    scratch from ``arena`` and its truth from the per-process
    :func:`~repro.vehicle.trajectory.shared_sample` memo (chunks do not
    resample it), and every job's per-run outcome row — the
    exact ``(error_deg, covered, exceedance, hold_ticks,
    three_sigma_deg)`` tuple the serial oracle's ``_run_job`` produces,
    bit for bit — is yielded before the next chunk overwrites the
    scratch.  A diverged run yields ``(seed, None)``, mirroring the
    serial engine's masking.

    This is the splitting point the scenario service's request
    coalescing rides on: because per-seed RNG trees are independent
    and each row applies only its own fault chain, the rows of a
    merged many-request batch are identical to the rows
    each request would produce alone, so regrouping them per request
    is bit-exact by construction.

    Callers must have validated the job list already (homogeneity)
    — this function only partitions and executes.
    """
    # Imported lazily: batch_protocol sits on top of this module, and
    # montecarlo imports the protocol layer — a module-level import in
    # either direction would be circular at registry load.
    from repro.experiments.batch_protocol import _ensemble_for_jobs

    if not jobs:
        raise ConfigurationError("need at least one job")
    if chunk_size is None:
        chunk_size = DEFAULT_CHUNK_SIZE
    if chunk_size < 1:
        raise ConfigurationError(
            f"chunk_size must be >= 1, got {chunk_size}"
        )
    if arena is None:
        arena = StateArena()
    for chunk in iter_chunks(jobs, chunk_size):
        ensemble = _ensemble_for_jobs(chunk, arena=arena)
        rows = iter(ensemble.outcomes())
        for r, seed in enumerate(ensemble.seeds):
            if ensemble.result.diverged[r]:
                yield seed, None
            else:
                yield seed, next(rows)
