"""Operational metrics of the scenario-execution service.

One mutable :class:`ServiceMetrics` per
:class:`~repro.service.service.ScenarioService`, updated only from the
service's event loop (no locking needed) and snapshotted on demand.
The snapshot is a plain dict of scalars — queue depth, batch
occupancy, cache hit rate, requests/sec, latency percentiles — so it
serializes straight into benchmark reports and logs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


def percentile(samples: list[float], quantile: float) -> float:
    """The ``quantile`` (0..1] nearest-rank percentile of ``samples``.

    Nearest-rank on the sorted samples: deterministic, no
    interpolation, exact for the small sample counts a service run
    produces.  Raises on an empty sample set — a latency percentile of
    nothing is a caller bug, not a zero.
    """
    if not samples:
        raise ValueError("no samples to take a percentile of")
    if not 0.0 < quantile <= 1.0:
        raise ValueError(f"quantile must be in (0, 1], got {quantile}")
    ordered = sorted(samples)
    rank = max(1, math.ceil(quantile * len(ordered)))
    return ordered[rank - 1]


@dataclass
class ServiceMetrics:
    """Counters and latency samples of one service instance."""

    #: Requests admitted (including ones later served from cache).
    requests: int = 0
    #: Requests completed (cache hits + executed).
    completed: int = 0
    #: Requests rejected by the bounded admission queue.
    rejected: int = 0
    #: Requests served straight from the result cache.
    cache_hits: int = 0
    #: Requests that missed the cache and went to the batcher.
    cache_misses: int = 0
    #: Lockstep batches executed.
    batches: int = 0
    #: Requests carried by those batches (occupancy numerator).
    batched_requests: int = 0
    #: Distinct jobs (seeds) carried by those batches.
    batched_jobs: int = 0
    #: Pool-rung attempts lost to a dead worker pool; the ladder
    #: restarts the pool before it retries the batch.
    pool_failures: int = 0
    #: Batches executed on the degraded serial per-seed path.
    serial_fallback_batches: int = 0
    #: Supervised attempts replayed after a transient failure.
    retries: int = 0
    #: Supervised attempts that died on their per-task deadline.
    timeouts: int = 0
    #: Batches/cells quarantined after exhausting the retry ladder.
    quarantined: int = 0
    #: perf_counter of the first admission; None until then.
    first_request_at: float | None = None
    #: perf_counter of the latest completion; None until then.
    last_completed_at: float | None = None
    #: Per-request wall latency samples, seconds, completion order.
    latencies: list[float] = field(default_factory=list)

    def note_admitted(self, now: float) -> None:
        """Count an admission at perf_counter time ``now``."""
        self.requests += 1
        if self.first_request_at is None:
            self.first_request_at = now

    def note_completed(self, latency: float, now: float) -> None:
        """Count a completion with its wall latency."""
        self.completed += 1
        self.latencies.append(latency)
        self.last_completed_at = now

    def snapshot(self, queue_depth: int = 0) -> dict:
        """The service's operational state as a dict of scalars.

        ``queue_depth`` is passed in by the service (the batcher owns
        the live pending count).  Rates are ``None`` until they have a
        denominator, so a fresh service snapshots cleanly.
        """
        occupancy = (
            self.batched_requests / self.batches if self.batches else None
        )
        admitted_lookups = self.cache_hits + self.cache_misses
        hit_rate = (
            self.cache_hits / admitted_lookups if admitted_lookups else None
        )
        throughput = None
        if (
            self.completed
            and self.first_request_at is not None
            and self.last_completed_at is not None
        ):
            elapsed = self.last_completed_at - self.first_request_at
            if elapsed > 0.0:
                throughput = self.completed / elapsed
        return {
            "queue_depth": queue_depth,
            "requests": self.requests,
            "completed": self.completed,
            "rejected": self.rejected,
            "cache_hit_rate": hit_rate,
            "batches": self.batches,
            "batch_occupancy": occupancy,
            "batched_jobs": self.batched_jobs,
            "pool_failures": self.pool_failures,
            "serial_fallback_batches": self.serial_fallback_batches,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "quarantined": self.quarantined,
            "requests_per_second": throughput,
            "latency_p50_seconds": (
                percentile(self.latencies, 0.50) if self.latencies else None
            ),
            "latency_p99_seconds": (
                percentile(self.latencies, 0.99) if self.latencies else None
            ),
        }
