"""Supervised execution: deadlines, retry/backoff, quarantine, journal.

The package turns the service/campaign failure handling from one blunt
rung (``BrokenProcessPool`` -> serial fallback) into a ladder:

1. **retry** — transient failures replay the same seed-deterministic
   work (bit-identical on success) up to ``RetryPolicy.max_attempts``;
2. **backoff** — deterministic exponential delay between attempts;
3. **deadline** — per-attempt timeouts, counted from each task's own
   start: a watchdog thread in process; on a pool, the hung worker is
   killed and the retry runs on the restarted pool;
4. **quarantine** — a task that exhausts its attempts (or fails
   permanently) is recorded with its fault string instead of sinking
   the whole run;
5. **journal resume** — a write-ahead campaign journal lets a killed
   ``run_campaign`` resume, re-running only non-completed cells.

:class:`~repro.resilience.pool.WorkerPool` is the one process pool
behind the library's two parallel paths, campaign cells and service
batches, and :meth:`Supervisor.map <repro.resilience.supervisor.Supervisor.map>`
the only code that submits work to it: both paths build their pool
with ``Supervisor.pool_factory`` and retry, time out and restart it
there, so the chaos harness reaches every pooled task.  This package
depends on nothing above :mod:`repro.errors`.

:mod:`repro.resilience.chaos` is the proof harness: seeded schedules
that kill workers mid-flight, delay tasks past deadlines, raise
transient/permanent faults, and corrupt cache files, so the test
suite exercises every rung reproducibly.
"""

from repro.resilience.chaos import (
    CHAOS_EVENTS,
    ChaosPermanentError,
    ChaosPool,
    ChaosRunner,
    ChaosSchedule,
    ChaosTransientError,
    corrupt_cache_file,
    sample_chaos_schedule,
)
from repro.resilience.journal import CampaignJournal, JournalRecord
from repro.resilience.pool import WorkerPool
from repro.resilience.supervisor import (
    RetryPolicy,
    SupervisedOutcome,
    Supervisor,
    classify_error,
)

__all__ = [
    "CHAOS_EVENTS",
    "CampaignJournal",
    "ChaosPermanentError",
    "ChaosPool",
    "ChaosRunner",
    "ChaosSchedule",
    "ChaosTransientError",
    "JournalRecord",
    "RetryPolicy",
    "SupervisedOutcome",
    "Supervisor",
    "WorkerPool",
    "classify_error",
    "corrupt_cache_file",
    "sample_chaos_schedule",
]
