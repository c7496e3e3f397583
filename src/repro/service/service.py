"""The asyncio scenario-execution service and its registered engines.

:class:`ScenarioService` is the tentpole: an asyncio front door that
accepts many concurrent :class:`~repro.service.requests.ScenarioRequest`\\ s
and serves each a :class:`~repro.service.requests.ScenarioResult`
whose summary is **bit-identical** to running that request alone
through the serial oracle.  The request lifecycle:

1. **admit** — :meth:`ScenarioService.submit` consults the result
   cache (a :class:`~repro.scenarios.cache.CampaignCache`, optionally
   disk-backed); a hit returns immediately without touching compute.
2. **coalesce** — misses queue in the :class:`~repro.service.batcher.DynamicBatcher`
   under their compatibility key (scenario, misalignment, estimator
   tuning — not the fault recipe); a group flushes as one batch at
   ``max_batch_size`` or after ``max_wait``.  A full admission queue
   rejects with :class:`~repro.errors.ServiceOverloadError`.  Every
   request of a flushed group joins its batch, as one lockstep row
   per distinct ``(seed, fault chain)``: nothing is deferred.
3. **execute** — the batch's merged job list runs through the chunked
   lockstep core (:func:`~repro.service.executor.run_jobs_inline`):
   in-process (``workers=0``) on a dedicated dispatch thread recycling
   one :class:`~repro.experiments.arena.StateArena`, or on a persistent
   spawn pool built by the supervisor's ``pool_factory`` (``workers >=
   1``), always through :meth:`~repro.resilience.Supervisor.map` — the
   ladder campaign cells climb too.  A dead pool is restarted and the
   batch retried; a batch whose pool rung runs out of attempts falls
   back to the serial ensemble oracle, and one whose serial rung fails
   too resolves quarantined — recorded in the metrics, never an
   outage.
4. **regroup** — the batch's outcome rows, keyed by ``(seed, fault
   chain)``, split back into one summary per request (the same
   :func:`~repro.analysis.montecarlo.summarize_rows` every engine
   caller uses), results are cached, futures resolve.

The ``"service"`` registry domain pins the whole pipeline under the
automatic oracle harness: ``"model"`` executes requests one at a time
through the serial ensemble oracle, ``"fast"`` routes them through a
coalescing service instance, and the two must agree bit for bit.
"""

from __future__ import annotations

import asyncio
import functools
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Sequence

from repro.analysis.montecarlo import MonteCarloSummary, summarize_rows
from repro.engines import register_engine, resolve_engine
from repro.errors import ConfigurationError
from repro.experiments.arena import StateArena
from repro.resilience.supervisor import Supervisor
from repro.scenarios.cache import CampaignCache
from repro.service.batcher import DynamicBatcher, PendingRequest
from repro.service.executor import run_jobs_inline
from repro.service.metrics import ServiceMetrics
from repro.service.requests import (
    ScenarioRequest,
    ScenarioResult,
    coalesce_requests,
    summarize_request,
)


class ScenarioService:
    """Async scenario execution with coalescing, caching and backpressure.

    ``workers=0`` (the default) executes batches in-process on one
    dispatch thread; ``workers >= 1`` runs them on a persistent
    spawn-worker pool of that size, built by the supervisor's
    ``pool_factory``, with the dispatch thread count matching so
    independent groups can occupy independent workers.
    ``cache`` is consulted before scheduling and updated after every
    execution; share one instance (or one ``cache_dir``) across
    services to reuse results across sessions and processes.

    Every batch runs under ``supervisor`` (``Supervisor()`` when none
    is passed, as for campaigns) and its
    :class:`~repro.resilience.RetryPolicy` — per-attempt deadlines,
    deterministic backoff between retries, pool restart between pool
    attempts, serial fallback when the pool rung quarantines, and
    finally a *quarantined* result (``summary=None``,
    ``source="quarantined"``, fault string attached) instead of the
    batch's exception sinking every request in it.

    Use as a context manager or call :meth:`close` — the dispatch
    threads and the worker pool are real OS resources.
    """

    def __init__(
        self,
        workers: int = 0,
        max_batch_size: int = 64,
        max_wait: float = 0.002,
        max_pending: int = 256,
        cache: CampaignCache | None = None,
        supervisor: Supervisor | None = None,
    ) -> None:
        if workers < 0:
            raise ConfigurationError(
                f"workers must be >= 0, got {workers}"
            )
        self.metrics = ServiceMetrics()
        self._cache = cache
        self._supervisor = supervisor if supervisor is not None else Supervisor()
        self._arena = StateArena()
        self._pool = (
            self._supervisor.pool_factory(workers) if workers >= 1 else None
        )
        self._dispatch = ThreadPoolExecutor(
            max_workers=max(1, workers),
            thread_name_prefix="scenario-service",
        )
        self._batcher = DynamicBatcher(
            self._execute_batch,
            max_batch_size=max_batch_size,
            max_wait=max_wait,
            max_pending=max_pending,
        )
        self._closed = False

    @property
    def cache(self) -> CampaignCache | None:
        """The result cache this service consults, if any."""
        return self._cache

    def snapshot(self) -> dict:
        """The live metrics snapshot (includes the admission depth)."""
        return self.metrics.snapshot(queue_depth=self._batcher.pending)

    async def submit(self, request: ScenarioRequest) -> ScenarioResult:
        """Admit one request and await its result.

        Raises :class:`~repro.errors.ServiceOverloadError` when the
        admission queue is full.  Execution errors do not raise: a
        batch that exhausts the supervised ladder resolves as a
        quarantined result.
        """
        if self._closed:
            raise ConfigurationError("service is closed")
        admitted_at = time.perf_counter()
        self.metrics.note_admitted(admitted_at)
        if self._cache is not None:
            hit, summary = self._cache.lookup(request)
            if hit:
                self.metrics.cache_hits += 1
                now = time.perf_counter()
                latency = now - admitted_at
                self.metrics.note_completed(latency, now)
                return ScenarioResult(
                    request=request,
                    summary=summary,
                    cache_hit=True,
                    source="cache",
                    batch_size=0,
                    latency_seconds=latency,
                )
            self.metrics.cache_misses += 1
        future = asyncio.get_running_loop().create_future()
        entry = PendingRequest(
            request=request, future=future, admitted_at=admitted_at
        )
        try:
            self._batcher.add(request.group_key(), entry)
        except Exception:
            self.metrics.rejected += 1
            raise
        return await future

    async def drain(self) -> None:
        """Flush and finish everything queued right now."""
        await self._batcher.drain()

    def close(self) -> None:
        """Release the dispatch threads and the worker pool."""
        if self._closed:
            return
        self._closed = True
        self._dispatch.shutdown(wait=True)
        if self._pool is not None:
            self._pool.shutdown()

    def __enter__(self) -> ScenarioService:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _run_batch_sync(self, jobs: list) -> tuple[list | None, str, int, str | None]:
        """The resilience ladder for one merged batch, on a dispatch thread.

        Returns ``(rows, source, attempts, fault)``.  The primary rung
        (pool or in-process lockstep) is one :meth:`Supervisor.map`
        call over the batch; if it quarantines, the serial ensemble
        oracle gets its own supervised attempts (deadline off — the
        last resort optimizes for completing, and retries stay
        bit-identical replays either way); if that quarantines too,
        ``rows`` is ``None`` and the batch is reported quarantined
        instead of raising.
        """
        supervisor = self._supervisor
        task = run_jobs_inline
        if self._pool is not None:
            source = "pool"
        else:
            source = "coalesced"
            # In process there is one dispatch thread, so the arena
            # serves one batch at a time.  Under a deadline the
            # watchdog thread survives a timeout; a fresh arena per
            # attempt keeps a zombie attempt from racing the retry's
            # buffers.
            if supervisor.policy.deadline is None:
                task = functools.partial(task, arena=self._arena)
        [outcome] = supervisor.map(task, [jobs], pool=self._pool)
        self.metrics.retries += outcome.retries
        self.metrics.timeouts += outcome.timeouts
        self.metrics.pool_failures += outcome.pool_failures
        if outcome.completed:
            return outcome.value, source, outcome.attempts, None
        attempts = outcome.attempts
        self.metrics.serial_fallback_batches += 1
        oracle = resolve_engine("ensemble", "model")
        fallback = supervisor.run(
            lambda: oracle(jobs),
            label="serial-batch",
            enforce_deadline=False,
        )
        self.metrics.retries += fallback.retries
        self.metrics.timeouts += fallback.timeouts
        attempts += fallback.attempts
        if fallback.completed:
            return fallback.value, "serial-fallback", attempts, None
        self.metrics.quarantined += 1
        return None, "quarantined", attempts, fallback.fault or outcome.fault

    async def _execute_batch(self, batch: list[PendingRequest]) -> None:
        """Flush callback: run one compatibility group's batch."""
        loop = asyncio.get_running_loop()
        requests = [entry.request for entry in batch]
        try:
            jobs, merged, keys = coalesce_requests(requests)
        except Exception as exc:
            for entry in batch:
                if not entry.future.done():
                    entry.future.set_exception(exc)
            return
        self.metrics.batches += 1
        self.metrics.batched_requests += len(merged)
        self.metrics.batched_jobs += len(jobs)
        try:
            rows, source, attempts, fault = await loop.run_in_executor(
                self._dispatch, self._run_batch_sync, jobs
            )
            outcome_by_row = dict(zip(keys, (out for _, out in rows or ())))
            for index in merged:
                entry = batch[index]
                if rows is None:
                    # Quarantined: no summary exists and none may be
                    # cached — a quarantine is an execution-stack
                    # verdict, not a property of the request.
                    summary = None
                else:
                    summary = summarize_request(
                        entry.request, outcome_by_row
                    )
                    if self._cache is not None:
                        self._cache.store(entry.request, summary)
                now = time.perf_counter()
                latency = now - entry.admitted_at
                self.metrics.note_completed(latency, now)
                if not entry.future.done():
                    entry.future.set_result(
                        ScenarioResult(
                            request=entry.request,
                            summary=summary,
                            cache_hit=False,
                            source=source,
                            batch_size=len(merged),
                            latency_seconds=latency,
                            attempts=attempts,
                            fault=fault,
                        )
                    )
        except Exception as exc:
            for index in merged:
                if not batch[index].future.done():
                    batch[index].future.set_exception(exc)


def execute_requests(
    requests: Sequence[ScenarioRequest],
    workers: int = 0,
    max_batch_size: int | None = None,
    max_wait: float = 0.002,
    cache: CampaignCache | None = None,
    service: ScenarioService | None = None,
    supervisor: Supervisor | None = None,
) -> list[ScenarioResult]:
    """Submit ``requests`` concurrently and block for all results.

    The synchronous doorway for code without an event loop: spins up
    ``asyncio``, submits every request at once (so compatible ones
    coalesce maximally), and returns results in request order.  Pass
    ``service`` to reuse a long-lived instance (its pool, arena, cache
    and metrics survive across calls); otherwise a service is built
    from the keyword arguments and closed before returning —
    ``max_batch_size`` then defaults to the request count, and the
    admission queue is sized to admit everything.
    """
    requests = list(requests)
    if not requests:
        raise ConfigurationError("need at least one request")
    owned = service is None
    if owned:
        service = ScenarioService(
            workers=workers,
            max_batch_size=max_batch_size or len(requests),
            max_wait=max_wait,
            max_pending=len(requests),
            cache=cache,
            supervisor=supervisor,
        )
    elif supervisor is not None:
        raise ConfigurationError(
            "pass the supervisor when constructing the service, not "
            "alongside a reused instance"
        )

    async def _session() -> list[ScenarioResult]:
        return list(
            await asyncio.gather(
                *(service.submit(request) for request in requests)
            )
        )

    try:
        return asyncio.run(_session())
    finally:
        if owned:
            service.close()


@register_engine(
    "service",
    "model",
    oracle=True,
    description="requests one at a time through the serial ensemble oracle",
)
def run_requests_serial(
    requests: list[ScenarioRequest], workers: int = 1
) -> list[MonteCarloSummary | None]:
    """The ``"service"`` domain contract on the oracle path.

    Engines take the request list plus a ``workers`` count and return
    one summary (or ``None`` = every seed diverged) per request, in
    request order.  The oracle runs each request alone through the
    serial per-seed ensemble oracle — exactly the semantics the
    coalescing service must reproduce bit for bit.
    """
    if workers != 1:
        raise ConfigurationError(
            "the one-at-a-time service oracle is single-process; "
            "use workers=1 (pool execution belongs to engine='fast')"
        )
    oracle = resolve_engine("ensemble", "model")
    return [summarize_rows(oracle(request.jobs())) for request in requests]


@register_engine(
    "service",
    "fast",
    description="coalesced batches through a ScenarioService instance",
)
def run_requests_coalesced(
    requests: list[ScenarioRequest], workers: int = 1
) -> list[MonteCarloSummary | None]:
    """Requests through a coalescing service, summaries in request order.

    ``workers=1`` executes batches in-process (the service's
    ``workers=0`` mode — there is no point paying spawn cost for the
    registry contract's single-worker case); ``workers > 1`` uses a
    persistent spawn pool of that size.  Bit-identical to the oracle
    for any ``workers`` because batch execution rides the chunked
    lockstep core and regrouping is per-seed exact.
    """
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    results = execute_requests(
        requests, workers=0 if workers == 1 else workers
    )
    return [result.summary for result in results]
