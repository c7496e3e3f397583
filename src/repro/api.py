"""``repro.api`` — the unified execution façade.

One front door over every execution path the library grew: build a
typed request, call :func:`execute`, get a typed result.

- a :class:`~repro.service.requests.ScenarioRequest` routes to the
  ``"ensemble"`` engine domain (the serial per-seed oracle or the
  chunked lockstep path) and returns a
  :class:`~repro.service.requests.ScenarioResult`;
- a :class:`~repro.scenarios.campaign.CampaignSpec` routes to the
  ``"campaign"`` domain (supervised grid execution with per-cell
  cache stitching, cells optionally spread over a worker pool) and
  returns a :class:`~repro.scenarios.campaign.CampaignResult`;
- a :class:`~repro.sabre.harness.FirmwareRequest` routes to the
  ``"sabre"`` domain (serial firmware oracle, or the batched
  SIMD-over-instances CPU) and returns a
  :class:`~repro.sabre.harness.FirmwareResult`.

Every request type takes one path through :func:`execute`: the knobs
are checked once, before any work, then the cache is consulted, the
engine runs, the result is stored and the result record built.  The
knobs are spelled the same across request types — and across the
legacy entry points
(:func:`~repro.analysis.montecarlo.run_monte_carlo_static`,
:func:`~repro.analysis.montecarlo.run_monte_carlo_dynamic`,
:func:`~repro.scenarios.campaign.run_campaign`), which are now thin
shims over this module.  The seed-block size is not one of them: the
lockstep core streams seeds in blocks of
:data:`~repro.experiments.arena.CHUNK_SIZE`, which no result bit
depends on.

``engine``
    A registry name for the request's domain, or ``"auto"`` (always
    the ``"fast"`` engine).
``cache``
    A :class:`~repro.scenarios.cache.CampaignCache` consulted before
    executing and updated after — scenario and firmware requests are
    cached whole, campaign grids per cell.
``workers`` / ``supervisor`` / ``journal``
    Campaign knobs: ``workers > 1`` spreads the cells over a worker
    pool (``"fast"`` engine only — the ``"model"`` campaign engine is
    flagged ``single_process``); ``supervisor`` is the
    :class:`~repro.resilience.Supervisor` every campaign runs under
    (``Supervisor()`` by default) and ``journal`` an optional
    crash-resumable write-ahead journal.  Scenario and firmware
    requests run in one process and refuse all three with one rule,
    before any trajectory, pool or journal file exists.

Many *concurrent* requests belong to the asyncio service
(:class:`repro.service.ScenarioService`), which adds coalescing,
backpressure and metrics on top of the same request/result types;
:func:`execute` is the one-call blocking path.
"""

from __future__ import annotations

import time

from repro.analysis.montecarlo import MonteCarloSummary, summarize_rows
from repro.engines import resolve_engine
from repro.errors import ConfigurationError
from repro.sabre.harness import FirmwareRequest, FirmwareResult
from repro.scenarios.cache import CampaignCache
from repro.scenarios.campaign import (
    CampaignResult,
    CampaignSpec,
    _run_cells_supervised,
)
from repro.service.requests import ScenarioRequest, ScenarioResult

__all__ = [
    "CampaignResult",
    "CampaignSpec",
    "FirmwareRequest",
    "FirmwareResult",
    "MonteCarloSummary",
    "ScenarioRequest",
    "ScenarioResult",
    "execute",
]

#: The engine domain of each request type.
_DOMAINS = {
    ScenarioRequest: "ensemble",
    CampaignSpec: "campaign",
    FirmwareRequest: "sabre",
}


def _check(request, engine, workers, supervisor, journal):
    """Resolve the engine and validate every knob.

    The one check :func:`execute` makes, before any trajectory, pool
    or journal file exists.  Returns ``(engine name, implementation)``.
    """
    domain = next(
        (d for kind, d in _DOMAINS.items() if isinstance(request, kind)), None
    )
    if domain is None:
        raise ConfigurationError(
            f"execute() takes a ScenarioRequest, a CampaignSpec or a "
            f"FirmwareRequest, got {type(request).__name__}"
        )
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    if engine == "auto":
        engine = "fast"
    impl = resolve_engine(domain, engine)
    if domain != "campaign" and (
        workers != 1 or supervisor is not None or journal is not None
    ):
        raise ConfigurationError(
            f"{type(request).__name__} is single-process: it runs in one "
            "process, so it takes no workers, supervisor or journal "
            "(campaign knobs: CampaignSpec, or ScenarioService for "
            "concurrent requests)"
        )
    if workers != 1 and getattr(impl, "single_process", False):
        raise ConfigurationError(
            f"engine={engine!r} is single-process: it runs in one "
            "process, so use workers=1 (cell sharding belongs to "
            "engine='fast')"
        )
    return engine, impl


def execute(
    request: ScenarioRequest | CampaignSpec | FirmwareRequest,
    *,
    engine: str = "auto",
    workers: int = 1,
    cache: CampaignCache | None = None,
    supervisor=None,
    journal=None,
):
    """Execute one typed request and return its typed result.

    The single blocking entry point, one path for every request type
    (see the module docstring for the routing and the knob
    semantics): check the knobs once, then look up the cache, run the
    engine, store the result and build the result record.  Scenario
    and firmware requests are cached whole; campaigns are cached per
    cell, under the supervisor.  A
    :class:`~repro.service.requests.ScenarioRequest` whose every seed
    diverges raises :class:`~repro.errors.ConfigurationError` here,
    before anything is cached, and so does a cache hit holding that
    verdict (the legacy ensemble behavior — the service and campaign
    paths report, and cache, ``None`` summaries instead, because they
    aggregate many units).

    ``workers`` spreads a campaign's cells over pool processes,
    ``supervisor`` replaces the campaign path's default
    ``Supervisor()`` (per-cell deadlines, retry/backoff, quarantine —
    see :mod:`repro.resilience`) and ``journal`` adds its
    crash-resumable write-ahead record; the other request types run
    in one process and reject all three.
    """
    engine, impl = _check(request, engine, workers, supervisor, journal)
    if isinstance(request, CampaignSpec):
        cells = request.cells()
        summaries, statuses, faults, report = _run_cells_supervised(
            cells,
            engine=engine,
            workers=workers,
            supervisor=supervisor,
            journal=journal,
            cache=cache,
        )
        return CampaignResult(
            spec=request,
            cells=cells,
            summaries=summaries,
            statuses=statuses,
            cell_faults=faults,
            resilience=report,
        )
    started = time.perf_counter()
    hit, value = (False, None) if cache is None else cache.lookup(request)
    if not hit:
        if isinstance(request, ScenarioRequest):
            value = summarize_rows(impl(request.jobs()))
        else:
            value = impl(request)
    if value is None and isinstance(request, ScenarioRequest):
        raise ConfigurationError(
            f"every run diverged (seeds {request.seeds}); "
            "nothing to summarize"
        )
    if not hit and cache is not None:
        cache.store(request, value)
    if isinstance(request, ScenarioRequest):
        result_type, units = ScenarioResult, 1
    else:
        result_type, units = FirmwareResult, request.instances
    return result_type(
        request,
        value,
        cache_hit=hit,
        source="cache" if hit else "direct",
        batch_size=0 if hit else units,
        latency_seconds=time.perf_counter() - started,
    )
