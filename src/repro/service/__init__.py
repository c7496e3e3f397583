"""``repro.service`` — the async scenario-execution service.

The production-traffic front door over the lockstep/arena execution
core: a :class:`ScenarioService` accepts many concurrent
:class:`ScenarioRequest`\\ s (scenario spec + fault recipe + seeds in,
:class:`ScenarioResult` wrapping a
:class:`~repro.analysis.montecarlo.MonteCarloSummary` out), coalesces
compatible pending requests into lockstep batches through a
:class:`DynamicBatcher`, consults a
:class:`~repro.scenarios.cache.CampaignCache` (optionally disk-backed)
before ever scheduling compute, and executes batches through the
chunked arena core — in-process or across a persistent spawn-worker
pool — under a :class:`~repro.resilience.Supervisor` (``Supervisor()``
by default): deadlines, retry/backoff, pool restart, serial per-seed
fallback and poison quarantine.

Per-request results are bit-identical to executing the same request
alone through the serial oracle: per-seed RNG trees are independent
and each row applies only its own fault chain, so merging requests
only merges which rows share a stacked array.
The ``"service"`` engine registry domain pins exactly that —
``"model"`` executes one request at a time, ``"fast"`` coalesces —
under the automatic oracle harness.

Library users who want one blocking call instead of an asyncio
session should use :func:`repro.api.execute`; the service shares its
request/response types.  The request type itself lives in
:mod:`repro.scenarios.spec`, because a campaign cell is one too: a
request a campaign or ``execute`` computed is a cache hit here.
"""

from repro.scenarios.spec import NOMINAL_FAULT, ScenarioRequest
from repro.service.batcher import DynamicBatcher
from repro.service.metrics import ServiceMetrics
from repro.service.requests import (
    ScenarioResult,
    coalesce_requests,
    summarize_request,
)
from repro.service.service import (
    ScenarioService,
    execute_requests,
    run_requests_coalesced,
    run_requests_serial,
)

__all__ = [
    "DynamicBatcher",
    "NOMINAL_FAULT",
    "ScenarioRequest",
    "ScenarioResult",
    "ScenarioService",
    "ServiceMetrics",
    "coalesce_requests",
    "execute_requests",
    "run_requests_coalesced",
    "run_requests_serial",
    "summarize_request",
]
