"""The benchmark's four workloads, driven through the public front doors.

Each workload builds its inputs from the workload seed (scenario
definitions and routes stay fixed), runs one timed pass through
``repro.api.execute`` or a ``ScenarioService``, digests its whole output
and names the oracle re-runs that check it.  A pass always starts in a
fresh interpreter (see ``perfbench/child.py``), so nothing the program
memoizes, pools or keeps in an arena carries over between passes.

Counts (seeds, cells, bursts, instances) are scaled so that a few
passes fit one benchmark run on a 2-core machine; shapes (scenario
durations, rates, firmware slices) are the library's.  ``tiny`` sizes
are the benchmark's own test instances.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import hashlib
import math
import random
import statistics
import time

import numpy as np

from perfbench.trace import REF
from repro import api
from repro.engines import resolve_engine
from repro.experiments.table1 import static_estimator_config
from repro.resilience import Supervisor
from repro.sabre.harness import FirmwareRequest
from repro.scenarios.cache import CampaignCache
from repro.scenarios.campaign import CampaignSpec, fault_library
from repro.scenarios.spec import scenario_library
from repro.service import ScenarioService
from repro.service.requests import ScenarioRequest


@dataclasses.dataclass
class PassOutput:
    """What one timed pass produced, for the benchmark report."""

    #: Units attempted (seeds, cells, requests or instances) and failed.
    units: int
    failed: int
    #: Seeds completed (the ``seeds_per_s`` numerator) and its seconds.
    seeds: int
    rate_s: float
    #: Wall seconds of the whole timed section.
    wall_s: float
    #: Latency samples, seconds: one per request the user waited on, or
    #: the whole timed section for a batch workload.
    latencies: list[float]
    #: Digest of every output unit, by unit key.
    unit_digests: dict[str, str]
    #: Per-layer counters read from the program's own results.
    counters: dict[str, float]
    #: perf_counter send time of each request (open-loop workloads).
    sent_at: dict[str, float] = dataclasses.field(default_factory=dict)


def timed_section(tracer):
    """The timed section: the traced run's root span, if tracing."""
    return contextlib.nullcontext() if tracer is None else tracer.root()


def _derive(seed: int, name: str) -> random.Random:
    return random.Random(f"{name}/{seed}")


def _distinct(rng: random.Random, count: int) -> tuple[int, ...]:
    return tuple(rng.sample(range(1, 2**31 - 1), count))


def summary_digest(summary) -> str:
    """Bit-exact digest of a ``MonteCarloSummary`` (``None`` included)."""
    if summary is None:
        return "diverged"
    parts = (
        summary.runs,
        summary.rms_error_deg.tobytes(),
        summary.max_error_deg.tobytes(),
        float(summary.coverage_3sigma).hex(),
        float(summary.mean_exceedance).hex(),
        summary.diverged_seeds,
        summary.fallback_states,
        None if summary.anees is None else float(summary.anees).hex(),
    )
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def _row_bytes(value, index: int) -> bytes:
    if isinstance(value, dict):
        return b"".join(
            key.encode() + _row_bytes(value[key], index) for key in sorted(value)
        )
    if isinstance(value, np.ndarray):
        row = np.asarray(value[index]).astype(np.int64)
        return repr(row.shape).encode() + row.tobytes()
    return repr(value[index]).encode()


def instance_digests(program: str, payload: dict, count: int) -> dict[str, str]:
    """Digest of each of the first ``count`` firmware payload rows."""
    return {
        f"{program}/{i}": hashlib.sha256(
            b"".join(
                key.encode() + _row_bytes(payload[key], i)
                for key in sorted(payload)
            )
        ).hexdigest()
        for i in range(count)
    }


def accuracy(summaries) -> dict[str, float]:
    """The paper's accuracy figure and the filter's consistency.

    ``misalign_rms_arcsec`` is the RMS of estimate minus truth over
    axes and converged runs; ``anees_log_ratio`` is |ln(ANEES / 3)|,
    averaged over summaries (0 for a consistent 3-state filter).
    """
    live = [s for s in summaries if s is not None]
    if not live:
        return {"misalign_rms_arcsec": 0.0, "anees_log_ratio": 0.0}
    squares = sum(s.runs * float(np.sum(s.rms_error_deg**2)) for s in live)
    count = sum(s.runs * s.rms_error_deg.size for s in live)
    ratios = [abs(math.log(s.anees / 3.0)) for s in live if s.anees]
    return {
        "misalign_rms_arcsec": math.sqrt(squares / count) * 3600.0,
        "anees_log_ratio": statistics.fmean(ratios) if ratios else 0.0,
    }


class EnsembleLarge:
    """One 128-seed ``highway`` request on the lockstep engine."""

    name = "ensemble_large"

    def setup(self, seed: int, tiny: bool):
        rng = _derive(seed, self.name)
        scenario = scenario_library()["highway"]
        seeds = _distinct(rng, 2 if tiny else 128)
        return ScenarioRequest(scenario=scenario, seeds=seeds)

    def run(self, request, tracer) -> PassOutput:
        with timed_section(tracer):
            started = time.perf_counter()
            result = api.execute(request, engine="fast")
            wall = time.perf_counter() - started
        runs = len(request.seeds)
        return PassOutput(
            units=runs,
            failed=0,
            seeds=runs,
            rate_s=wall,
            wall_s=wall,
            latencies=[wall],
            unit_digests={"summary": summary_digest(result.summary)},
            counters=accuracy([result.summary]),
        )

    def oracle_jobs(self, request):
        pair = dataclasses.replace(request, seeds=request.seeds[:2])

        def run(engine):
            summary = api.execute(pair, engine=engine).summary
            return {f"pair.{engine}": summary_digest(summary)}

        return [lambda: run("model"), lambda: run("fast")]

    def oracle_checks(self, request):
        return [("pair.model", "oracle:pair.fast", 2)]


class CampaignGrid:
    """Library scenarios × three fault recipes × 2 seeds, 2 workers.

    The three fault recipes of a scenario drive the same road, so the
    9 cells resample 3 distinct trajectories (plus the shared
    calibration level) 18 times; 9 cells on 2 workers leave a tail.
    """

    name = "campaign_grid"
    scenarios = ("static_bench", "city_drive", "highway")
    faults = ("nominal", "acc_dropout_window", "lossy_burst_skew")

    def setup(self, seed: int, tiny: bool):
        rng = _derive(seed, self.name)
        library = scenario_library()
        recipes = fault_library()
        scenarios = self.scenarios[::2] if tiny else self.scenarios
        faults = self.faults[:2] if tiny else self.faults
        return CampaignSpec(
            name=self.name,
            scenarios=tuple(library[name] for name in scenarios),
            faults=tuple(recipes[name] for name in faults),
            seeds=_distinct(rng, 1 if tiny else 2),
        )

    def run(self, spec, tracer) -> PassOutput:
        with timed_section(tracer):
            started = time.perf_counter()
            result = api.execute(spec, workers=2)
            wall = time.perf_counter() - started
        cells = len(result.cells)
        failed = sum(status == "quarantined" for status in result.statuses)
        report = result.resilience
        counters = accuracy(result.summaries)
        counters.update(
            {
                "resilience.retries": report.retries if report else 0,
                "resilience.timeouts": report.timeouts if report else 0,
                "resilience.quarantined": report.quarantined if report else 0,
            }
        )
        return PassOutput(
            units=cells,
            failed=failed,
            seeds=cells * len(spec.seeds),
            rate_s=wall,
            wall_s=wall,
            latencies=[wall],
            unit_digests={
                f"cell{i}": summary_digest(summary)
                for i, summary in enumerate(result.summaries)
            },
            counters=counters,
        )

    def _ends(self, spec):
        cells = spec.cells()
        return [(0, cells[0]), (len(cells) - 1, cells[-1])]

    def oracle_jobs(self, spec):
        def run(index, cell):
            alone = dataclasses.replace(
                spec, scenarios=(cell.scenario,), faults=(cell.fault,)
            )
            summary = api.execute(alone, engine="model").summaries[0]
            return {f"cell{index}": summary_digest(summary)}

        return [
            (lambda index=index, cell=cell: run(index, cell))
            for index, cell in self._ends(spec)
        ]

    def oracle_checks(self, spec):
        return [(f"cell{i}", f"run:cell{i}", 1) for i, _ in self._ends(spec)]


@dataclasses.dataclass
class OpenLoopPlan:
    """The open-loop schedule: who is sent when."""

    requests: list[ScenarioRequest]
    #: (offset seconds, request indices) per burst.
    bursts: list[tuple[float, list[int]]]
    #: Index of the earlier request each repeat copies.
    repeat_of: dict[int, int]
    #: Requests the oracle re-runs: each group's first, the first repeat.
    oracle: list[int]


class ServiceOpenLoop:
    """Single-seed ``static_bench`` requests in bursts, open loop.

    Four compatibility groups differ in estimator σ.  Burst ``b``
    carries fresh seeds of group ``b % 4`` plus repeats of requests
    sent at least two bursts earlier; with the period above one batch
    time those repeats are cache hits (about a quarter of requests).
    The period is about 1.7 batch times on an idle host: were a slower
    host to push the batch past the period, bursts would queue behind
    each other and the tail would measure the backlog instead of the
    service.
    """

    name = "service_openloop"
    sigmas = (0.006, 0.008, 0.010, 0.012)

    def setup(self, seed: int, tiny: bool):
        rng = _derive(seed, self.name)
        bursts, fresh, repeats, period = (3, 2, 1, 1.5) if tiny else (5, 6, 3, 1.6)
        scenario = scenario_library()["static_bench"]
        configs = [static_estimator_config(sigma) for sigma in self.sigmas]
        seeds = iter(_distinct(rng, bursts * fresh))
        requests: list[ScenarioRequest] = []
        schedule: list[tuple[float, list[int]]] = []
        repeat_of: dict[int, int] = {}
        first_of_group: dict[int, int] = {}
        sent_before: list[int] = []
        for burst in range(bursts):
            group = burst % len(configs)
            indices = []
            for _ in range(fresh):
                first_of_group.setdefault(group, len(requests))
                indices.append(len(requests))
                requests.append(
                    ScenarioRequest(
                        scenario=scenario,
                        seeds=(next(seeds),),
                        estimator_config=configs[group],
                    )
                )
            if burst >= 2:
                for original in rng.sample(sent_before, repeats):
                    repeat_of[len(requests)] = original
                    indices.append(len(requests))
                    requests.append(requests[original])
            if burst >= 1:
                sent_before.extend(schedule[-1][1])
            schedule.append((burst * period, indices))
        oracle = sorted(first_of_group.values()) + [min(repeat_of)]
        plan = OpenLoopPlan(requests, schedule, repeat_of, oracle)
        service = ScenarioService(
            workers=0, cache=CampaignCache(), supervisor=Supervisor()
        )
        return plan, service

    def run(self, state, tracer) -> PassOutput:
        plan, service = state
        if tracer is not None:
            for index, request in enumerate(plan.requests):
                if index not in plan.repeat_of:
                    tracer.label(request, f"req{index}")
        with service, timed_section(tracer):
            started = time.perf_counter()
            records, late = asyncio.run(_open_loop(service, plan))
            wall = time.perf_counter() - started
            snapshot = service.snapshot()
        done = [r for r in records if r["result"] is not None]
        failed = len(records) - len(done) + sum(
            r["result"].quarantined for r in done
        )
        first_due = min(r["due"] for r in records)
        last_done = max(r["done"] for r in records)
        distinct = [
            r["result"].summary
            for index, r in enumerate(records)
            if r["result"] is not None and index not in plan.repeat_of
        ]
        counters = accuracy(distinct)
        counters.update(
            {
                "service.batches": snapshot["batches"],
                "service.occupancy": snapshot["batch_occupancy"] or 0.0,
                "service.rejected": snapshot["rejected"],
                "scenarios.cache_hit_rate": snapshot["cache_hit_rate"] or 0.0,
                "resilience.retries": snapshot["retries"],
                "resilience.timeouts": snapshot["timeouts"],
                "resilience.quarantined": snapshot["quarantined"],
                "loadgen.late_max_s": late,
            }
        )
        return PassOutput(
            units=len(records),
            failed=failed,
            seeds=len(done),
            rate_s=last_done - first_due,
            wall_s=wall,
            latencies=[r["done"] - r["due"] for r in done],
            unit_digests={
                f"req{index}": (
                    summary_digest(r["result"].summary)
                    if r["result"] is not None
                    else "failed"
                )
                for index, r in enumerate(records)
            },
            counters=counters,
            sent_at={f"req{i}": r["sent"] for i, r in enumerate(records)},
        )

    def oracle_jobs(self, state):
        plan, _ = state
        oracle = resolve_engine("service", "model")

        def run(index):
            summary = oracle([plan.requests[index]], 1)[0]
            return {f"req{index}": summary_digest(summary)}

        return [(lambda index=index: run(index)) for index in plan.oracle]

    def oracle_checks(self, state):
        plan, _ = state
        return [(f"req{i}", f"run:req{i}", 1) for i in plan.oracle]


async def _open_loop(service, plan: OpenLoopPlan):
    """Send every burst on schedule; return per-request records.

    Each request is timed from its burst's scheduled send time, so a
    stall also charges the requests queued behind it.  Returns the
    records and how late the generator ran, at most, in seconds.
    """
    loop = asyncio.get_running_loop()
    records: list[dict] = [{} for _ in plan.requests]
    tasks = []
    late = 0.0

    async def send(index: int, due: float) -> None:
        record = records[index]
        record["due"] = due
        record["sent"] = time.perf_counter()
        record["result"] = None
        try:
            record["result"] = await service.submit(plan.requests[index])
        except Exception as exc:  # a rejected or failed request is a data point
            record["error"] = repr(exc)
        record["done"] = time.perf_counter()

    origin = time.perf_counter() + 0.01
    for offset, indices in plan.bursts:
        due = origin + offset
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        late = max(late, time.perf_counter() - due)
        for index in indices:
            token = REF.set(f"req{index}")
            tasks.append(loop.create_task(send(index, due)))
            REF.reset(token)
    await asyncio.gather(*tasks)
    return records, late


class FirmwareFleet:
    """``boresight`` and ``dmu_monitor`` fleets on the batched Sabre CPU."""

    name = "firmware_fleet"
    programs = ("boresight", "dmu_monitor")
    checked = 4

    def setup(self, seed: int, tiny: bool):
        rng = _derive(seed, self.name)
        base_seed = rng.randrange(1, 2**20)
        return [
            FirmwareRequest(
                program=program,
                instances=self.checked if tiny else 512,
                packets=2 if tiny else 16,
                base_seed=base_seed,
            )
            for program in self.programs
        ]

    def run(self, requests, tracer) -> PassOutput:
        with timed_section(tracer):
            started = time.perf_counter()
            payloads = [
                api.execute(request, engine="fast").payload for request in requests
            ]
            wall = time.perf_counter() - started
        digests: dict[str, str] = {}
        failed = 0
        instructions = 0
        for request, payload in zip(requests, payloads):
            digests.update(
                instance_digests(request.program, payload, request.instances)
            )
            failed += sum(fault is not None for fault in payload["faults"])
            instructions += int(payload["instructions"].sum())
        instances = sum(request.instances for request in requests)
        return PassOutput(
            units=instances,
            failed=failed,
            seeds=instances,
            rate_s=wall,
            wall_s=wall,
            latencies=[wall],
            unit_digests=digests,
            counters={"sabre.instructions": instructions},
        )

    def oracle_jobs(self, requests):
        def run(request):
            alone = dataclasses.replace(request, instances=self.checked)
            payload = api.execute(alone, engine="model").payload
            return instance_digests(request.program, payload, self.checked)

        return [(lambda request=request: run(request)) for request in requests]

    def oracle_checks(self, requests):
        return [
            (f"{request.program}/{i}", f"run:{request.program}/{i}", 1)
            for request in requests
            for i in range(self.checked)
        ]


WORKLOADS = {
    workload.name: workload
    for workload in (
        EnsembleLarge(),
        CampaignGrid(),
        ServiceOpenLoop(),
        FirmwareFleet(),
    )
}
