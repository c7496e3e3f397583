"""Scenario-service benchmark runner.

Fires a burst of concurrent single-seed :class:`ScenarioRequest`\\ s at
a coalescing :class:`~repro.service.ScenarioService`, times it against
the one-at-a-time ``"service"`` oracle (each request alone through the
serial ensemble), verifies the two produce bit-identical summaries
per request, and writes ``BENCH_service.json`` at the repo root::

    PYTHONPATH=src python benchmarks/run_service.py

The burst is ``groups`` compatibility groups x ``per_group`` requests:
requests within a group share scenario/fault/config and differ only in
their seed, so the batcher coalesces each group into one vectorized
lockstep batch — the service's whole economic argument.  The headline
``speedup`` is oracle seconds / coalesced seconds; the report also
carries the service's own metrics snapshot (batch occupancy, latency
percentiles, requests/sec) and a **warm-cache pass** re-submitting the
same burst, which must be served entirely from the result cache
without forming a single new batch.

``BENCH_SMOKE=1`` shrinks the burst for CI smoke lanes.
"""

import os
import time

from _emit import REPO_ROOT, write_report
from repro.engines import resolve_engine
from repro.scenarios.cache import CampaignCache
from repro.scenarios.campaign import FaultSpec
from repro.scenarios.faults import SensorDropout
from repro.scenarios.spec import ScenarioSpec
from repro.service import (
    NOMINAL_FAULT,
    ScenarioRequest,
    ScenarioService,
    execute_requests,
)
from repro.service.metrics import percentile

REPORT_PATH = REPO_ROOT / "BENCH_service.json"

#: Group recipes: each entry yields one compatibility group (requests
#: inside it coalesce; requests across entries never do, because each
#: entry's scenario is named after its group).
_GROUP_RECIPES = (
    {"measurement_sigma": 0.006, "fault": None},
    {"measurement_sigma": 0.012, "fault": None},
    {"measurement_sigma": 0.006, "fault": "dropout"},
    {"measurement_sigma": 0.02, "fault": None},
)

_DROPOUT = FaultSpec(
    name="dropout",
    faults=(SensorDropout(sensor="acc", start=30.0, duration=8.0),),
)


def build_requests(
    groups: int, per_group: int, base_seed: int = 7000
) -> list[ScenarioRequest]:
    """``groups`` compatibility groups of ``per_group`` one-seed requests.

    Every request carries a distinct seed; group membership is decided
    by the scenario, which ``group_key()`` digests.  The fault recipe
    is not part of the key (rows carry their own fault chains), so the
    dropout group coalesces apart from the 0.006 group only because
    each group's scenario has its own name: that keeps ``batches ==
    groups``.  The burst is interleaved round-robin across groups the
    way concurrent clients would arrive, so coalescing has to regroup
    them — nothing about the submission order helps it.
    """
    if not 1 <= groups <= len(_GROUP_RECIPES):
        raise ValueError(
            f"groups must be in [1, {len(_GROUP_RECIPES)}], got {groups}"
        )
    requests = []
    for index in range(groups * per_group):
        group = index % groups
        recipe = _GROUP_RECIPES[group]
        scenario = ScenarioSpec(
            name=f"service_bench_g{group}",
            profile="static_tilt",
            duration=80.0,
            profile_args=(("dwell_time", 6.0), ("slew_time", 2.0)),
            moving=False,
            measurement_sigma=recipe["measurement_sigma"],
            motion_gate_rate=None,
        )
        requests.append(
            ScenarioRequest(
                scenario=scenario,
                seeds=(base_seed + index,),
                fault=_DROPOUT if recipe["fault"] else NOMINAL_FAULT,
            )
        )
    return requests


def measure_service(groups: int = 4, per_group: int = 16) -> dict:
    """One burst: one-at-a-time oracle vs coalesced service vs warm cache."""
    requests = build_requests(groups, per_group)
    total = len(requests)

    # Baseline: each request alone through the serial oracle, with
    # per-request latencies for the percentile comparison.
    oracle = resolve_engine("service", "model")
    oracle_latencies = []
    oracle_summaries = []
    start = time.perf_counter()
    for request in requests:
        begin = time.perf_counter()
        oracle_summaries.extend(oracle([request], 1))
        oracle_latencies.append(time.perf_counter() - begin)
    oracle_seconds = time.perf_counter() - start

    # Coalesced: the whole burst submitted concurrently to one service.
    cache = CampaignCache()
    with ScenarioService(
        workers=0,
        max_batch_size=per_group,
        max_pending=total,
        cache=cache,
    ) as service:
        start = time.perf_counter()
        results = execute_requests(requests, service=service)
        coalesced_seconds = time.perf_counter() - start
        cold = service.snapshot()

        # Warm pass: the identical burst again — every request must be
        # served from the cache without forming a single new batch.
        start = time.perf_counter()
        warm_results = execute_requests(requests, service=service)
        warm_seconds = time.perf_counter() - start
        warm = service.snapshot()

    coalesced_summaries = [result.summary for result in results]
    identical = (
        oracle_summaries == coalesced_summaries
        and [result.summary for result in warm_results]
        == coalesced_summaries
    )
    warm_batches_added = warm["batches"] - cold["batches"]
    warm_all_cached = all(result.cache_hit for result in warm_results)
    return {
        "requests": total,
        "groups": groups,
        "per_group": per_group,
        "one_at_a_time_seconds": oracle_seconds,
        "coalesced_seconds": coalesced_seconds,
        "speedup": oracle_seconds / coalesced_seconds,
        "identical": bool(identical),
        "batches": cold["batches"],
        "batch_occupancy": cold["batch_occupancy"],
        "requests_per_second": total / coalesced_seconds,
        "latency_p50_seconds": cold["latency_p50_seconds"],
        "latency_p99_seconds": cold["latency_p99_seconds"],
        "one_at_a_time_p50_seconds": percentile(oracle_latencies, 0.50),
        "one_at_a_time_p99_seconds": percentile(oracle_latencies, 0.99),
        "warm_seconds": warm_seconds,
        "warm_batches_added": warm_batches_added,
        "warm_all_cached": bool(warm_all_cached),
        "warm_speedup_vs_cold": coalesced_seconds / warm_seconds,
        "cache_hit_rate": warm["cache_hit_rate"],
    }


def main() -> None:
    smoke = os.environ.get("BENCH_SMOKE", "") not in ("", "0")
    if smoke:
        result = measure_service(groups=2, per_group=8)
    else:
        result = measure_service()
    write_report(REPORT_PATH, result)
    print(
        f"{result['requests']} requests in {result['groups']} groups: "
        f"one-at-a-time {result['one_at_a_time_seconds']:.1f}s, "
        f"coalesced {result['coalesced_seconds']:.1f}s "
        f"({result['batches']} batches, occupancy "
        f"{result['batch_occupancy']:.1f}) -> "
        f"{result['speedup']:.2f}x, identical={result['identical']}; "
        f"warm {result['warm_seconds']*1e3:.0f}ms, "
        f"+{result['warm_batches_added']} batches"
    )
    print(f"wrote {REPORT_PATH}")


if __name__ == "__main__":
    main()
