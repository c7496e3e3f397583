"""The benchmark's own checks, on a tiny instance of every workload.

Each workload runs twice, traced, each time in a fresh interpreter —
the way the benchmark runs it — and the records are checked for:

- accounting: on every timeline the spans' self and wait times add up
  to the timeline's root spans, and no span has negative self or wait
  time, so nothing is counted twice;
- coverage: every per-layer metric in ``BENCHMARK.json`` is reported,
  and the ones on the workload's path are non-zero;
- repeatability: the counts later changes may cite as evidence repeat
  exactly between the two runs.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from perfbench.run import layer_values, run_child
from perfbench.trace import analyze, timeline_balance

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())

_BORESIGHT_PATH = (
    "vehicle.sample_s",
    "vehicle.sample_calls",
    "sensors.streams_s",
    "sensors.sense_s",
    "fusion.calibrate_s",
    "fusion.reconstruct_s",
    "fusion.filter_s",
    "geometry.orthonormalize_s",
    "geometry.orthonormalize_calls",
    "experiments.chunks",
    "experiments.chunk_s",
    "experiments.arena_mib",
    "analysis.summarize_s",
    "misalign_rms_arcsec",
    "anees_log_ratio",
)

#: Per-layer metrics that must be non-zero on each workload's path.
ON_PATH = {
    "ensemble_large": _BORESIGHT_PATH
    + ("vehicle.vibration_s", "api.execute_s", "api.self_s"),
    "campaign_grid": _BORESIGHT_PATH
    + (
        "vehicle.vibration_s",
        "scenarios.faults_s",
        "scenarios.campaign.cell_p50_s",
        "scenarios.campaign.first_cell_start_s",
        "scenarios.campaign.pool_busy_frac",
        "scenarios.campaign.tail_idle_s",
        "api.execute_s",
        "api.self_s",
    ),
    "service_openloop": _BORESIGHT_PATH
    + (
        "scenarios.digest_s",
        "scenarios.digest_calls",
        "scenarios.cache_hit_rate",
        "scenarios.cache_lookup_s",
        "service.queue_wait_p50_s",
        "service.batch_p50_s",
        "service.batches",
        "service.occupancy",
        "service.coalesce_s",
        "service.regroup_s",
        "loadgen.late_max_s",
    ),
    "firmware_fleet": (
        "sabre.run_cycles_s",
        "sabre.instructions",
        "sabre.ns_per_instr",
        "sabre.peripheral_s",
        "sabre.peripheral_calls",
        "sabre.fpu_s",
        "sabre.link_s",
        "comm.stream_build_s",
        "api.execute_s",
        "api.self_s",
    ),
}

#: Counts that must repeat exactly between runs of the same inputs.
REPEATED = ("vehicle.sample_calls", "service.batches", "sabre.instructions")


def _traced_run(workload: str) -> tuple[dict, list]:
    record, _ = run_child(
        ["--workload", workload, "--seed", "5", "--mode", "run",
         "--trace", "1", "--tiny"],
        deadline=time.perf_counter() + 300,
    )
    dump = ROOT / record["trace"]["file"]
    rows = [tuple(json.loads(line)) for line in dump.read_text().splitlines()]
    return record, rows


@pytest.fixture(scope="module", params=sorted(ON_PATH))
def runs(request):
    return request.param, [_traced_run(request.param) for _ in range(2)]


def test_self_and_wait_times_add_up_to_the_roots(runs):
    _, pair = runs
    for record, rows in pair:
        spans = analyze(rows)
        balance = timeline_balance(spans)
        assert balance == record["trace"]["balance"]
        for timeline in balance.values():
            assert timeline["negative_spans"] == 0
            assert timeline["accounted_ns"] == timeline["roots_ns"]
        layers = record["trace"]["layers"]
        accounted = sum(row["self_s"] + row["wait_s"] for row in layers.values())
        roots = sum(t["roots_ns"] for t in balance.values()) / 1e9
        assert accounted == pytest.approx(roots, abs=1e-6)
        trace = record["trace"]
        main = sum(
            row["self_s"] + row["wait_s"]
            for name, row in layers.items()
            if name != "bench"
        )
        if len(balance) == 1:
            # One timeline: the layers and the root's own time are the root.
            assert main + trace["root_self_s"] == pytest.approx(
                trace["root_s"], abs=1e-6
            )


def test_every_metric_on_the_path_is_reported(runs):
    workload, pair = runs
    names = [spec["name"] for spec in MANIFEST["per_layer"]]
    for record, _ in pair:
        values = layer_values(record, [])
        assert set(names) <= set(values)
        missing = [name for name in ON_PATH[workload] if not values[name]]
        assert not missing, f"{workload}: zero on its own path: {missing}"


def test_counts_repeat_exactly(runs):
    _, pair = runs
    (first, _), (second, _) = pair
    a, b = layer_values(first, []), layer_values(second, [])
    assert [a[name] for name in REPEATED] == [b[name] for name in REPEATED]
    assert first["digest"] == second["digest"]
