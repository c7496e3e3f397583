"""Campaign engine benchmark runner.

Times a fault-injection campaign grid on the single-process lockstep
path against the cell-sharded spawn pool (``workers > 1``), verifies
the two produce bit-identical cell summaries, and writes
``BENCH_campaign.json`` at the repo root::

    PYTHONPATH=src python benchmarks/run_campaign.py

The headline ``speedup`` is serial seconds / sharded seconds for the
same grid; ``cells_per_second`` rides along for both paths.  The
sharded run uses one worker per core this process may run on, and the
report records that ``cores`` count.  Shard workers are spawned
processes, so this module must be run as a real script (the
``__main__`` guard below is load-bearing) —
``benchmarks/bench_campaign.py`` runs the same measurement under
pytest with floor assertions.
"""

import os
import time

from _emit import REPO_ROOT, write_report
from repro.scenarios.campaign import (
    CampaignSpec,
    fault_library,
    run_campaign,
    scenario_library,
)

REPORT_PATH = REPO_ROOT / "BENCH_campaign.json"

#: The cores this process may run on: the sharded run's worker count.
CORES = len(os.sched_getaffinity(0)) or os.cpu_count() or 1


def build_spec(scenario_count: int, fault_count: int, seeds: int) -> CampaignSpec:
    """A benchmark grid drawn from the built-in corpus and recipes."""
    scenarios = tuple(scenario_library().values())[:scenario_count]
    faults = tuple(fault_library().values())[:fault_count]
    return CampaignSpec(
        name="campaign_bench",
        scenarios=scenarios,
        faults=faults,
        seeds=tuple(range(930, 930 + seeds)),
    )


def measure_campaign(
    scenario_count: int = 3,
    fault_count: int = 4,
    seeds: int = 4,
    workers: int = CORES,
) -> dict:
    """One grid, serial vs sharded, with the bit-identity verdict."""
    spec = build_spec(scenario_count, fault_count, seeds)
    cells = len(spec.cells())

    start = time.perf_counter()
    serial = run_campaign(spec, engine="fast", workers=1)
    serial_seconds = time.perf_counter() - start

    start = time.perf_counter()
    sharded = run_campaign(spec, engine="fast", workers=workers)
    sharded_seconds = time.perf_counter() - start

    identical = (
        serial.summaries == sharded.summaries
        and serial.classifications() == sharded.classifications()
    )
    return {
        "cells": cells,
        "runs_per_cell": seeds,
        "cores": CORES,
        "workers": workers,
        "serial_seconds": serial_seconds,
        "sharded_seconds": sharded_seconds,
        "serial_cells_per_second": cells / serial_seconds,
        "sharded_cells_per_second": cells / sharded_seconds,
        "speedup": serial_seconds / sharded_seconds,
        "identical": bool(identical),
        "classifications": serial.classifications(),
    }


def main() -> None:
    smoke = os.environ.get("BENCH_SMOKE", "") not in ("", "0")
    if smoke:
        result = measure_campaign(scenario_count=2, fault_count=2, seeds=2)
    else:
        result = measure_campaign()
    write_report(REPORT_PATH, result)
    print(
        f"{result['cells']} cells x {result['runs_per_cell']} runs: "
        f"serial {result['serial_seconds']:.1f}s "
        f"({result['serial_cells_per_second']:.2f} cells/s), "
        f"sharded[{result['workers']}] {result['sharded_seconds']:.1f}s "
        f"({result['sharded_cells_per_second']:.2f} cells/s) -> "
        f"{result['speedup']:.2f}x, identical={result['identical']}"
    )
    print(f"wrote {REPORT_PATH}")


if __name__ == "__main__":
    main()
