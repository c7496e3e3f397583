"""Resilience-layer benchmark runner.

Two questions the supervised execution layer has to answer with
numbers, persisted to ``BENCH_resilience.json`` at the repo root::

    PYTHONPATH=src python benchmarks/run_resilience.py

1. **What does the write-ahead journal cost when nothing goes wrong?**
   Every campaign runs under a :class:`~repro.resilience.Supervisor`,
   so supervision itself has no opt-out left to measure; the one
   clean-path cost a caller still opts into is the journal (an
   fsync'd ``started`` and ``completed`` record per cell).  The same
   campaign grid runs without and with ``journal=`` (a fresh journal
   per round).  The overhead must stay within a few percent or nobody
   arms crash resume; the report's ``speedup`` is
   ``plain_seconds / journaled_seconds`` (~1.0) and the gate floors
   it at 0.95 (<= ~5% overhead).  Both runs must be bit-identical —
   journaling may never perturb results.

2. **What does crash recovery cost?**  A campaign is simulated to die
   after committing half its cells to the write-ahead journal + cache;
   the resumed run must re-execute only the other half, and its
   wall-clock is reported against the full journaled run
   (``recovery_fraction`` ~= the un-run fraction of the grid).

``BENCH_SMOKE=1`` shrinks the grid for CI smoke lanes.
"""

import itertools
import os
import shutil
import tempfile
import time
from pathlib import Path

from _emit import REPO_ROOT, write_report
from repro.scenarios.cache import CampaignCache
from repro.scenarios.campaign import CampaignSpec, FaultSpec, run_campaign
from repro.scenarios.faults import SensorDropout
from repro.scenarios.spec import ScenarioSpec

REPORT_PATH = REPO_ROOT / "BENCH_resilience.json"

_SCENARIO = ScenarioSpec(
    name="resilience_bench",
    profile="static_tilt",
    duration=60.0,
    profile_args=(("dwell_time", 3.0), ("slew_time", 1.5)),
    moving=False,
)


def build_spec(cells: int, seeds_per_cell: int = 2) -> CampaignSpec:
    """A grid of ``cells`` one-fault cells over a compact scenario."""
    faults = [FaultSpec(name="nominal")]
    for k in range(1, cells):
        faults.append(
            FaultSpec(
                name=f"drop{k}",
                faults=(
                    SensorDropout(
                        sensor="acc", start=8.0 + 4.0 * k, duration=4.0
                    ),
                ),
            )
        )
    return CampaignSpec(
        name="resilience_bench",
        scenarios=(_SCENARIO,),
        faults=tuple(faults),
        seeds=tuple(range(8200, 8200 + seeds_per_cell)),
    )


def _best_of(rounds: int, *fns):
    """Best wall-clock of each of ``fns`` (and each one's last value).

    The rounds interleave the callables, so a drift in machine speed
    over the measurement hits every one of them alike.
    """
    best = [float("inf")] * len(fns)
    values = [None] * len(fns)
    for _ in range(rounds):
        for index, fn in enumerate(fns):
            start = time.perf_counter()
            values[index] = fn()
            best[index] = min(best[index], time.perf_counter() - start)
    return best, values


def measure_resilience(cells: int = 6, rounds: int = 3) -> dict:
    """Clean-path journal overhead and journal-resume recovery, one report."""
    spec = build_spec(cells)
    tmp = Path(tempfile.mkdtemp(prefix="bench_resilience_"))
    try:
        # A fresh journal per round: a replayed one would add reads.
        journals = (tmp / f"clean{k}.jsonl" for k in itertools.count())
        (plain_seconds, journaled_seconds), (plain, journaled) = _best_of(
            rounds,
            lambda: run_campaign(spec),
            lambda: run_campaign(spec, journal=next(journals)),
        )
        identical = journaled.summaries == plain.summaries
        clean = journaled.resilience

        # Crash simulation: a run over the first half of the grid
        # commits those cells durably (journal + cache), exactly the
        # state a SIGKILL'd full run leaves behind; the resume pays
        # only for the other half.
        half = max(1, cells // 2)
        journal = tmp / "journal.jsonl"
        cache_dir = tmp / "cache"
        run_campaign(
            build_spec(half),
            journal=journal,
            cache=CampaignCache(cache_dir=cache_dir),
        )
        start = time.perf_counter()
        resumed = run_campaign(
            spec,
            journal=journal,
            cache=CampaignCache(cache_dir=cache_dir),
        )
        recovery_seconds = time.perf_counter() - start
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    recovery = resumed.resilience
    identical = bool(
        identical and resumed.summaries == plain.summaries
    )

    return {
        "cells": cells,
        "seeds_per_cell": len(spec.seeds),
        "plain_seconds": plain_seconds,
        "journaled_seconds": journaled_seconds,
        "speedup": plain_seconds / journaled_seconds,
        "overhead_fraction": journaled_seconds / plain_seconds - 1.0,
        "identical": identical,
        "clean_retries": clean.retries,
        "clean_quarantined": clean.quarantined,
        "precompleted_cells": half,
        "recovery_seconds": recovery_seconds,
        "recovery_fraction": recovery_seconds / journaled_seconds,
        "resumed_from_journal": recovery.resumed_from_journal,
        "recovery_cells_run": recovery.cells_run,
    }


def main() -> None:
    smoke = os.environ.get("BENCH_SMOKE", "") not in ("", "0")
    result = measure_resilience(cells=4 if smoke else 6)
    write_report(REPORT_PATH, result)
    print(
        f"{result['cells']} cells: plain {result['plain_seconds']:.2f}s, "
        f"journaled {result['journaled_seconds']:.2f}s "
        f"(overhead {result['overhead_fraction']*100:+.1f}%), "
        f"identical={result['identical']}; resume after "
        f"{result['precompleted_cells']} committed cells "
        f"{result['recovery_seconds']:.2f}s "
        f"({result['recovery_fraction']*100:.0f}% of a full run, "
        f"{result['recovery_cells_run']} cells re-run)"
    )
    print(f"wrote {REPORT_PATH}")


if __name__ == "__main__":
    main()
