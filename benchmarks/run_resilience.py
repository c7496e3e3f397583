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
   per round), once per side in each of ``rounds`` (>= 9) rounds,
   alternating which side runs first.  The overhead must stay within
   a few percent or nobody arms crash resume; the report's
   ``speedup`` is the median of the per-round paired ratios
   ``plain / journaled`` (~1.0, with ``min_ratio`` and ``max_ratio``
   beside it) and the gate floors it at 0.95 (<= ~5% overhead).  A
   median of paired ratios, rather than a best-of-N per side, is what
   keeps second-long runs on a busy machine from reading a few
   percent of noise as overhead.  Both runs must be bit-identical —
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
import statistics
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


def _paired_rounds(rounds: int, first, second):
    """Wall-clock of ``first`` and ``second`` per round, and last values.

    Each round runs both callables back to back, alternating which goes
    first, so a drift in machine speed hits both sides of a pair alike
    and neither side always runs on the heels of the other.
    """
    fns = (first, second)
    seconds = ([], [])
    values = [None, None]
    for k in range(rounds):
        for index in (0, 1) if k % 2 == 0 else (1, 0):
            start = time.perf_counter()
            values[index] = fns[index]()
            seconds[index].append(time.perf_counter() - start)
    return seconds, values


def measure_resilience(cells: int = 6, rounds: int = 9) -> dict:
    """Clean-path journal overhead and journal-resume recovery, one report."""
    spec = build_spec(cells)
    tmp = Path(tempfile.mkdtemp(prefix="bench_resilience_"))
    try:
        # Untimed: the process's first campaign integrates the shared
        # truth, which would otherwise land on round 0's first side.
        run_campaign(spec)
        # A fresh journal per round: a replayed one would add reads.
        journals = (tmp / f"clean{k}.jsonl" for k in itertools.count())
        (plain_times, journaled_times), (plain, journaled) = _paired_rounds(
            rounds,
            lambda: run_campaign(spec),
            lambda: run_campaign(spec, journal=next(journals)),
        )
        ratios = [p / j for p, j in zip(plain_times, journaled_times)]
        speedup = statistics.median(ratios)
        journaled_seconds = statistics.median(journaled_times)
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
        "rounds": rounds,
        "plain_seconds": statistics.median(plain_times),
        "journaled_seconds": journaled_seconds,
        "speedup": speedup,
        "min_ratio": min(ratios),
        "max_ratio": max(ratios),
        "overhead_fraction": 1.0 / speedup - 1.0,
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
        f"(overhead {result['overhead_fraction']*100:+.1f}%, median of "
        f"{result['rounds']} paired ratios in {result['min_ratio']:.3f}–"
        f"{result['max_ratio']:.3f}), "
        f"identical={result['identical']}; resume after "
        f"{result['precompleted_cells']} committed cells "
        f"{result['recovery_seconds']:.2f}s "
        f"({result['recovery_fraction']*100:.0f}% of a full run, "
        f"{result['recovery_cells_run']} cells re-run)"
    )
    print(f"wrote {REPORT_PATH}")


if __name__ == "__main__":
    main()
