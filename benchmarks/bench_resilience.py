"""Resilience-layer gate — the write-ahead journal must be nearly
free, and recovery must only pay for what was lost.

Two floors over :func:`run_resilience.measure_resilience`:

- **Clean-path overhead**: the journaled campaign (every campaign runs
  under the default supervisor; no faults, so zero retries) must stay
  within ~5% of the same campaign without a journal
  (``speedup >= 0.95``, the median of at least 9 per-round paired
  ``plain / journaled`` ratios, alternating which side runs first)
  and bit-identical to it — crash resume that taxes or perturbs the
  fault-free path would never be armed.
- **Recovery economics**: resuming a run that durably committed half
  its cells must re-execute *only* the other half (exact cell counts
  from the journal replay) and cost visibly less wall-clock than the
  full journaled run.

``BENCH_SMOKE=1`` shrinks the grid for CI smoke lanes.  Run ``python
benchmarks/run_resilience.py`` to persist ``BENCH_resilience.json``.
"""

import os

import pytest

from run_resilience import measure_resilience

pytestmark = [pytest.mark.bench, pytest.mark.resilience]

SMOKE = os.environ.get("BENCH_SMOKE", "") not in ("", "0")

CELLS = 4 if SMOKE else 6
#: <= ~5% clean-path overhead; a hair of timer noise is tolerated at
#: smoke size, where each run is only a couple of seconds.
MIN_SPEEDUP = 0.93 if SMOKE else 0.95


def test_journal_is_nearly_free_and_recovery_is_partial(once):
    result = once(measure_resilience, cells=CELLS)
    print()
    print(
        f"{result['cells']} cells: plain {result['plain_seconds']:.2f}s, "
        f"journaled {result['journaled_seconds']:.2f}s "
        f"(overhead {result['overhead_fraction']*100:+.1f}%, median of "
        f"{result['rounds']} paired ratios in {result['min_ratio']:.3f}–"
        f"{result['max_ratio']:.3f}); recovery "
        f"{result['recovery_seconds']:.2f}s for "
        f"{result['recovery_cells_run']} re-run cells"
    )
    assert result["identical"], "the journal perturbed campaign results"
    assert result["clean_retries"] == 0, "clean path should never retry"
    assert result["clean_quarantined"] == 0
    assert result["rounds"] >= 9
    assert result["speedup"] >= MIN_SPEEDUP, (
        f"clean-path overhead {result['overhead_fraction']*100:.1f}% "
        f"exceeds the floor (speedup {result['speedup']:.3f} < {MIN_SPEEDUP})"
    )
    # The resume re-runs exactly the cells the crash lost.
    assert result["resumed_from_journal"] == result["precompleted_cells"]
    assert (
        result["recovery_cells_run"]
        == result["cells"] - result["precompleted_cells"]
    )
    assert result["recovery_seconds"] < result["journaled_seconds"]
