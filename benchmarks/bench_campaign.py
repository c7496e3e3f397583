"""Campaign sharding benchmark — identity first, speedup second.

The hard contract is bit-identity: the cell-sharded spawn pool must
return exactly the summaries the single-process path returns, in cell
order, for the same grid.  The speedup floor is parallelism-aware —
spawned shards only pay off with real cores, and CI smoke boxes often
pin a single one, where the spawn overhead makes sharding a net loss
by design.  On such boxes the floor only guards against pathological
regressions (a deadlocking pool, per-cell respawning); with ≥4 cores
the sharded path must win outright.

``BENCH_SMOKE=1`` shrinks the grid for CI smoke lanes.  Run ``python
benchmarks/run_campaign.py`` to persist ``BENCH_campaign.json``.
"""

import os

import pytest

from run_campaign import CORES, measure_campaign

pytestmark = pytest.mark.bench

SMOKE = os.environ.get("BENCH_SMOKE", "") not in ("", "0")

if SMOKE:
    GRID = dict(scenario_count=2, fault_count=2, seeds=2)
else:
    GRID = dict(scenario_count=3, fault_count=4, seeds=4)

if CORES >= 4:
    # Real parallelism: the grid is embarrassingly parallel, demand a win.
    MIN_SPEEDUP = 1.2 if SMOKE else 1.5
elif CORES >= 2:
    MIN_SPEEDUP = 0.5 if SMOKE else 0.8
else:
    # Single core: spawn startup dominates a small grid; only guard
    # against the pool degenerating (hangs, per-cell respawns).
    MIN_SPEEDUP = 0.1 if SMOKE else 0.2


def test_campaign_sharding_identical_and_scales(once):
    result = once(measure_campaign, **GRID)
    print()
    print(
        f"{result['cells']} cells x {result['runs_per_cell']} runs on "
        f"{CORES} cores: serial {result['serial_cells_per_second']:.2f} "
        f"cells/s, sharded[{result['workers']}] "
        f"{result['sharded_cells_per_second']:.2f} cells/s -> "
        f"{result['speedup']:.2f}x"
    )
    assert result["identical"], "sharded campaign diverged from serial"
    assert result["cells"] >= 4
    assert result["serial_cells_per_second"] > 0
    assert result["speedup"] >= MIN_SPEEDUP
