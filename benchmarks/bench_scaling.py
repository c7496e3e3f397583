"""R-scaling gate — chunked-arena throughput and memory, under pytest.

Three contracts on the arena-chunked lockstep core, at smoke scale by
default (``BENCH_SMOKE=1`` — the CI ``scaling-smoke`` lane) and at
the full sweep otherwise:

- **identity** — the fast path bit-matches the serial oracle at the
  calibration R (the full-sweep identity lives in the engine
  registry's equivalence harness; this pins it at bench scale too);
- **speedup** — ≥ 10x over the per-seed-extrapolated oracle at the
  sweep's largest R.  The lockstep engine amortizes trajectory
  sampling and batches every noise chain, so double digits is the
  *floor*, not the target;
- **memory** — peak RSS grows sub-linearly in R *past the chunk
  size*.  Below ``CHUNK_SIZE`` the whole ensemble is one live
  chunk and memory is linear by design; beyond it the arena recycles,
  so a 32x jump in R (512 -> 16384 in the full sweep) must cost far
  less than 32x the resident set (ceiling: 2x past the chunk point,
  plus an absolute 6 GiB lid everywhere).

Run ``python benchmarks/run_scaling.py`` to persist
``BENCH_scaling.json``.
"""

import os

import pytest

from run_scaling import SMOKE_SWEEP, FULL_SWEEP, measure_scaling

pytestmark = pytest.mark.scaling

SMOKE = os.environ.get("BENCH_SMOKE", "") not in ("", "0")

if SMOKE:
    SWEEP, CALIBRATION_RUNS = SMOKE_SWEEP, 2
else:
    SWEEP, CALIBRATION_RUNS = FULL_SWEEP, 4

MIN_SPEEDUP = 10.0
#: Peak-RSS growth allowed beyond the chunk-size point (the full
#: sweep spans 512 -> 16384, a 32x R range the arena keeps near-flat).
MAX_RSS_GROWTH = 2.0
MAX_RSS_BYTES = 6 * 2**30


def test_scaling_identity_speedup_and_memory(once):
    result = once(measure_scaling, SWEEP, CALIBRATION_RUNS)
    series = result["series"]
    print()
    for point in series:
        print(
            f"R={point['runs']:>6}: {point['runs_per_second']:7.1f} runs/s "
            f"-> {point['speedup']:6.2f}x, "
            f"rss {point['peak_rss_bytes'] / 2**20:7.1f} MiB"
        )

    assert result["identical"], "fast path diverged from the serial oracle"
    assert series[-1]["runs"] == SWEEP[-1]
    assert series[-1]["speedup"] >= MIN_SPEEDUP

    rss = [point["peak_rss_bytes"] for point in series]
    if all(rss):  # /proc/self/status unavailable -> all zero, skip
        assert max(rss) <= MAX_RSS_BYTES
        from repro.experiments.arena import CHUNK_SIZE

        chunked = [p for p in series if p["runs"] >= CHUNK_SIZE]
        if len(chunked) > 1:  # smoke stops at one chunk; full sweeps gate
            base = chunked[0]["peak_rss_bytes"]
            worst = max(p["peak_rss_bytes"] for p in chunked)
            span = chunked[-1]["runs"] // chunked[0]["runs"]
            assert worst <= MAX_RSS_GROWTH * base, (
                f"peak RSS grew {worst / base:.1f}x over a {span}x R "
                "range past the chunk size — the arena is not recycling"
            )
