"""R-scaling benchmark for the chunked lockstep ensemble core.

Sweeps the ensemble size R through the arena-chunked fast path
(static §11 protocol, compressed tilt schedule), times every point
while sampling peak RSS, and writes ``BENCH_scaling.json`` at the
repo root::

    PYTHONPATH=src python benchmarks/run_scaling.py

The serial oracle is timed once at a small calibration R — where it
is also bit-compared against the fast path — and extrapolated
per-seed to the sweep sizes (running 16k serial rigs would take
hours; the oracle's cost is embarrassingly linear in R by
construction, one independent rig per seed).  Each series point
carries ``runs``, fast/serial seconds, the per-R ``speedup`` and
``peak_rss_bytes``; the report's headline ``speedup`` is the R=4096
point (the acceptance gate) when the sweep reaches it, else the
largest R measured.

The *knee* is the R past which throughput stops improving: the point
with the best runs-per-second.  Past the arena chunk size
(:data:`~repro.experiments.arena.CHUNK_SIZE`) memory stays
flat — chunks of at most 512 runs stream through one reused arena —
so peak RSS growth across the sweep must be sub-linear in R, which
``benchmarks/bench_scaling.py`` gates.

``BENCH_SMOKE=1`` trims the sweep for CI.
"""

import os
import time

from _emit import PeakRssTracker, REPO_ROOT, write_report
from repro.analysis.montecarlo import run_monte_carlo_static

REPORT_PATH = REPO_ROOT / "BENCH_scaling.json"

#: The full R sweep; BENCH_SMOKE keeps the first three points.
FULL_SWEEP = (32, 128, 512, 2048, 4096, 16384)
SMOKE_SWEEP = (32, 128, 512)

#: Compressed static schedule — same protocol shape, cheap ticks.
PROTOCOL = dict(duration=60.0, dwell_time=3.0, slew_time=1.5, base_seed=9000)


def _run(runs: int, engine: str):
    """One ensemble of ``runs`` seeds; (summary, wall seconds)."""
    start = time.perf_counter()
    summary = run_monte_carlo_static(runs=runs, engine=engine, **PROTOCOL)
    return summary, time.perf_counter() - start


def calibrate_serial(runs: int) -> tuple[float, bool]:
    """Per-seed oracle seconds and the serial-vs-fast identity verdict."""
    serial_summary, serial_seconds = _run(runs, "model")
    fast_summary, _ = _run(runs, "fast")
    return serial_seconds / runs, serial_summary == fast_summary


def measure_scaling(sweep, calibration_runs: int) -> dict:
    """Sweep R through the fast path against the extrapolated oracle."""
    per_seed_serial, identical = calibrate_serial(calibration_runs)
    series = []
    for runs in sweep:
        with PeakRssTracker() as tracker:
            _, fast_seconds = _run(runs, "fast")
        serial_seconds = per_seed_serial * runs
        series.append(
            {
                "runs": runs,
                "fast_seconds": fast_seconds,
                "serial_seconds": serial_seconds,
                "serial_extrapolated": True,
                "speedup": serial_seconds / fast_seconds,
                "runs_per_second": runs / fast_seconds,
                "peak_rss_bytes": tracker.peak_bytes,
            }
        )
        print(
            f"R={runs:>6}: fast {fast_seconds:8.2f}s "
            f"({series[-1]['runs_per_second']:7.1f} runs/s) -> "
            f"{series[-1]['speedup']:6.2f}x, "
            f"rss {tracker.peak_bytes / 2**20:7.1f} MiB"
        )
    knee = max(series, key=lambda point: point["runs_per_second"])
    headline = next(
        (p for p in series if p["runs"] == 4096), series[-1]
    )
    return {
        "protocol": {k: v for k, v in PROTOCOL.items()},
        "calibration_runs": calibration_runs,
        "serial_seconds_per_seed": per_seed_serial,
        "series": series,
        "knee_runs": knee["runs"],
        "max_runs": series[-1]["runs"],
        "speedup": headline["speedup"],
        "speedup_at_runs": headline["runs"],
        "identical": bool(identical),
    }


def main() -> None:
    smoke = os.environ.get("BENCH_SMOKE", "") not in ("", "0")
    if smoke:
        result = measure_scaling(SMOKE_SWEEP, calibration_runs=2)
    else:
        result = measure_scaling(FULL_SWEEP, calibration_runs=4)
    write_report(REPORT_PATH, result)
    print(
        f"knee at R={result['knee_runs']}, headline "
        f"{result['speedup']:.2f}x at R={result['speedup_at_runs']}, "
        f"identical={result['identical']}"
    )
    print(f"wrote {REPORT_PATH}")


if __name__ == "__main__":
    main()
