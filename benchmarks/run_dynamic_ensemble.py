"""Dynamic Monte-Carlo ensemble benchmark runner.

Times the serial dynamic Monte-Carlo engine (the verification oracle)
against the batched lockstep engine on the §11 driving ensemble —
per-seed vibration synthesis, motion-gated filtering and divergence
masking included — and writes ``BENCH_dynamicensemble.json`` at the
repo root so successive PRs can track the perf trajectory::

    PYTHONPATH=src python benchmarks/run_dynamic_ensemble.py

``benchmarks/bench_dynamic_ensemble.py`` runs the same measurement
under pytest with the ≥10× speedup assertion (reduced size with
``BENCH_SMOKE=1``).
"""

import time

from _emit import REPO_ROOT, write_report
from repro.analysis import run_monte_carlo_dynamic

REPORT_PATH = REPO_ROOT / "BENCH_dynamicensemble.json"


def measure_dynamic_ensemble(runs: int = 32, duration: float = 160.0) -> dict:
    """Time both engines on the same drive and verify bit-identity.

    The serial engine is the slow oracle (one pass); the batched engine
    is also measured once — its run is seconds-scale, far above timer
    noise.  ``identical`` is the full :class:`MonteCarloSummary`
    equality, i.e. bit-identical aggregate arrays, gate decisions and
    divergence flags.
    """
    kwargs = dict(runs=runs, duration=duration)

    start = time.perf_counter()
    serial = run_monte_carlo_dynamic(engine="model", **kwargs)
    model_seconds = time.perf_counter() - start

    start = time.perf_counter()
    fast = run_monte_carlo_dynamic(engine="fast", **kwargs)
    fast_seconds = time.perf_counter() - start

    ticks = serial.runs * duration
    return {
        "runs": runs,
        "duration_s": duration,
        "model_seconds": model_seconds,
        "fast_seconds": fast_seconds,
        "speedup": model_seconds / fast_seconds,
        "identical": bool(serial == fast),
        "model_sim_seconds_per_wall_second": ticks / model_seconds,
        "fast_sim_seconds_per_wall_second": ticks / fast_seconds,
        "rms_error_deg": [float(v) for v in fast.rms_error_deg],
        "coverage_3sigma": fast.coverage_3sigma,
        "mean_exceedance": fast.mean_exceedance,
        "anees": fast.anees,
        "diverged_seeds": list(fast.diverged_seeds),
    }


def main() -> None:
    result = measure_dynamic_ensemble()
    write_report(REPORT_PATH, result)
    print(
        f"{result['runs']}-run dynamic ensemble: "
        f"model {result['model_seconds']:.1f}s, "
        f"fast {result['fast_seconds']:.2f}s "
        f"({result['speedup']:.1f}x), identical={result['identical']}"
    )
    print(f"wrote {REPORT_PATH}")


if __name__ == "__main__":
    main()
