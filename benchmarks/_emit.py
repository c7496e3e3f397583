"""Shared ``BENCH_*.json`` emitter for the benchmark runners.

Every ``benchmarks/run_*.py`` times a fast path against its oracle and
persists the measurement at the repo root so successive PRs can track
the perf trajectory.  This module is the single place that writes
those reports, pinning the cross-runner schema: every report carries
``speedup`` (oracle seconds / fast seconds) and ``identical`` (the
bit-identity verdict, which must be ``true``), and :func:`write_report`
stamps each one with the machine it ran on (``env``: usable cores,
Python and NumPy versions), so a figure is never read without its box.
``benchmarks/test_emit_schema.py`` guards the contract.

Scaling runners (``run_scaling.py``) additionally carry a ``series``
— one point per ensemble size R, validated by
:func:`validate_scaling_series` — and use :class:`PeakRssTracker` to
sample the process's resident set while each point runs, so memory
growth across the R sweep is part of the persisted trajectory.
"""

import json
import numbers
import os
import platform
import threading
from pathlib import Path

import numpy as np

#: Repo root, where every ``BENCH_*.json`` lands.
REPO_ROOT = Path(__file__).resolve().parent.parent

#: Keys every benchmark report must carry.
REQUIRED_KEYS = ("speedup", "identical")

#: Keys every point of a scaling ``series`` must carry.
SERIES_POINT_KEYS = (
    "runs",
    "fast_seconds",
    "serial_seconds",
    "speedup",
    "peak_rss_bytes",
)


def _read_vm_rss() -> int:
    """The process's current resident set in bytes (0 off-Linux)."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return 0


class PeakRssTracker:
    """Samples this process's VmRSS on a thread; reports the peak seen.

    ``getrusage`` high-water marks are lifetime-monotonic, useless for
    per-measurement attribution inside one sweep — so this samples
    ``/proc/self/status`` instead, which *can* fall between points.
    Use as a context manager around one measurement::

        with PeakRssTracker() as tracker:
            run_the_point()
        point["peak_rss_bytes"] = tracker.peak_bytes

    Off-Linux the peak reads 0; callers should treat 0 as "unknown",
    not "tiny".
    """

    def __init__(self, interval: float = 0.02) -> None:
        self.interval = float(interval)
        self.peak_bytes = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def _sample(self) -> None:
        self.peak_bytes = max(self.peak_bytes, _read_vm_rss())

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self._sample()

    def __enter__(self) -> "PeakRssTracker":
        self._sample()
        self._stop.clear()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        self._sample()


def validate_scaling_series(series) -> None:
    """Check a scaling sweep's shape before it lands in a report.

    Every point must carry :data:`SERIES_POINT_KEYS`, and the sweep
    must be sorted by strictly increasing ``runs`` — the knee finder
    and the RSS-growth gate both assume that order.
    """
    if not series:
        raise ValueError("a scaling series needs at least one point")
    last_runs = 0
    for point in series:
        missing = [key for key in SERIES_POINT_KEYS if key not in point]
        if missing:
            raise ValueError(
                f"scaling point {point.get('runs')!r} is missing keys "
                f"{missing}"
            )
        runs = point["runs"]
        if not isinstance(runs, int) or runs <= last_runs:
            raise ValueError(
                "scaling series must be sorted by strictly increasing "
                f"integer runs; got {runs!r} after {last_runs}"
            )
        last_runs = runs


def write_report(path: "Path | str", result: dict) -> Path:
    """Validate a benchmark result, stamp its ``env`` and write it."""
    path = Path(path)
    missing = [key for key in REQUIRED_KEYS if key not in result]
    if missing:
        raise ValueError(
            f"benchmark report {path.name} is missing required keys {missing}"
        )
    if not isinstance(result["identical"], bool):
        raise ValueError(
            "'identical' must be a bool, got "
            f"{type(result['identical']).__name__}"
        )
    speedup = result["speedup"]
    if isinstance(speedup, bool) or not isinstance(speedup, numbers.Real):
        raise ValueError(
            f"'speedup' must be a real number, got {type(speedup).__name__}"
        )
    if "series" in result:
        validate_scaling_series(result["series"])
    env = {
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    path.write_text(json.dumps({**result, "env": env}, indent=2) + "\n")
    return path
