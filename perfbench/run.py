"""The repository benchmark: one workload, cold passes, one JSON verdict.

Usage, from the repository root::

    python3 perfbench/run.py --workload ensemble_large --seed 1 \\
        --seconds 20 --trace 0

Every pass of the workload starts a fresh interpreter
(``python -m perfbench.child``), so nothing the program memoizes, pools
or keeps in an arena carries over between passes.  With ``--trace 0``
passes repeat until ``--seconds`` of timed work have run, and at least
three times, so that each median is a pass of its own and one slow
pass cannot move it; with ``--trace 1`` one untraced pass is followed
by one traced pass.  After the passes two interpreters re-run part of
the workload through the registry oracles, and every pass must produce
the same output digest; a mismatch fails every unit of the pass that
differs.

End-to-end metrics (``--trace 0``), each a median over the passes
except the latencies, which pool every pass's samples:

``setup_s``
    Interpreter start to the first timed call: imports, building the
    inputs, constructing the service.
``seeds_per_s``
    Seeded units finished per second of the timed call: Monte-Carlo
    seeds for the ensemble and the campaign (cells × seeds), requests
    for the service (each is one seed; from the first scheduled send
    to the last completion), firmware instances for the fleet.
``latency_p50_s``, ``latency_p90_s``
    The median and the nearest-rank 90th percentile of what a caller
    waits for: each service request from its scheduled send time (over
    100 samples per run), each pass's timed section for the other
    workloads.  A percentile is reported only with at least ten samples
    above it; with fewer (one sample per pass) ``latency_p90_s`` is the
    median, since the top of three samples measures the machine's worst
    moment, not the program.
``peak_rss_mib``
    Peak resident set summed over this process and all its descendants
    (spawn workers included): each process's own high-water mark during
    the pass, read every 20 ms while it lives.

Failures are the verdict's ``failed`` out of ``attempted`` units
(seeds, cells, requests or instances, oracle re-runs included): errors,
rejections, quarantines, crashed passes and oracle mismatches.

Per-layer metrics (``--trace 1``) come from the traced pass (see
``perfbench/trace.py``), from counters the program reports, and from
the untraced pass: ``sim_minstr_per_s`` (simulated instructions per
host second) and ``trace.overhead_frac`` (traced over untraced wall
time, minus one).  Layers off a workload's path read 0.

The last line of standard output is the verdict; the line before it
is the full report (machine, seed, per-pass figures, oracle checks,
the per-layer self-time table), also written under ``.perfbench/``.
This script imports only the standard library.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MIN_PASSES = 3
MAX_PASSES = 6
#: Wall-clock budget for the whole invocation, seconds.
BUDGET_S = 170.0


class TreeRss:
    """Sums the peak resident sets of this process and its descendants.

    Each member's peak is the kernel's high-water mark (``VmHWM``), so
    it does not depend on when a sample lands; the sampler only has to
    see every member before it exits.  Walking ``/proc`` for the tree
    costs about 2 ms of CPU, so the tree is re-read every ``rescan``
    samples (new children are seen within 0.2 s) and in between only the
    members' ``status`` files are read, keeping the sampler off the
    cores the workload uses.
    """

    def __init__(self, interval: float = 0.02, rescan: int = 10) -> None:
        self.interval = interval
        self.rescan = rescan
        self._peaks: dict[int, int] = {}
        self._lock = threading.Lock()
        self._generation = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def __enter__(self) -> TreeRss:
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()

    @property
    def peak(self) -> int:
        """Bytes: the sum over members seen since the reset of their peaks."""
        with self._lock:
            return sum(self._peaks.values())

    def reset(self) -> None:
        """Start a new peak; samples taken before the reset are dropped."""
        with self._lock:
            self._generation += 1
            self._peaks = {}

    def tree(self) -> list[int]:
        """This process and all its descendants."""
        parents: dict[int, list[int]] = {}
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open(f"/proc/{entry}/stat") as stat:
                    fields = stat.read().rsplit(")", 1)[1].split()
            except OSError:
                continue
            parents.setdefault(int(fields[1]), []).append(int(entry))
        members = []
        pending = [os.getpid()]
        while pending:
            pid = pending.pop()
            members.append(pid)
            pending.extend(parents.get(pid, ()))
        return members

    @staticmethod
    def high_water(members: list[int]) -> dict[int, int]:
        """Each live member's peak resident set so far, in bytes."""
        peaks = {}
        for pid in members:
            try:
                with open(f"/proc/{pid}/status") as status:
                    for line in status:
                        if line.startswith("VmHWM:"):
                            peaks[pid] = int(line.split()[1]) * 1024
                            break
            except OSError:
                continue
        return peaks

    def _loop(self) -> None:
        members: list[int] = []
        ticks = 0
        while not self._stop.wait(self.interval):
            if ticks % self.rescan == 0:
                members = self.tree()
            ticks += 1
            generation = self._generation
            peaks = self.high_water(members)
            with self._lock:
                if generation == self._generation:
                    self._peaks.update(peaks)


class ChildFailed(RuntimeError):
    """A child process crashed, timed out or printed no record."""


def run_child(args: list[str], deadline: float) -> tuple[dict, float]:
    """Start one child; return its JSON record and the start time."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    started = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, "-m", "perfbench.child", *args],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = process.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        stop_group(process.pid)
        process.communicate()
        raise ChildFailed(f"child {args} overran the time budget") from None
    # Spawn workers share the child's session; none may outlive it.
    stop_group(process.pid)
    lines = out.strip().splitlines()
    if process.returncode != 0 or not lines:
        raise ChildFailed(
            f"child {args} exited {process.returncode}:\n{err.strip()[-2000:]}"
        )
    return json.loads(lines[-1]), started


def stop_group(pgid: int) -> None:
    """SIGKILL what is left of a process group and wait until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(500):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def nearest_rank(samples: list[float], quantile: float) -> float:
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(quantile * len(ordered))) - 1]


def tail_percentile(samples: list[float], quantile: float) -> float:
    """The nearest-rank percentile if ten samples lie above it, else the median."""
    if (1.0 - quantile) * len(samples) >= 10:
        return nearest_rank(samples, quantile)
    return statistics.median(samples)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv: list[str] | None = None) -> int:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in manifest["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=manifest["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no src/repro next to the benchmark", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + BUDGET_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    passes: list[dict] = []
    failures: list[str] = []
    crashed = 0
    with TreeRss() as rss:
        setup_samples = []
        plan = [0, 1] if args.trace else [0] * MAX_PASSES
        for index, traced in enumerate(plan):
            timed = sum(p["wall_s"] for p in passes if not p["traced"])
            if not args.trace and index >= MIN_PASSES and timed >= args.seconds:
                break
            if passes and time.perf_counter() + 3 * passes[-1]["wall_s"] > deadline:
                break  # leave room for the oracle re-runs
            rss.reset()
            try:
                record, started = run_child(
                    common + ["--mode", "run", "--trace", str(traced)], deadline
                )
            except ChildFailed as exc:
                failures.append(str(exc))
                crashed += 1
                continue
            record["traced"] = traced
            record["peak_rss_mib"] = rss.peak / 2**20
            if not traced:
                setup_samples.append(record["ready_at"] - started)
            passes.append(record)
        oracle_started = time.perf_counter()
        oracle = run_oracle(common, deadline, failures)
        oracle["seconds"] = time.perf_counter() - oracle_started
    if not passes or (args.trace and not any(p["traced"] for p in passes)):
        print("\n".join(failures) or "perfbench: no pass completed", file=sys.stderr)
        return 1

    verdict, report = summarize(
        args, manifest, passes, oracle, setup_samples, failures, crashed
    )
    report["env"] = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": passes[0].get("numpy"),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    out_dir = ROOT / ".perfbench" / "reports"
    out_dir.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(report, indent=1))
    print(json.dumps({"report": report}))
    print(json.dumps(verdict))
    return 0


def run_oracle(common: list[str], deadline: float, failures: list[str]) -> dict:
    """Both halves of the oracle re-runs, in two parallel children."""
    results: list[dict | None] = [None, None]

    def part(k: int) -> None:
        try:
            results[k], _ = run_child(
                common + ["--mode", "oracle", "--part", str(k)], deadline
            )
        except ChildFailed as exc:
            failures.append(str(exc))

    threads = [threading.Thread(target=part, args=(k,)) for k in (0, 1)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    digests: dict[str, str] = {}
    checks: list = []
    for result in results:
        if result is not None:
            digests.update(result["digests"])
            checks = result["checks"]
    return {"digests": digests, "checks": checks, "complete": None not in results}


def summarize(args, manifest, passes, oracle, setup_samples, failures, crashed):
    """The verdict line and the report for this invocation."""
    # Passes repeat the same inputs, so their outputs must agree; the
    # most common digest is the reference and every unit of a pass
    # that differs from it counts as failed.
    majority, _ = Counter(p["digest"] for p in passes).most_common(1)[0]
    reference = next(p for p in passes if p["digest"] == majority)
    # A pass whose child crashed failed every unit a pass attempts.
    attempted = failed = crashed * reference["units"]
    for record in passes:
        attempted += record["units"]
        if record["digest"] != reference["digest"]:
            failed += record["units"]
        else:
            failed += record["failed"]
    checked = []
    for key, target, units in oracle["checks"]:
        source, name = target.split(":", 1)
        expected = (
            reference["unit_digests"].get(name)
            if source == "run"
            else oracle["digests"].get(name)
        )
        ok = expected is not None and oracle["digests"].get(key) == expected
        attempted += units
        failed += 0 if ok else units
        checked.append({"key": key, "against": target, "ok": ok})
    correct = (
        failed == 0 and not failures and oracle["complete"] and bool(checked)
    )
    untraced = [p for p in passes if not p["traced"]]
    if args.trace:
        traced = next(p for p in passes if p["traced"])
        values = layer_values(traced, untraced)
        wanted = manifest["per_layer"]
    else:
        values = end_to_end_values(untraced, setup_samples)
        wanted = manifest["end_to_end"]
    metrics = {
        spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]}
        for spec in wanted
    }
    verdict = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    report = {
        "passes": [
            {
                key: record.get(key)
                for key in ("traced", "wall_s", "rate_s", "seeds", "units",
                            "failed", "digest", "peak_rss_mib", "counters")
            }
            for record in passes
        ],
        "setup_samples_s": setup_samples,
        "latency_samples": sum(len(p["latencies"]) for p in untraced),
        "oracle": checked,
        "oracle_s": oracle["seconds"],
        "failures": failures,
    }
    if args.trace:
        trace = dict(traced["trace"])
        trace.pop("metrics")
        report["trace"] = trace
    return verdict, report


def end_to_end_values(untraced: list[dict], setup_samples: list[float]) -> dict:
    latencies = [x for p in untraced for x in p["latencies"]]
    return {
        "setup_s": statistics.median(setup_samples),
        "seeds_per_s": statistics.median(p["seeds"] / p["rate_s"] for p in untraced),
        "latency_p50_s": statistics.median(latencies),
        "latency_p90_s": tail_percentile(latencies, 0.90),
        "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in untraced),
    }


def layer_values(traced: dict, untraced: list[dict]) -> dict:
    values = dict(traced["trace"]["metrics"])
    counters = traced["counters"]
    values.update(counters)
    instructions = counters.get("sabre.instructions", 0)
    values["sabre.instructions"] = instructions
    values["sabre.ns_per_instr"] = (
        values["sabre.run_cycles_s"] * 1e9 / instructions if instructions else 0.0
    )
    baseline = statistics.median(p["wall_s"] for p in untraced) if untraced else 0.0
    values["sim_minstr_per_s"] = (
        statistics.median(instructions / p["rate_s"] for p in untraced) / 1e6
        if instructions and untraced
        else 0.0
    )
    values["trace.overhead_frac"] = (
        traced["wall_s"] / baseline - 1.0 if baseline else 0.0
    )
    for key in ("service.batches", "service.occupancy", "service.rejected",
                "scenarios.cache_hit_rate", "loadgen.late_max_s",
                "resilience.retries", "resilience.timeouts",
                "resilience.quarantined", "misalign_rms_arcsec",
                "anees_log_ratio"):
        values.setdefault(key, 0)
    return values


if __name__ == "__main__":
    sys.exit(main())
