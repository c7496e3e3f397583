"""One cold benchmark process: set up, then do one thing, print one line.

Run from the repository root with ``src`` and the root on the path::

    python -m perfbench.child --workload ensemble_large --seed 1 --mode run

``--mode run`` sets up (imports, building the inputs, constructing the
service) and times one pass, traced with ``--trace 1``; ``--mode oracle
--part k`` computes every second oracle re-run starting at ``k``.  The
last line of standard output is one JSON record; ``ready_at`` is the
``time.perf_counter()`` reading at the end of set-up, which the parent
compares with its own reading taken just before starting this process.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

from perfbench.trace import (
    ROOT as ROOT_SPAN,
    SPAN_DIR_ENV,
    Tracer,
    analyze,
    layer_table,
    span_metrics,
    timeline_balance,
)

ROOT = Path(__file__).resolve().parents[1]
#: Scratch space inside the checkout for span files and trace dumps.
WORK = ROOT / ".perfbench"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("run", "oracle"), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--part", type=int, default=0)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    state = workload.setup(args.seed, args.tiny)
    if args.mode == "oracle":
        record = _oracle(workload, state, args.part)
    else:
        record = _run(workload, state, args)
    import numpy

    record["numpy"] = numpy.__version__
    print(json.dumps(record))
    return 0


def _oracle(workload, state, part: int) -> dict:
    digests: dict[str, str] = {}
    for job in workload.oracle_jobs(state)[part::2]:
        digests.update(job())
    return {"digests": digests, "checks": workload.oracle_checks(state)}


def _run(workload, state, args) -> dict:
    tracer = None
    if args.trace:
        span_dir = WORK / "spans" / str(os.getpid())
        shutil.rmtree(span_dir, ignore_errors=True)
        span_dir.mkdir(parents=True)
        os.environ[SPAN_DIR_ENV] = str(span_dir)
        run_ref = f"{args.workload}/seed{args.seed}/pid{os.getpid()}"
        tracer = Tracer(span_dir=span_dir, ref=run_ref)
        tracer.install()
    ready_at = time.perf_counter()
    if tracer is None:
        output = workload.run(state, None)
    else:
        try:
            output = workload.run(state, tracer)
        finally:
            tracer.uninstall()
    wanted = {
        reference.split(":", 1)[1]
        for _, reference, _ in workload.oracle_checks(state)
        if reference.startswith("run:")
    }
    record = {
        "ready_at": ready_at,
        "wall_s": output.wall_s,
        "rate_s": output.rate_s,
        "seeds": output.seeds,
        "units": output.units,
        "failed": output.failed,
        "latencies": output.latencies,
        "digest": _combined(output.unit_digests),
        "unit_digests": {k: v for k, v in output.unit_digests.items() if k in wanted},
        "counters": output.counters,
    }
    if tracer is not None:
        record["trace"] = _trace_report(tracer, output, args)
        shutil.rmtree(tracer.span_dir, ignore_errors=True)
    return record


def _combined(unit_digests: dict[str, str]) -> str:
    digest = hashlib.sha256()
    for key in sorted(unit_digests):
        digest.update(f"{key}={unit_digests[key]};".encode())
    return digest.hexdigest()


def _trace_report(tracer, output, args) -> dict:
    """Per-layer metrics, the layer table and the accounting balance."""
    rows = tracer.collect()
    spans = analyze(rows)
    metrics = span_metrics(spans)
    waits = []
    for span in spans:
        if span.name == "service.batch" and span.ref:
            for ref in span.ref.split(","):
                sent = output.sent_at.get(ref)
                if sent is not None:
                    waits.append(span.start / 1e9 - sent)
    metrics["service.queue_wait_p50_s"] = statistics.median(waits) if waits else 0.0
    root_span = next(s for s in spans if s.name == ROOT_SPAN and s.parent is None)
    trace_dir = WORK / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    dump = trace_dir / f"{args.workload}-seed{args.seed}.jsonl"
    with open(dump, "w") as out:
        for row in rows:
            out.write(json.dumps(row) + "\n")
    return {
        "metrics": metrics,
        "layers": layer_table(spans),
        "balance": timeline_balance(spans),
        "root_s": root_span.duration / 1e9,
        "root_self_s": root_span.self_ns / 1e9,
        "root_wait_s": root_span.wait_ns / 1e9,
        "spans": len(spans),
        "file": str(dump.relative_to(ROOT)),
    }


if __name__ == "__main__":
    sys.exit(main())
