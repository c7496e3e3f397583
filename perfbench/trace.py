"""Outside-in layer tracing for the benchmark's traced runs.

Nothing under ``src/`` knows about this module.  :class:`Tracer` wraps
the public functions behind the per-layer metrics and records one
span per call: name, start, end, parent span, the run/cell/request id
it belongs to, and the process and thread it ran on.  Spans stay in
memory and are analysed when the run ends.

Wrapping happens where each name is *looked up*, not only where it is
defined: modules import these functions by name
(``repro.experiments.batch_protocol.stack_rig_streams``,
``repro.service.service.run_jobs_inline``, ...), and the engine
registry holds engines by reference, so :meth:`Tracer.install` swaps
every reference it finds in loaded ``repro`` modules and in the
registry, and :meth:`Tracer.uninstall` puts the originals back.

Campaign cells run on spawn workers, which import a fresh ``repro``.
The cell entry point is therefore replaced by :func:`traced_cell`, a
module-level function that pickles by reference; inside a worker it
installs a tracer of its own and appends that worker's spans to a file
in ``PERFBENCH_SPAN_DIR`` after each cell (workers exit without running
``atexit`` hooks, so there is no later moment to write them).

Accounting.  Spans on one timeline (process, thread) nest and never
overlap.  A span's children may also live on other timelines: worker
cells under the campaign pool span, service batches on the dispatch
thread under the run's root.  For every span::

    duration = self + wait + sum(durations of same-timeline children)

where ``self`` is the part of the span no child covers and ``wait`` is
the part only other-timeline children cover (the span was waiting on
parallel work).  Summed over one timeline this telescopes to the
durations of that timeline's roots, so no nanosecond is counted twice.
"""

from __future__ import annotations

import contextvars
import dataclasses
import functools
import importlib
import itertools
import json
import os
import statistics
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

#: The span currently open in this task/thread (its id), if any.
_CURRENT: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "perfbench_span", default=None
)
#: The run, cell or request id the work in this context belongs to.
REF: contextvars.ContextVar[str] = contextvars.ContextVar(
    "perfbench_ref", default=""
)

#: Environment keys handed to campaign spawn workers.
SPAN_DIR_ENV = "PERFBENCH_SPAN_DIR"
PARENT_ENV = "PERFBENCH_PARENT_SPAN"

#: Span name of the benchmark's own timed section.
ROOT = "bench.run"

#: (module, attribute path, span name) of every plain wrapped callable.
TARGETS = (
    ("repro.api", "execute", "api.execute"),
    ("repro.vehicle.trajectory", "Trajectory.sample", "vehicle.sample"),
    (
        "repro.vehicle.batch_vibration",
        "stack_vibration_fields",
        "vehicle.vibration",
    ),
    ("repro.sensors.batch", "stack_rig_streams", "sensors.streams"),
    ("repro.sensors.batch", "sense_imu_stacked", "sensors.sense"),
    ("repro.sensors.batch", "sense_acc_stacked", "sensors.sense"),
    (
        "repro.fusion.calibration",
        "calibrate_static_stacked",
        "fusion.calibrate",
    ),
    ("repro.fusion.reconstruction", "reconstruct_stacked", "fusion.reconstruct"),
    ("repro.fusion.batch_boresight", "BatchBoresightEstimator.run", "fusion.filter"),
    ("repro.geometry.batch", "orthonormalize_stack", "geometry.orthonormalize"),
    ("repro.experiments.batch_protocol", "run_static_ensemble", "experiments.chunk"),
    ("repro.experiments.batch_protocol", "run_dynamic_ensemble", "experiments.chunk"),
    ("repro.scenarios.faults", "apply_faults", "scenarios.faults"),
    ("repro.scenarios.cache", "canonical_digest", "scenarios.digest"),
    ("repro.scenarios.cache", "CampaignCache.lookup", "scenarios.cache_lookup"),
    (
        "repro.scenarios.campaign",
        "run_campaign_cells_sharded",
        "scenarios.campaign.pool",
    ),
    ("repro.service.executor", "run_jobs_inline", "service.batch"),
    ("repro.service.requests", "coalesce_requests", "service.coalesce"),
    ("repro.service.requests", "summarize_request", "service.regroup"),
    ("repro.analysis.montecarlo", "summarize_outcomes", "analysis.summarize"),
    ("repro.sabre.batch_cpu", "BatchSabreCpu.run_cycles", "sabre.run_cycles"),
    ("repro.sabre.batch_cpu", "link_batch_system", "sabre.link"),
    ("repro.sabre.harness", "build_stream", "comm.stream_build"),
)

#: The campaign's per-cell entry point, replaced by :func:`traced_cell`.
CELL_TARGET = ("repro.scenarios.campaign", "_run_cell_fast")

#: The process-wide tracer, if one is installed (worker hook state).
_ACTIVE: Tracer | None = None


class Tracer:
    """Collects spans from wrapped ``repro`` callables in this process.

    ``span_dir`` is where campaign spawn workers append their spans; a
    worker's own tracer has ``worker=True`` and writes its spans there
    after every cell.
    """

    def __init__(
        self,
        span_dir: Path | None = None,
        anchor: int | None = None,
        worker: bool = False,
        ref: str = "",
    ) -> None:
        self.pid = os.getpid()
        #: The run id the root span and its descendants carry.
        self.ref = ref
        self.span_dir = span_dir
        self.worker = worker
        #: Parent given to spans that open with no span open in their
        #: own context (dispatch threads, a worker's cells).
        self.anchor = anchor
        self.spans: list[tuple] = []
        #: id(request) -> request id, registered by the load generator.
        self.labels: dict[int, str] = {}
        #: id(jobs list) -> request ids merged into that batch.
        self.batch_refs: dict[int, str] = {}
        #: The campaign cell entry point :func:`traced_cell` runs.
        self.original_cell = None
        self._ids = itertools.count(1)
        self._base = self.pid << 32
        self._patched: list[tuple] = []

    # -- spans ---------------------------------------------------------

    def next_id(self) -> int:
        return self._base + next(self._ids)

    def record(self, sid, parent, name, start, end, ref, extra=None) -> None:
        self.spans.append(
            (sid, parent, name, start, end, ref, self.pid,
             threading.get_ident(), extra)
        )

    def wrap(self, fn, name: str, ref_of=None, after=None, on_enter=None):
        """``fn`` recording one ``name`` span per call.

        ``ref_of(args, kwargs)`` names the run, cell or request the call
        works for (spans opened inside inherit it; by default a span
        inherits its context's); ``after(args, kwargs, result)`` gives
        the span's ``extra`` value; ``on_enter(span_id)`` runs first.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = _CURRENT.get()
            if parent is None:
                parent = tracer.anchor
            sid = tracer.next_id()
            token = _CURRENT.set(sid)
            if ref_of is None:
                ref, ref_token = REF.get(), None
            else:
                ref = ref_of(args, kwargs)
                ref_token = REF.set(ref)
            if on_enter is not None:
                on_enter(sid)
            result = None
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter_ns()
                if ref_token is not None:
                    REF.reset(ref_token)
                _CURRENT.reset(token)
                extra = after(args, kwargs, result) if after is not None else None
                tracer.record(sid, parent, name, start, end, ref, extra)

        return traced

    def root(self):
        """Context manager for the run's root span (parent ``None``)."""
        return _RootSpan(self, self.ref)

    def label(self, obj, ref: str) -> None:
        """Name the request object ``obj`` for batch and regroup spans."""
        self.labels[id(obj)] = ref

    # -- patching ------------------------------------------------------

    def install(self) -> None:
        """Wrap every target wherever it is referenced."""
        global _ACTIVE
        hooks = self._hooks()
        for module_name, path, name in TARGETS:
            owner, attr, original = _resolve(module_name, path)
            ref_of, after, on_enter = hooks.get(name, (None, None, None))
            wrapper = self.wrap(original, name, ref_of, after, on_enter)
            self._replace(owner, attr, original, wrapper)
        owner, attr, original = _resolve(*CELL_TARGET)
        self.original_cell = original
        self._replace(owner, attr, original, traced_cell)
        self._wrap_peripherals()
        _ACTIVE = self

    def uninstall(self) -> None:
        """Restore every reference :meth:`install` replaced."""
        global _ACTIVE
        for holder, key, original, is_registry in reversed(self._patched):
            if is_registry:
                holder[key] = original
            else:
                setattr(holder, key, original)
        self._patched.clear()
        if _ACTIVE is self:
            _ACTIVE = None

    def _replace(self, owner, attr, original, wrapper) -> None:
        self._set(owner, attr, original, wrapper)
        if isinstance(owner, type):
            return
        for module_name, module in list(sys.modules.items()):
            if module is owner or not module_name.startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._set(module, key, original, wrapper)
        registry = sys.modules.get("repro.engines.registry")
        table = getattr(registry, "_REGISTRY", {})
        for entries in table.values():
            for engine, spec in list(entries.items()):
                if getattr(spec, "obj", None) is original:
                    entries[engine] = dataclasses.replace(spec, obj=wrapper)
                    self._patched.append((entries, engine, spec, True))

    def _set(self, holder, key, original, wrapper) -> None:
        setattr(holder, key, wrapper)
        self._patched.append((holder, key, original, False))

    def _wrap_peripherals(self) -> None:
        """Every batched peripheral access, the FPU apart."""
        batch_cpu = importlib.import_module("repro.sabre.batch_cpu")
        base = getattr(batch_cpu, "_BatchPeripheral", None)
        if base is None:
            return
        for cls in base.__subclasses__():
            name = "sabre.fpu" if "Fpu" in cls.__name__ else "sabre.peripheral"
            for method in ("read", "write", "tick"):
                original = cls.__dict__.get(method)
                if original is not None:
                    self._set(cls, method, original, self.wrap(original, name))

    def _hooks(self) -> dict:
        """Per-span extras: refs, arena size, the campaign parent link."""

        def request_ref(args, kwargs):
            return self.labels.get(id(args[0]), REF.get())

        def lookup_ref(args, kwargs):
            return self.labels.get(id(args[1]), REF.get())

        def batch_ref(args, kwargs):
            return self.batch_refs.get(id(args[0]), REF.get())

        def after_coalesce(args, kwargs, result):
            if result is not None:
                requests = args[0]
                jobs, merged, _ = result
                self.batch_refs[id(jobs)] = ",".join(
                    self.labels.get(id(requests[i]), "") for i in merged
                )
            return None

        def arena_bytes(args, kwargs, result):
            arena = kwargs.get("arena")
            return None if arena is None else arena.nbytes

        def pool_enter(sid):
            os.environ[PARENT_ENV] = str(sid)

        return {
            "service.regroup": (request_ref, None, None),
            "scenarios.cache_lookup": (lookup_ref, None, None),
            "service.batch": (batch_ref, None, None),
            "service.coalesce": (None, after_coalesce, None),
            "experiments.chunk": (None, arena_bytes, None),
            "scenarios.campaign.pool": (None, None, pool_enter),
        }

    # -- worker spans --------------------------------------------------

    def flush(self) -> None:
        """Append this process's spans to its file in ``span_dir``."""
        if self.span_dir is None or not self.spans:
            return
        path = Path(self.span_dir) / f"spans-{self.pid}.jsonl"
        with open(path, "a") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
        self.spans.clear()

    def collect(self) -> list[tuple]:
        """This process's spans plus every worker span in ``span_dir``."""
        spans = list(self.spans)
        if self.span_dir is not None:
            for path in sorted(Path(self.span_dir).glob("spans-*.jsonl")):
                with open(path) as lines:
                    spans.extend(tuple(json.loads(line)) for line in lines)
        return spans


class _RootSpan:
    def __init__(self, tracer: Tracer, ref: str) -> None:
        self.tracer = tracer
        self.ref = ref

    def __enter__(self):
        self.sid = self.tracer.next_id()
        self.tracer.anchor = self.sid
        self.tokens = (_CURRENT.set(self.sid), REF.set(self.ref))
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc_info):
        end = time.perf_counter_ns()
        REF.reset(self.tokens[1])
        _CURRENT.reset(self.tokens[0])
        self.tracer.record(self.sid, None, ROOT, self.start, end, self.ref)


def _resolve(module_name: str, path: str):
    """``(owner, attribute, object)`` for a dotted path in a module.

    Methods are read from the class ``__dict__``, so the plain function
    is what gets wrapped and later restored.
    """
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    if isinstance(owner, type):
        return owner, attr, owner.__dict__[attr]
    return owner, attr, getattr(owner, attr)


def traced_cell(cell, chunk_size=None):
    """The campaign cell entry point under a ``scenarios.campaign.cell`` span.

    In the benchmark process it records into the installed tracer; in
    a spawn worker it installs the worker's own tracer on first use
    and writes the worker's spans out after every cell.
    """
    tracer = _ACTIVE
    if tracer is None:
        span_dir = os.environ.get(SPAN_DIR_ENV)
        parent = os.environ.get(PARENT_ENV)
        tracer = Tracer(
            span_dir=Path(span_dir) if span_dir else None,
            anchor=int(parent) if parent else None,
            worker=True,
        )
        tracer.install()
    ref = f"{cell.scenario.name}/{cell.fault.name}"
    run_cell = tracer.wrap(tracer.original_cell, "scenarios.campaign.cell",
                           ref_of=lambda args, kwargs: ref)
    try:
        return run_cell(cell, chunk_size)
    finally:
        if tracer.worker:
            tracer.flush()


# ---------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------


class Span:
    """One recorded span, with its self and wait time once analysed."""

    __slots__ = ("sid", "parent", "name", "start", "end", "ref", "pid",
                 "tid", "extra", "self_ns", "wait_ns")

    def __init__(self, row) -> None:
        (self.sid, self.parent, self.name, self.start, self.end, self.ref,
         self.pid, self.tid, self.extra) = row
        self.self_ns = 0
        self.wait_ns = 0

    @property
    def duration(self) -> int:
        return self.end - self.start

    @property
    def timeline(self) -> tuple[int, int]:
        return (self.pid, self.tid)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def _union_ns(intervals: list[tuple[int, int]]) -> int:
    covered = 0
    last_end = None
    for start, end in sorted(intervals):
        if last_end is None or start > last_end:
            covered += end - start
            last_end = end
        elif end > last_end:
            covered += end - last_end
            last_end = end
    return covered


def analyze(rows: list[tuple]) -> list[Span]:
    """Spans with ``self_ns`` and ``wait_ns`` filled in (see module doc)."""
    spans = [Span(row) for row in rows]
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    for span in spans:
        kids = children.get(span.sid, ())
        clipped = [
            (max(kid.start, span.start), min(kid.end, span.end))
            for kid in kids
            if kid.end > span.start and kid.start < span.end
        ]
        covered = _union_ns(clipped)
        local = sum(kid.duration for kid in kids if kid.timeline == span.timeline)
        span.self_ns = span.duration - covered
        span.wait_ns = covered - local
    return spans


def timeline_balance(spans: list[Span]) -> dict:
    """Per timeline: sum of self + wait, and sum of its roots' durations.

    A root is a span whose parent is absent or on another timeline.
    The two sums are equal when nothing is counted twice; a negative
    self or wait anywhere means overlapping same-timeline spans.
    """
    by_id = {span.sid: span for span in spans}
    balance: dict[str, list[int]] = {}
    for span in spans:
        key = f"{span.pid}/{span.tid}"
        sums = balance.setdefault(key, [0, 0, 0])
        sums[0] += span.self_ns + span.wait_ns
        parent = by_id.get(span.parent)
        if parent is None or parent.timeline != span.timeline:
            sums[1] += span.duration
        if span.self_ns < 0 or span.wait_ns < 0:
            sums[2] += 1
    return {
        key: {"accounted_ns": a, "roots_ns": r, "negative_spans": n}
        for key, (a, r, n) in balance.items()
    }


def layer_table(spans: list[Span]) -> dict:
    """Per layer: self seconds, wait seconds and span count."""
    table: dict[str, dict] = {}
    for span in spans:
        row = table.setdefault(span.layer, {"self_s": 0.0, "wait_s": 0.0, "calls": 0})
        row["self_s"] += span.self_ns / 1e9
        row["wait_s"] += span.wait_ns / 1e9
        row["calls"] += 1
    return table


def span_metrics(spans: list[Span]) -> dict:
    """The per-layer metrics that come from spans alone.

    ``*_s`` sums are self seconds, except the inclusive
    ``api.execute_s`` and ``sabre.run_cycles_s`` and the percentiles.
    """
    by_name: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)

    def self_s(*names):
        return sum(s.self_ns for n in names for s in by_name[n]) / 1e9

    def incl_s(name):
        return sum(s.duration for s in by_name[name]) / 1e9

    def calls(*names):
        return sum(len(by_name[n]) for n in names)

    def median_s(name):
        spans_ = by_name[name]
        return statistics.median(s.duration for s in spans_) / 1e9 if spans_ else 0.0

    arena = [s.extra for s in by_name["experiments.chunk"] if s.extra]
    metrics = {
        "vehicle.sample_s": self_s("vehicle.sample"),
        "vehicle.sample_calls": calls("vehicle.sample"),
        "vehicle.vibration_s": self_s("vehicle.vibration"),
        "sensors.streams_s": self_s("sensors.streams"),
        "sensors.sense_s": self_s("sensors.sense"),
        "fusion.calibrate_s": self_s("fusion.calibrate"),
        "fusion.reconstruct_s": self_s("fusion.reconstruct"),
        "fusion.filter_s": self_s("fusion.filter"),
        "geometry.orthonormalize_s": self_s("geometry.orthonormalize"),
        "geometry.orthonormalize_calls": calls("geometry.orthonormalize"),
        "experiments.chunks": calls("experiments.chunk"),
        "experiments.chunk_s": self_s("experiments.chunk"),
        "experiments.arena_mib": max(arena, default=0) / 2**20,
        "scenarios.faults_s": self_s("scenarios.faults"),
        "scenarios.digest_s": self_s("scenarios.digest"),
        "scenarios.digest_calls": calls("scenarios.digest"),
        "scenarios.cache_lookup_s": self_s("scenarios.cache_lookup"),
        "service.batch_p50_s": median_s("service.batch"),
        "service.coalesce_s": self_s("service.coalesce"),
        "service.regroup_s": self_s("service.regroup"),
        "analysis.summarize_s": self_s("analysis.summarize"),
        "sabre.run_cycles_s": incl_s("sabre.run_cycles"),
        "sabre.peripheral_s": self_s("sabre.peripheral", "sabre.fpu"),
        "sabre.peripheral_calls": calls("sabre.peripheral", "sabre.fpu"),
        "sabre.fpu_s": self_s("sabre.fpu"),
        "sabre.link_s": self_s("sabre.link"),
        "comm.stream_build_s": self_s("comm.stream_build"),
        "api.execute_s": incl_s("api.execute"),
        "api.self_s": self_s("api.execute"),
    }
    metrics.update(_pool_metrics(by_name))
    return metrics


def _pool_metrics(by_name: dict) -> dict:
    """Campaign pool start-up, busy share and tail from cell spans."""
    cells = by_name["scenarios.campaign.cell"]
    pools = by_name["scenarios.campaign.pool"]
    if not cells or not pools:
        return {
            "scenarios.campaign.cell_p50_s": 0.0,
            "scenarios.campaign.first_cell_start_s": 0.0,
            "scenarios.campaign.pool_busy_frac": 0.0,
            "scenarios.campaign.tail_idle_s": 0.0,
        }
    pool_start = min(p.start for p in pools)
    pool_end = max(p.end for p in pools)
    workers = {cell.timeline for cell in cells}
    last_end_per_worker = [
        max(c.end for c in cells if c.timeline == worker) for worker in workers
    ]
    busy = sum(c.duration for c in cells)
    return {
        "scenarios.campaign.cell_p50_s": statistics.median(
            c.duration for c in cells
        ) / 1e9,
        "scenarios.campaign.first_cell_start_s": (
            min(c.start for c in cells) - pool_start
        ) / 1e9,
        "scenarios.campaign.pool_busy_frac": busy
        / (len(workers) * (pool_end - pool_start)),
        "scenarios.campaign.tail_idle_s": (
            pool_end - min(last_end_per_worker)
        ) / 1e9,
    }
