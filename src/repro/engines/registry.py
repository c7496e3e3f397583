"""The engine registry: one dispatch subsystem for every oracle/fast pair.

Since PR 1 every hot numeric path in this reproduction ships as two
interchangeable engines — ``engine="model"`` (the cycle-accurate /
scalar verification oracle) and ``engine="fast"`` (the vectorized
NumPy twin, bit-identical by contract).  Before this module each pair
hand-rolled its own ``if engine == "fast"`` switch, its own validation
error and its own equivalence test plumbing.  The registry makes the
convention first-class:

- **Registration.**  An implementation declares itself with the
  :func:`register_engine` decorator::

      @register_engine("kalman", "fast", description="stacked lockstep")
      class BatchKalmanFilter: ...

  Exactly one engine per domain is flagged ``oracle=True``; every
  other *bit-exact* engine is verified against it by the registry
  equivalence harness (``tests/test_engine_registry.py``).  Engines
  that are deliberately *not* bit-identical to the oracle (e.g. the
  double-precision ``"reference"`` video warp, which differs from the
  fixed-point pair by quantization) register with ``bit_exact=False``
  and are exempt from the bit-identity sweep.

- **Resolution.**  Call sites replace their string switches with
  :func:`resolve_engine`::

      impl = resolve_engine("warp", engine)          # -> registered object
      impl = resolve_engine("warp", engine, allowed=("model", "fast"))

  Unknown domains and unknown engine names raise
  :class:`~repro.errors.EngineError` (a ``ConfigurationError``)
  listing what exists.

- **Probes.**  Each registration attaches, via
  :func:`register_probe`, a *probe*: ``probe(seed) -> payload``, a
  callable that drives the engine through a standard seeded scenario
  and returns a comparable payload.  The equivalence harness asserts
  ``probe_fast(seed) == probe_oracle(seed)`` bit-for-bit for every
  registered pair — a new backend registered with a probe gets oracle
  verification for free, with zero new test code.

Built-in engines load lazily: the registry knows which module defines
each ``(domain, name)`` pair and imports it on first resolution, so
resolving ``("ensemble", "model")`` never drags in the batched
pipeline and the float-reference video path never imports the FPGA
substrate.
"""

from __future__ import annotations

import dataclasses
import importlib
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

from repro.errors import EngineError

#: Where each built-in engine registers itself.  Resolution imports
#: only the module backing the requested ``(domain, name)`` pair, so
#: the laziness of the old inline dispatch (oracle users never import
#: the batch pipeline, and vice versa) is preserved.  Third-party
#: backends do not need an entry here — importing the module that
#: calls :func:`register_engine` is enough.
_BUILTIN_MODULES: dict[tuple[str, str], str] = {
    ("kalman", "model"): "repro.fusion.kalman",
    ("kalman", "fast"): "repro.fusion.batch_kalman",
    ("boresight", "model"): "repro.fusion.boresight",
    ("boresight", "fast"): "repro.fusion.batch_boresight",
    ("vibration", "model"): "repro.vehicle.vibration",
    ("vibration", "fast"): "repro.vehicle.batch_vibration",
    ("sensing", "model"): "repro.experiments.protocol",
    ("sensing", "fast"): "repro.sensors.batch",
    ("affine", "model"): "repro.fpga.affine_hw",
    ("affine", "fast"): "repro.fpga.affine_fast",
    ("warp", "reference"): "repro.video.stabilizer",
    ("warp", "model"): "repro.fpga.affine_fast",
    ("warp", "fast"): "repro.fpga.affine_fast",
    ("softfloat", "model"): "repro.sabre.softfloat",
    ("softfloat", "fast"): "repro.sabre.softfloat_array",
    ("ensemble", "model"): "repro.analysis.montecarlo",
    ("ensemble", "fast"): "repro.experiments.batch_protocol",
    ("campaign", "model"): "repro.scenarios.campaign",
    ("campaign", "fast"): "repro.scenarios.campaign",
    ("service", "model"): "repro.service.service",
    ("service", "fast"): "repro.service.service",
    ("sabre", "model"): "repro.sabre.harness",
    ("sabre", "fast"): "repro.sabre.harness",
    ("can", "model"): "repro.comm.can",
    ("can", "fast"): "repro.comm.fast",
    ("uart", "model"): "repro.comm.uart",
    ("uart", "fast"): "repro.comm.fast",
}


@dataclass(frozen=True)
class EngineSpec:
    """One registered engine implementation."""

    #: The dispatch surface this engine implements (``"kalman"``,
    #: ``"warp"``, ...).  Every engine of a domain honors the same
    #: calling contract, documented at its registration site.
    domain: str
    #: The name callers select it by (``engine="fast"``).
    name: str
    #: The registered object — class, function or module.
    obj: Any
    #: Whether this engine is the domain's verification oracle.
    oracle: bool = False
    #: Whether the engine claims bit-identity with the oracle (and is
    #: therefore swept by the registry equivalence harness).
    bit_exact: bool = True
    #: One-line human description for listings.
    description: str = ""
    #: ``probe(seed) -> payload``: drive this engine through the
    #: domain's standard seeded scenario.  Compared bitwise against
    #: the oracle's probe by the equivalence harness.
    probe: Callable[[int], Any] | None = field(default=None, compare=False)


_REGISTRY: dict[str, dict[str, EngineSpec]] = {}


def register_engine(
    domain: str,
    name: str,
    *,
    oracle: bool = False,
    bit_exact: bool = True,
    description: str = "",
) -> Callable[[Any], Any]:
    """Decorator registering an engine implementation.

    Also usable in call form for objects that cannot be decorated
    (e.g. modules): ``register_engine("softfloat", "fast")(module)``.
    Duplicate ``(domain, name)`` registrations and second oracles for
    a domain raise :class:`~repro.errors.EngineError`.
    """
    if not domain or not name:
        raise EngineError("engine domain and name must be non-empty")

    def _register(obj: Any) -> Any:
        entries = _REGISTRY.setdefault(domain, {})
        if name in entries:
            raise EngineError(
                f"engine {name!r} already registered in domain {domain!r}"
            )
        if oracle:
            existing = [s.name for s in entries.values() if s.oracle]
            if existing:
                raise EngineError(
                    f"domain {domain!r} already has oracle {existing[0]!r}; "
                    f"cannot register {name!r} as a second oracle"
                )
        entries[name] = EngineSpec(
            domain=domain,
            name=name,
            obj=obj,
            oracle=oracle,
            bit_exact=bit_exact,
            description=description,
        )
        return obj

    return _register


def register_probe(domain: str, name: str) -> Callable[[Callable], Callable]:
    """Decorator attaching an equivalence probe to a registered engine.

    For engines whose probe needs imports the defining module should
    not carry (the probes for the core filters drive whole experiment
    scenarios); see :mod:`repro.engines.probes`.
    """

    def _attach(fn: Callable[[int], Any]) -> Callable[[int], Any]:
        spec = engine_spec(domain, name)
        if spec.probe is not None:
            raise EngineError(
                f"engine {domain!r}/{name!r} already has a probe"
            )
        _REGISTRY[domain][name] = dataclasses.replace(spec, probe=fn)
        return fn

    return _attach


def _load(domain: str, name: str | None = None) -> None:
    """Import the builtin module(s) backing ``domain`` (or one entry)."""
    for (d, n), module in _BUILTIN_MODULES.items():
        if d != domain:
            continue
        if name is not None and n != name:
            continue
        if n not in _REGISTRY.get(domain, {}):
            importlib.import_module(module)


def domains() -> tuple[str, ...]:
    """All known engine domains (declared built-ins plus registered)."""
    known = {d for (d, _) in _BUILTIN_MODULES}
    known.update(_REGISTRY)
    return tuple(sorted(known))


def engine_names(domain: str) -> tuple[str, ...]:
    """The engine names selectable in ``domain``, oracle first."""
    _check_domain(domain)
    _load(domain)
    specs = _REGISTRY.get(domain, {})
    return tuple(
        sorted(specs, key=lambda n: (not specs[n].oracle, n))
    )


def engine_spec(domain: str, engine: str) -> EngineSpec:
    """The :class:`EngineSpec` for ``(domain, engine)``, loading lazily."""
    _check_domain(domain)
    if engine not in _REGISTRY.get(domain, {}):
        _load(domain, engine)
    spec = _REGISTRY.get(domain, {}).get(engine)
    if spec is None:
        raise EngineError(
            f"unknown engine {engine!r} for domain {domain!r}; "
            f"expected one of {list(engine_names(domain))}"
        )
    return spec


def resolve_engine(
    domain: str,
    engine: str,
    allowed: Sequence[str] | None = None,
) -> Any:
    """Resolve an engine selection to its registered implementation.

    The single replacement for every inline ``if engine == "fast"``
    branch.  ``allowed`` optionally restricts the selection to a
    subset of the domain (e.g. the fixed-point warp entry point
    excludes the float ``"reference"`` engine).
    """
    if allowed is not None and engine not in allowed:
        _check_domain(domain)
        raise EngineError(
            f"engine {engine!r} is not usable here; "
            f"expected one of {sorted(allowed)}"
        )
    return engine_spec(domain, engine).obj


def oracle_name(domain: str) -> str:
    """The name of ``domain``'s verification oracle."""
    for name in engine_names(domain):
        if _REGISTRY[domain][name].oracle:
            return name
    raise EngineError(f"domain {domain!r} has no registered oracle")


def bit_exact_pairs(
    only_domains: Iterable[str] | None = None,
) -> tuple[tuple[str, str, str], ...]:
    """Auto-discover every ``(domain, engine, oracle)`` equivalence pair.

    Covers each registered non-oracle engine with ``bit_exact=True``
    across all (or the given) domains — the parametrization source of
    the registry equivalence harness, so registering a new backend is
    all it takes to put it under oracle verification.
    """
    pairs = []
    for domain in only_domains if only_domains is not None else domains():
        names = engine_names(domain)
        oracle = next(
            (n for n in names if _REGISTRY[domain][n].oracle), None
        )
        if oracle is None:
            # A domain without an oracle has no pairs to verify; a
            # half-registered backend must not take the harness (and
            # every healthy domain's coverage) down with it.
            continue
        for name in names:
            spec = _REGISTRY[domain][name]
            if not spec.oracle and spec.bit_exact:
                pairs.append((domain, name, oracle))
    return tuple(pairs)


def get_probe(domain: str, engine: str) -> Callable[[int], Any]:
    """The equivalence probe of ``(domain, engine)``.

    The built-in probes live in :mod:`repro.engines.probes`, which is
    imported on demand here so probe registration never taxes library
    users.
    """
    spec = engine_spec(domain, engine)
    if spec.probe is None:
        importlib.import_module("repro.engines.probes")
        spec = engine_spec(domain, engine)
    if spec.probe is None:
        raise EngineError(
            f"engine {domain!r}/{engine!r} has no equivalence probe; "
            "register one with register_probe "
            "so the registry harness can verify it against the oracle"
        )
    return spec.probe


def _check_domain(domain: str) -> None:
    if domain not in {d for (d, _) in _BUILTIN_MODULES} and (
        domain not in _REGISTRY
    ):
        raise EngineError(
            f"unknown engine domain {domain!r}; "
            f"expected one of {list(domains())}"
        )
