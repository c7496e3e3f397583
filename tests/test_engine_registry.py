"""The engine registry: dispatch contract and equivalence harness.

Two halves:

1. **Registry mechanics** — resolution, error paths (unknown domain,
   unknown engine, duplicate registration, oracle conflicts, the
   ``allowed`` subset restriction) and the guarantee that no inline
   ``engine == "fast"`` branch survives outside :mod:`repro.engines`.
2. **Equivalence harness** — for every bit-exact pair the registry
   discovers (``bit_exact_pairs``), the fast engine's probe payload
   must equal the oracle's **bit-for-bit**, on a pinned seed in the
   fast lane and across random seeds under hypothesis in the slow
   lane.  Registering a new backend with a probe is all it takes to
   put it under this verification.
"""

import ast
import inspect
import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.experiments.arena
from repro.engines import (
    assert_payloads_equal,
    bit_exact_pairs,
    domains,
    engine_names,
    engine_spec,
    get_probe,
    oracle_name,
    payloads_equal,
    register_engine,
    register_probe,
    resolve_engine,
)
from repro.errors import ConfigurationError, EngineError

#: Auto-discovered at collection time: every registered bit-exact
#: engine paired with its domain oracle.
PAIRS = bit_exact_pairs()

#: The harness cases: every pair at the arena's seed block (``None``:
#: unpatched), plus the "chunked" case — the ensemble lockstep probe
#: with ``CHUNK_SIZE`` patched to one seed per block, so every run
#: crosses a block boundary and reuses the arena.
CASES = [
    pytest.param(domain, name, oracle, None, id=f"{domain}-{name}-{oracle}")
    for domain, name, oracle in PAIRS
] + [pytest.param("ensemble", "fast", "model", 1, id="ensemble-chunked-model")]


def _fast_payload(domain: str, name: str, seed: int, block: int | None):
    """The fast probe's payload, run at seed block ``block`` if given."""
    with pytest.MonkeyPatch.context() as patch:
        if block is not None:
            patch.setattr(repro.experiments.arena, "CHUNK_SIZE", block)
        return get_probe(domain, name)(seed)


SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


class TestRegistryMechanics:
    def test_discovers_all_builtin_pairs(self):
        # The tentpole contract: every registered oracle/fast pair is
        # discovered — the eight historical domains, the comm stack
        # (can/uart) that PR 5 vectorized, the campaign grid engine,
        # the coalescing scenario service, and the batched Sabre
        # firmware harness this PR puts on top.
        assert len(PAIRS) >= 13
        discovered = {domain for domain, _, _ in PAIRS}
        assert {
            "kalman",
            "boresight",
            "vibration",
            "sensing",
            "affine",
            "softfloat",
            "warp",
            "ensemble",
            "can",
            "uart",
            "campaign",
            "service",
            "sabre",
        } <= discovered

    def test_every_domain_has_one_oracle(self):
        for domain in (
            "kalman",
            "boresight",
            "vibration",
            "sensing",
            "affine",
            "softfloat",
            "warp",
            "ensemble",
            "can",
            "uart",
            "campaign",
            "service",
            "sabre",
        ):
            assert domain in domains()
            oracle = oracle_name(domain)
            assert engine_spec(domain, oracle).oracle
            # Engine listings put the oracle first.
            assert engine_names(domain)[0] == oracle

    def test_resolution_returns_registered_object(self):
        from repro.fusion.batch_kalman import BatchKalmanFilter
        from repro.fusion.kalman import KalmanFilter

        assert resolve_engine("kalman", "model") is KalmanFilter
        assert resolve_engine("kalman", "fast") is BatchKalmanFilter

    def test_unknown_domain_rejected(self):
        with pytest.raises(EngineError, match="unknown engine domain"):
            resolve_engine("warp-core", "model")

    def test_unknown_engine_name_rejected(self):
        with pytest.raises(EngineError, match="unknown engine 'warp9'"):
            resolve_engine("kalman", "warp9")

    def test_engine_error_is_a_configuration_error(self):
        # Call sites that caught ConfigurationError before the
        # registry keep working.
        with pytest.raises(ConfigurationError):
            resolve_engine("kalman", "warp9")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(EngineError, match="already registered"):
            register_engine("kalman", "model")(object())

    def test_second_oracle_rejected(self):
        register_engine(
            "registry-test-dummy", "model", oracle=True
        )(object())
        with pytest.raises(EngineError, match="second oracle"):
            register_engine(
                "registry-test-dummy", "usurper", oracle=True
            )(object())

    def test_domain_without_oracle_reported(self):
        register_engine("registry-test-oracle-free", "fast")(object())
        with pytest.raises(EngineError, match="no registered oracle"):
            oracle_name("registry-test-oracle-free")
        # A half-registered backend must not take the harness down:
        # pair discovery skips the orphan domain and keeps covering
        # every healthy one.
        pairs = bit_exact_pairs()
        assert len(pairs) >= 13
        assert all(d != "registry-test-oracle-free" for d, _, _ in pairs)

    def test_empty_names_rejected(self):
        with pytest.raises(EngineError):
            register_engine("", "model")
        with pytest.raises(EngineError):
            register_engine("kalman", "")

    def test_allowed_subset_restriction(self):
        # warp_frame_fixed excludes the float reference engine even
        # though the domain registers it.
        assert resolve_engine("warp", "fast", allowed=("model", "fast"))
        with pytest.raises(EngineError, match="not usable here"):
            resolve_engine("warp", "reference", allowed=("model", "fast"))

    def test_missing_probe_reported(self):
        register_engine("registry-test-probe-free", "model", oracle=True)(
            object()
        )
        with pytest.raises(EngineError, match="no equivalence probe"):
            get_probe("registry-test-probe-free", "model")

    def test_duplicate_probe_rejected(self):
        register_engine("registry-test-reprobe", "model", oracle=True)(
            object()
        )
        register_probe("registry-test-reprobe", "model")(lambda seed: seed)
        with pytest.raises(EngineError, match="already has a probe"):
            register_probe("registry-test-reprobe", "model")(
                lambda seed: seed
            )

    def test_reference_warp_is_exempt_from_bit_identity(self):
        assert not engine_spec("warp", "reference").bit_exact
        assert ("warp", "reference", "model") not in PAIRS

    def test_no_inline_engine_branches_outside_registry(self):
        # The refactor's point of no return: dispatch-by-string never
        # reappears outside repro.engines.
        offenders = []
        for path in sorted(SRC.rglob("*.py")):
            if "engines" in path.relative_to(SRC).parts:
                continue
            text = path.read_text()
            for needle in (
                'engine == "fast"',
                'engine == "model"',
                'engine == "reference"',
                "engine == 'fast'",
                "engine == 'model'",
                "engine == 'reference'",
            ):
                if needle in text:
                    offenders.append(f"{path}: {needle}")
        assert offenders == []

    def test_one_process_pool_below_the_layers_it_serves(self):
        # Every parallel run shares one pool type, and the resilience
        # layer that owns it imports nothing from the service or
        # campaign layers it supervises.
        sites = [
            str(path.relative_to(SRC))
            for path in sorted(SRC.rglob("*.py"))
            for _ in range(path.read_text().count("ProcessPoolExecutor("))
        ]
        assert sites == ["resilience/pool.py"]
        upward = re.compile(
            r"^\s*(from|import)\s+repro\.(service|scenarios)\b"
            r"|^\s*from\s+repro\s+import\s.*\b(service|scenarios)\b",
            re.MULTILINE,
        )
        offenders = [
            path.name
            for path in sorted((SRC / "resilience").glob("*.py"))
            if upward.search(path.read_text())
        ]
        assert offenders == []

    def test_one_supervised_ladder_drives_the_pool(self):
        # Pool restarts, the deadline watchdog and the refill wait live
        # in Supervisor.map; campaigns and the service only call it.
        needles = (".restart(", ".kill_workers(", "FIRST_COMPLETED")
        offenders = [
            f"{path.relative_to(SRC)}: {needle}"
            for path in sorted(SRC.rglob("*.py"))
            if path.parent.name != "resilience"
            for needle in needles
            if needle in path.read_text()
        ]
        assert offenders == []

    def test_one_job_shape(self):
        # A job's fault chain is the whole per-row fault state: no
        # dropout side field, and every job is built in one function.
        sources = {
            str(path.relative_to(SRC)): path.read_text()
            for path in sorted(SRC.rglob("*.py"))
        }
        assert [
            p for p, text in sources.items() if "acc_dropout_time" in text
        ] == []
        assert [
            p for p, text in sources.items() if "EnsembleJob(" in text
        ] == ["scenarios/campaign.py"]
        assert sources["scenarios/campaign.py"].count("EnsembleJob(") == 1

    def test_one_chunk_size(self):
        # The lockstep core owns its seed block: no function takes a
        # chunk_size, no engine flags that it accepts one, and only the
        # arena assigns the block size.
        params, flags, assigned = [], [], []
        for path in sorted(SRC.rglob("*.py")):
            where = str(path.relative_to(SRC))
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.arg) and node.arg == "chunk_size":
                    params.append(where)
                words = [
                    getattr(node, field, None)
                    for field in ("arg", "attr", "id", "name", "value")
                ]
                if any(
                    isinstance(word, str) and "accepts_chunk_size" in word
                    for word in words
                ):
                    flags.append(where)
                if (
                    isinstance(getattr(node, "ctx", None), ast.Store)
                    and isinstance(node, ast.Name | ast.Attribute)
                    and (words[1] or words[2]).endswith("CHUNK_SIZE")
                ):
                    assigned.append(where)
        assert params == []
        assert flags == []
        assert assigned == ["experiments/arena.py"]

    def test_one_home_for_process_parallelism(self):
        # Process parallelism is a campaign knob: only the resilience
        # layer touches the pool type, no ensemble entry point takes
        # workers, and only the campaign oracle flags itself
        # single-process (the façade refuses workers for every other
        # request type).
        from repro.analysis.montecarlo import (
            run_monte_carlo_dynamic,
            run_monte_carlo_static,
        )

        pool_users, flagged = [], []
        for path in sorted(SRC.rglob("*.py")):
            where = str(path.relative_to(SRC))
            for node in ast.walk(ast.parse(path.read_text())):
                imported = []
                if isinstance(node, ast.Import):
                    imported = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    imported = [node.module] + [
                        f"{node.module}.{alias.name}" for alias in node.names
                    ]
                named = {getattr(node, f, None) for f in ("id", "attr", "name")}
                if path.parent.name != "resilience" and (
                    "repro.resilience.pool" in imported or "WorkerPool" in named
                ):
                    pool_users.append(where)
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Store)
                    and node.attr == "single_process"
                ):
                    flagged.append(where)
        assert pool_users == []
        entry_points = [
            resolve_engine("ensemble", name)
            for name in engine_names("ensemble")
        ] + [run_monte_carlo_static, run_monte_carlo_dynamic]
        assert [
            f.__name__
            for f in entry_points
            if "workers" in inspect.signature(f).parameters
        ] == []
        assert flagged == ["scenarios/campaign.py"]

    def test_divergence_is_reported_in_one_place(self):
        # Every summary comes from summarize_rows; only execute() turns
        # "every seed diverged" into an error, and no code recovers
        # from an error by matching its message.
        sources = {
            str(path.relative_to(SRC)): path.read_text()
            for path in sorted(SRC.rglob("*.py"))
        }
        assert [p for p, text in sources.items() if "in str(exc)" in text] == []
        assert [
            p for p, text in sources.items() if "every run diverged" in text
        ] == ["api.py"]


class TestPayloadComparison:
    def test_structural_mismatches_detected(self):
        import numpy as np

        assert payloads_equal({"a": np.arange(3)}, {"a": np.arange(3)})
        assert not payloads_equal({"a": 1}, {"b": 1})
        assert not payloads_equal([1, 2], [1, 2, 3])
        assert not payloads_equal(
            np.arange(3), np.arange(3, dtype=np.float64)
        )
        assert not payloads_equal(
            np.array([1.0, 2.0]),
            np.array([1.0, np.nextafter(2.0, 3.0)]),
        )

    def test_nan_slots_match_positionally(self):
        import numpy as np

        a = np.array([1.0, np.nan])
        assert payloads_equal(a, a.copy())
        assert not payloads_equal(a, np.array([np.nan, 1.0]))


class TestEquivalenceHarness:
    """Every registered pair, verified against its oracle via probes."""

    @pytest.mark.parametrize("domain,name,oracle,block", CASES)
    def test_pair_bit_identical_on_pinned_seed(
        self, domain, name, oracle, block
    ):
        fast = _fast_payload(domain, name, 7, block)
        reference = get_probe(domain, oracle)(7)
        assert_payloads_equal(fast, reference, path=f"{domain}/{name}")

    @pytest.mark.slow
    @pytest.mark.parametrize("domain,name,oracle,block", CASES)
    @settings(
        max_examples=3,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=st.integers(min_value=0, max_value=2**16 - 1))
    def test_pair_bit_identical_on_random_configs(
        self, domain, name, oracle, block, seed
    ):
        # The scenarios derive their inputs and configurations from
        # the seed, so this sweeps random configs per pair.
        fast = _fast_payload(domain, name, seed, block)
        reference = get_probe(domain, oracle)(seed)
        assert_payloads_equal(fast, reference, path=f"{domain}/{name}")


def _fault_matrix(seed: int):
    """A deterministic random fault stack drawn from ``seed``.

    Crosses the three fault families whose serial/batched application
    must stay bit-identical: windowed (jittered) dropouts, stuck axes
    and clock skew — the ensembles' full injection surface.
    """
    import numpy as np

    from repro.scenarios.faults import ClockSkew, SensorDropout, StuckAxis

    rng = np.random.default_rng(seed)
    faults = []
    if rng.uniform() < 0.8:
        faults.append(
            SensorDropout(
                sensor="acc",
                start=float(rng.uniform(20.0, 55.0)),
                duration=float(rng.uniform(2.0, 12.0)),
                jitter=float(rng.uniform(0.0, 3.0)),
                salt=int(rng.integers(0, 8)),
            )
        )
    if rng.uniform() < 0.8:
        faults.append(
            StuckAxis(
                sensor="acc",
                axis=int(rng.integers(0, 2)),
                start=float(rng.uniform(20.0, 60.0)),
                duration=float(rng.uniform(3.0, 15.0)),
            )
        )
    if rng.uniform() < 0.8:
        faults.append(
            ClockSkew(
                sensor="acc",
                ppm=float(rng.uniform(-400.0, 400.0)),
                jitter_ppm=float(rng.uniform(0.0, 50.0)),
                salt=int(rng.integers(0, 8)),
            )
        )
    return tuple(faults)


class TestFaultedEnsembleBitIdentity:
    """Serial vs batched ensembles stay bit-identical *under injection*.

    The registry harness covers the nominal path; these sweep random
    fault matrices (dropout windows × stuck axes × clock skew) through
    both ``"ensemble"`` engines with the degradation ladder armed and
    assert the summaries — including the per-run ``fallback_states`` —
    compare equal.
    """

    @staticmethod
    def _run(engine: str, seed: int):
        from repro.analysis.montecarlo import run_monte_carlo_dynamic

        return run_monte_carlo_dynamic(
            runs=2,
            duration=80.0,
            base_seed=500 + (seed % 89),
            engine=engine,
            faults=_fault_matrix(seed),
            fallback_hold=True,
        )

    def test_faulted_summaries_bit_identical_on_pinned_seed(self):
        fast = self._run("fast", 7)
        reference = self._run("model", 7)
        assert fast == reference
        assert len(fast.fallback_states) == fast.runs

    @pytest.mark.slow
    @settings(
        max_examples=3,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=st.integers(min_value=0, max_value=2**16 - 1))
    def test_faulted_summaries_bit_identical_on_random_matrices(
        self, seed
    ):
        fast = self._run("fast", seed)
        reference = self._run("model", seed)
        assert fast == reference
