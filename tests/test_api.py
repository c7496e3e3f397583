"""The ``repro.api`` façade: routing, knob uniformity, shim fidelity.

The api_redesign regression surface: the legacy entry points
(``run_monte_carlo_static``, ``run_monte_carlo_dynamic``,
``run_campaign``) are now thin shims over :func:`repro.api.execute`,
and these tests pin old-vs-new **bit-identity** — the refactor must
be invisible to every existing caller — plus the normalized execution
knobs (``engine=``, ``workers=``, ``cache=``, ``supervisor=``,
``journal=``), which are all checked before any side effect.  The
seed-block size is not a knob: tests that stream small blocks patch
the arena's ``CHUNK_SIZE``.
"""

import gc
import warnings

import pytest

import repro.experiments.arena
from repro.analysis.montecarlo import (
    run_monte_carlo_dynamic,
    run_monte_carlo_static,
)
from repro.api import execute
from repro.errors import ConfigurationError
from repro.resilience import Supervisor
from repro.sabre.harness import FirmwareRequest
from repro.scenarios.cache import CampaignCache
from repro.scenarios.campaign import (
    CampaignSpec,
    FaultSpec,
    run_campaign,
)
from repro.scenarios.faults import SensorDropout
from repro.scenarios.spec import ScenarioSpec
from repro.service import execute_requests
from repro.service.requests import ScenarioRequest, ScenarioResult

BENCH = ScenarioSpec(
    name="static_ensemble",
    profile="static_tilt",
    duration=80.0,
    profile_args=(("dwell_time", 6.0), ("slew_time", 2.0)),
    moving=False,
    measurement_sigma=0.006,
    motion_gate_rate=None,
)
#: A drive whose ACC drops out at t=0 on both seeds: every run diverges.
ALL_DIVERGED = ScenarioRequest(
    scenario=ScenarioSpec(
        name="drive", profile="city_drive", duration=60.0, route_seed=50
    ),
    seeds=(800, 801),
    acc_dropout=((800, 0.0), (801, 0.0)),
)


class TestScenarioRouting:
    def test_execute_scenario_request_returns_result(self):
        result = execute(ScenarioRequest(scenario=BENCH, seeds=(300, 301)))
        assert isinstance(result, ScenarioResult)
        assert result.summary.runs == 2
        assert not result.cache_hit
        assert result.source == "direct"

    def test_auto_engine_matches_oracle(self):
        request = ScenarioRequest(scenario=BENCH, seeds=(300, 301))
        auto = execute(request)
        model = execute(request, engine="model")
        assert auto.summary == model.summary

    def test_unknown_request_type_rejected(self):
        with pytest.raises(ConfigurationError, match="ScenarioRequest"):
            execute({"not": "a request"})

    def test_cache_knob_serves_repeats(self):
        cache = CampaignCache()
        request = ScenarioRequest(scenario=BENCH, seeds=(300, 301))
        first = execute(request, cache=cache)
        second = execute(request, cache=cache)
        assert not first.cache_hit
        assert second.cache_hit and second.source == "cache"
        assert first.summary == second.summary
        assert cache.hits == 1 and cache.misses == 1

    def test_every_seed_diverged_raises_before_caching(self):
        cache = CampaignCache()
        with pytest.raises(
            ConfigurationError, match=r"every run diverged \(seeds \(800, 801\)\)"
        ):
            execute(ALL_DIVERGED, cache=cache)
        assert len(cache) == 0

    def test_cached_all_diverged_verdict_raises(self):
        # The service caches None for a request whose every seed
        # diverged; a warm execute() must raise like a cold one.
        cache = CampaignCache()
        [served] = execute_requests([ALL_DIVERGED], cache=cache)
        assert served.summary is None and len(cache) == 1
        with pytest.raises(
            ConfigurationError, match=r"every run diverged \(seeds \(800, 801\)\)"
        ):
            execute(ALL_DIVERGED, cache=cache)


class TestKnobUniformity:
    def test_chunk_size_streams_bit_identically(self):
        request = ScenarioRequest(scenario=BENCH, seeds=(300, 301, 302))
        whole = execute(request, engine="fast")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(repro.experiments.arena, "CHUNK_SIZE", 2)
            chunked = execute(request, engine="fast")
        assert whole.summary == chunked.summary

    def test_worker_validation_precedes_compute(self):
        request = ScenarioRequest(scenario=BENCH, seeds=(300,))
        with pytest.raises(ConfigurationError, match="workers"):
            execute(request, engine="model", workers=0)
        with pytest.raises(ConfigurationError, match="one process"):
            execute(request, engine="fast", workers=2)

    @pytest.mark.parametrize("knob", ["workers", "supervisor", "journal"])
    @pytest.mark.parametrize(
        "single",
        [
            ScenarioRequest(scenario=BENCH, seeds=(300,)),
            FirmwareRequest(program="echo", instances=2, packets=2),
        ],
        ids=["scenario", "firmware"],
    )
    def test_non_campaign_requests_refuse_campaign_knobs(
        self, tmp_path, single, knob
    ):
        # One rule, before any work: workers, supervisor and journal
        # belong to campaign grids.
        path = tmp_path / "j.jsonl"
        value = {"workers": 2, "supervisor": Supervisor(), "journal": path}
        with pytest.raises(ConfigurationError, match="single-process"):
            execute(single, **{knob: value[knob]})
        assert not path.exists()


class TestLegacyShimFidelity:
    """The legacy entry points must be bit-identical to the façade."""

    @pytest.mark.parametrize("engine", ["model", "fast"])
    def test_static_shim_pins_old_behavior(self, engine):
        legacy = run_monte_carlo_static(
            runs=3,
            duration=80.0,
            base_seed=300,
            dwell_time=6.0,
            slew_time=2.0,
            engine=engine,
        )
        # The façade, fed the hand-built equivalent request, must agree
        # bit for bit — and so must the two engines with each other.
        direct = execute(
            ScenarioRequest(scenario=BENCH, seeds=(300, 301, 302)),
            engine=engine,
        )
        assert legacy == direct.summary

    @pytest.mark.parametrize("engine", ["model", "fast"])
    def test_dynamic_shim_pins_old_behavior(self, engine):
        legacy = run_monte_carlo_dynamic(
            runs=2,
            duration=60.0,
            base_seed=400,
            engine=engine,
            acc_dropout={400: 30.0, 999: 1.0},
            adaptive=True,
            fallback_hold=True,
        )
        from dataclasses import replace

        from repro.experiments.table1 import dynamic_estimator_config

        scenario = ScenarioSpec(
            name="dynamic_ensemble",
            profile="city_drive",
            duration=60.0,
            route_seed=50,
            moving=True,
            measurement_sigma=0.03,
            motion_gate_rate=0.4,
        )
        config = replace(
            dynamic_estimator_config(0.03, motion_gate_rate=0.4, adaptive=True),
            fallback_hold=True,
        )
        direct = execute(
            ScenarioRequest(
                scenario=scenario,
                seeds=(400, 401),
                estimator_config=config,
                fallback_hold=True,
                acc_dropout=((400, 30.0),),
            ),
            engine=engine,
        )
        assert legacy == direct.summary

    def test_campaign_shim_pins_old_behavior(self):
        spec = CampaignSpec(
            name="grid",
            scenarios=(BENCH,),
            faults=(
                FaultSpec(name="nominal"),
                FaultSpec(
                    name="dropout",
                    faults=(
                        SensorDropout(
                            sensor="acc", start=45.0, duration=10.0
                        ),
                    ),
                ),
            ),
            seeds=(300, 301),
        )
        legacy = run_campaign(spec, engine="fast")
        direct = execute(spec)
        assert legacy.spec == direct.spec
        assert legacy.cells == direct.cells
        for a, b in zip(legacy.summaries, direct.summaries):
            assert (a is None and b is None) or a == b

    def test_campaign_chunk_size_bit_identical(self):
        spec = CampaignSpec(
            name="grid",
            scenarios=(BENCH,),
            faults=(FaultSpec(name="nominal"),),
            seeds=(300, 301, 302),
        )
        whole = run_campaign(spec, engine="fast")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(repro.experiments.arena, "CHUNK_SIZE", 1)
            chunked = run_campaign(spec, engine="fast")
        assert whole.summaries == chunked.summaries

    def test_shim_cache_knob(self):
        cache = CampaignCache()
        first = run_monte_carlo_static(
            runs=2, duration=80.0, dwell_time=6.0, slew_time=2.0,
            engine="fast", cache=cache,
        )
        second = run_monte_carlo_static(
            runs=2, duration=80.0, dwell_time=6.0, slew_time=2.0,
            engine="fast", cache=cache,
        )
        assert first == second
        assert cache.hits == 1


class TestValidateFirst:
    """Rejected knobs leave nothing behind: no journal file, no handle."""

    @pytest.mark.parametrize("knobs", [{"workers": 2}], ids=["workers"])
    def test_rejected_campaign_opens_no_journal(self, tmp_path, knobs):
        spec = CampaignSpec(
            name="grid",
            scenarios=(BENCH,),
            faults=(FaultSpec(name="nominal"),),
            seeds=(300,),
        )
        path = tmp_path / "journal.jsonl"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ConfigurationError):
                execute(spec, journal=path, engine="model", **knobs)
            gc.collect()
        assert not path.exists()
        leaked = [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert leaked == []
