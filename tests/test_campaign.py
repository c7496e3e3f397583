"""The fault-injection campaign engine and its degradation report.

Three tiers, matching the CI lanes:

- fast: spec/grid validation, the scenario corpus, classification and
  report rendering on synthetic summaries;
- ``slow``: a mini grid run through both ``"campaign"`` engines,
  asserting the oracle and the lockstep path — in process and on a
  worker pool — agree cell by cell (the registry probe pins the same
  on a 1×2 grid);
- ``resilience``: the pool keeps every worker busy, submitting the
  next cell as soon as any finishes;
- ``campaign``: the full smoke grid — every scenario × every fault
  recipe × 8 seeds — through :func:`run_campaign`, compared against
  the checked-in golden degradation artifact.
"""

import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.analysis.reporting import (
    EXCEEDANCE_DEGRADED_THRESHOLD,
    classify_cell,
    degradation_report,
)
from repro.errors import ConfigurationError
from repro.resilience import (
    CampaignJournal,
    ChaosPool,
    ChaosSchedule,
    Supervisor,
    WorkerPool,
)
from repro.scenarios.cache import canonical_digest
from repro.scenarios.campaign import (
    CampaignCell,
    CampaignSpec,
    FaultSpec,
    fault_library,
    run_campaign,
    smoke_campaign_spec,
)
from repro.scenarios.spec import (
    PROFILE_BUILDERS,
    ScenarioSpec,
    scenario_library,
)

GOLDEN_PATH = Path(__file__).parent / "golden" / "campaign_smoke.json"


def _summary(**overrides) -> SimpleNamespace:
    """A duck-typed converged-cell summary for classification tests."""
    base = dict(
        runs=4,
        diverged_seeds=(),
        fallback_states=("full",) * 4,
        mean_exceedance=0.0,
        fallback_counts={"full": 4},
    )
    base.update(overrides)
    return SimpleNamespace(**base)


class TestScenarioSpecValidation:
    def test_unknown_profile_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown profile"):
            ScenarioSpec(name="x", profile="autobahn")

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(name="x", profile="highway", duration=0.0)

    def test_route_seed_only_for_randomized_profiles(self):
        with pytest.raises(ConfigurationError, match="route_seed"):
            ScenarioSpec(name="x", profile="highway", route_seed=1)
        ScenarioSpec(name="x", profile="city_drive", route_seed=1)

    def test_fault_instances_enforced(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(name="x", profile="highway", faults=("drop",))
        with pytest.raises(ConfigurationError):
            FaultSpec(name="x", faults=("drop",))

    def test_builds_a_trajectory(self):
        spec = ScenarioSpec(name="x", profile="highway", duration=60.0)
        trajectory = spec.build_trajectory()
        assert trajectory.duration <= 60.0

    def test_randomized_profile_is_reproducible(self):
        spec = ScenarioSpec(
            name="x", profile="city_drive", duration=60.0, route_seed=50
        )
        a = spec.build_trajectory().sample(10.0)
        b = spec.build_trajectory().sample(10.0)
        assert (a.time == b.time).all()
        assert (a.euler == b.euler).all()


class TestScenarioLibrary:
    def test_corpus_covers_the_acceptance_grid(self):
        library = scenario_library()
        # ISSUE acceptance floor: at least 6 scenarios in the smoke
        # grid; the corpus ships 7 and every profile builder is used.
        assert len(library) >= 6
        assert {s.profile for s in library.values()} <= set(PROFILE_BUILDERS)

    def test_every_scenario_materializes(self):
        for name, spec in scenario_library().items():
            trajectory = spec.build_trajectory()
            assert trajectory.duration > 0, name
            config = spec.build_estimator_config(fallback_hold=True)
            assert config.fallback_hold

    def test_off_road_carries_vibration_thermal_carries_drift(self):
        library = scenario_library()
        assert library["off_road"].vibration is not None
        assert library["thermal_ramp"].faults


class TestCampaignSpecValidation:
    def test_empty_axes_rejected(self):
        scenario = ScenarioSpec(name="s", profile="highway")
        fault = FaultSpec(name="f")
        for kwargs in (
            dict(scenarios=(), faults=(fault,), seeds=(1,)),
            dict(scenarios=(scenario,), faults=(), seeds=(1,)),
            dict(scenarios=(scenario,), faults=(fault,), seeds=()),
        ):
            with pytest.raises(ConfigurationError):
                CampaignSpec(name="c", **kwargs)

    def test_duplicate_names_and_seeds_rejected(self):
        scenario = ScenarioSpec(name="s", profile="highway")
        fault = FaultSpec(name="f")
        with pytest.raises(ConfigurationError, match="duplicate"):
            CampaignSpec(
                name="c",
                scenarios=(scenario, scenario),
                faults=(fault,),
                seeds=(1,),
            )
        with pytest.raises(ConfigurationError, match="distinct"):
            CampaignSpec(
                name="c",
                scenarios=(scenario,),
                faults=(fault,),
                seeds=(1, 1),
            )
        # A negative seed would quarantine its whole cell at run time.
        with pytest.raises(ConfigurationError, match="non-negative"):
            CampaignSpec(
                name="c",
                scenarios=(scenario,),
                faults=(fault,),
                seeds=(5, -1),
            )
        with pytest.raises(ConfigurationError, match="non-negative"):
            CampaignCell(scenario=scenario, fault=fault, seeds=(-1,))

    def test_cell_needs_seeds(self):
        with pytest.raises(ConfigurationError):
            CampaignCell(
                scenario=ScenarioSpec(name="s", profile="highway"),
                fault=FaultSpec(name="f"),
                seeds=(),
            )

    def test_grid_is_scenario_major(self):
        spec = CampaignSpec(
            name="c",
            scenarios=(
                ScenarioSpec(name="a", profile="highway"),
                ScenarioSpec(name="b", profile="stop_and_go"),
            ),
            faults=(FaultSpec(name="f"), FaultSpec(name="g")),
            seeds=(1, 2),
        )
        order = [(c.scenario.name, c.fault.name) for c in spec.cells()]
        assert order == [("a", "f"), ("a", "g"), ("b", "f"), ("b", "g")]

    def test_run_campaign_worker_validation(self):
        spec = smoke_campaign_spec()
        with pytest.raises(ConfigurationError, match="workers"):
            run_campaign(spec, workers=0)
        with pytest.raises(ConfigurationError, match="single-process"):
            run_campaign(spec, engine="model", workers=2)

    def test_fault_library_covers_the_acceptance_families(self):
        library = fault_library()
        # ISSUE acceptance floor: at least 4 fault types beyond doubt —
        # the library ships 5 including the healthy baseline.
        assert len(library) >= 4
        assert "nominal" in library
        assert not library["nominal"].faults


class TestClassification:
    def test_all_diverged_cell(self):
        assert classify_cell(None, expected_runs=8) == "diverged"

    def test_partial_divergence(self):
        summary = _summary(runs=3, diverged_seeds=(5,))
        assert classify_cell(summary, expected_runs=4) == "diverged"

    def test_degraded_by_hold(self):
        summary = _summary(
            fallback_states=("full", "degraded", "full", "full")
        )
        assert classify_cell(summary, expected_runs=4) == "degraded"

    def test_degraded_by_exceedance(self):
        summary = _summary(
            mean_exceedance=EXCEEDANCE_DEGRADED_THRESHOLD + 0.01
        )
        assert classify_cell(summary, expected_runs=4) == "degraded"

    def test_absorbed(self):
        assert classify_cell(_summary(), expected_runs=4) == "absorbed"

    def test_expected_runs_validated(self):
        with pytest.raises(ConfigurationError):
            classify_cell(_summary(), expected_runs=0)

    def test_report_renders_every_cell_and_totals(self):
        spec = CampaignSpec(
            name="unit",
            scenarios=(ScenarioSpec(name="a", profile="highway"),),
            faults=(FaultSpec(name="f"), FaultSpec(name="g")),
            seeds=(1, 2, 3, 4),
        )
        result = SimpleNamespace(
            spec=spec,
            cells=spec.cells(),
            summaries=(
                _summary(fallback_states=("degraded",) * 4,
                         fallback_counts={"degraded": 4}),
                None,
            ),
            classifications=lambda: ["degraded", "diverged"],
        )
        report = degradation_report(result)
        assert "# Degradation report: unit" in report
        assert "| a | f | 4 | 0 | degraded=4 | degraded |" in report
        assert "| a | g | 0 | 4 | - | diverged |" in report
        assert "cells: 2 — absorbed 0, degraded 1, diverged 1" in report


@pytest.mark.slow
class TestMiniGridEquivalence:
    """Both campaign engines agree on a real (small) grid."""

    def _spec(self) -> CampaignSpec:
        library = scenario_library()
        faults = fault_library()
        return CampaignSpec(
            name="mini",
            scenarios=(library["static_bench"], library["city_drive"]),
            faults=(faults["nominal"], faults["acc_dropout_window"]),
            seeds=(901, 902),
        )

    def test_model_and_fast_agree_cell_by_cell(self):
        spec = self._spec()
        model = run_campaign(spec, engine="model")
        # In process, then cells spread over a worker pool.
        for workers in (1, 2):
            fast = run_campaign(spec, engine="fast", workers=workers)
            assert fast.summaries == model.summaries
            assert fast.classifications() == model.classifications()
            assert fast.to_golden() == model.to_golden()
            # A clean run: every cell ran once, nothing retried.
            assert fast.statuses == ("completed",) * len(spec.cells())
            assert fast.resilience.retries == 0
            assert fast.resilience.timeouts == 0


    def test_in_process_cells_share_one_truth_integration(
        self, truth_integrations
    ):
        library = scenario_library()
        faults = fault_library()
        spec = CampaignSpec(
            name="shared-truth",
            scenarios=(library["static_bench"],),
            faults=(
                faults["nominal"],
                faults["acc_dropout_window"],
                faults["stuck_acc_axis"],
            ),
            seeds=(901,),
        )
        result = run_campaign(spec, engine="fast", workers=1)
        assert result.statuses == ("completed",) * 3
        # Three cells, one calibration level and one test drive.
        assert len(truth_integrations) == 2


@pytest.mark.resilience
class TestPooledRefill:
    """The campaign pool is refilled per cell, not run in waves."""

    def test_next_cell_starts_while_a_slow_cell_runs(self, tmp_path):
        # Cell 0 sleeps in its worker (no deadline, so it is merely
        # slow); cell 1 finishes first, and cell 2 must take its worker
        # right away instead of waiting for cell 0 to end a "wave".
        library = scenario_library()
        faults = fault_library()
        spec = CampaignSpec(
            name="refill",
            scenarios=(library["static_bench"],),
            faults=(
                faults["nominal"],
                faults["acc_dropout_window"],
                faults["stuck_acc_axis"],
            ),
            seeds=(901,),
        )
        schedule = ChaosSchedule(events=("delay",), delay=4.0)
        supervisor = Supervisor(
            pool_factory=lambda workers: ChaosPool(WorkerPool(workers), schedule)
        )
        journal = tmp_path / "journal.jsonl"
        result = run_campaign(
            spec, workers=2, supervisor=supervisor, journal=journal
        )
        assert result.statuses == ("completed",) * 3
        assert result.resilience.retries == 0
        digests = [canonical_digest(cell) for cell in spec.cells()]
        with CampaignJournal(journal) as records:
            order = [(r.digest, r.status) for r in records.records]
        assert order.index((digests[2], "started")) < order.index(
            (digests[0], "completed")
        )


@pytest.mark.campaign
class TestSmokeCampaign:
    """The CI smoke grid against its golden degradation artifact."""

    def test_smoke_grid_matches_golden(self):
        spec = smoke_campaign_spec()
        # Acceptance floor: >= 6 scenarios x >= 4 fault types x >= 8
        # seeds, end-to-end through run_campaign.
        assert len(spec.scenarios) >= 6
        assert len(spec.faults) >= 4
        assert len(spec.seeds) >= 8
        result = run_campaign(spec, engine="fast", workers=1)

        # Every run of every converged cell carries a fallback label.
        for cell, summary in zip(result.cells, result.summaries):
            if summary is None:
                continue
            assert len(summary.fallback_states) == summary.runs
            assert set(summary.fallback_states) <= {"full", "degraded"}

        golden = json.loads(GOLDEN_PATH.read_text())
        assert result.to_golden() == golden

        # The report renders one row per cell plus the totals line;
        # printed so CI's campaign-smoke lane (-s) logs it.
        report = degradation_report(result)
        assert report.count("\n|") == len(result.cells) + 2
        assert f"cells: {len(result.cells)}" in report
        print()
        print(report)
