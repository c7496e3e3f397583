"""State arena, chunked scheduler and row-reduction contracts.

The load-bearing claim of :mod:`repro.experiments.arena` is
bit-identity by construction: chunking only partitions the job list —
every run's RNG tree is rooted at its own seed — so each seed's
outcome row is the same at every block size, and the one reduction,
:func:`~repro.analysis.montecarlo.summarize_rows`, runs over the rows
of the whole ensemble.  These tests pin that claim at the unit level
(arena buffer reuse, the block loop, the row reduction) and end to
end: model and fast rows compared seed by seed at blocks of 1, an
uneven 2 and R, for a faulted campaign cell crossing block
boundaries, and for one batch whose rows each carry their own fault
chain (seeds repeated under different chains).  The block size is the
arena's ``CHUNK_SIZE`` constant; tests that need small blocks patch it
around the call and materialize every row inside the patch.
"""

from types import SimpleNamespace

import numpy as np
import pytest

import repro.experiments.arena
from repro.analysis.montecarlo import (
    EnsembleJob,
    run_monte_carlo_static,
    summarize_outcomes,
    summarize_rows,
)
from repro.engines import assert_payloads_equal, resolve_engine
from repro.errors import ConfigurationError
from repro.experiments.arena import StateArena, iter_job_outcomes
from repro.experiments.batch_protocol import run_lockstep_jobs
from repro.experiments.table1 import static_estimator_config
from repro.geometry import EulerAngles
from repro.vehicle.profiles import static_tilt_profile


class TestStateArena:
    def test_take_shape_dtype_contiguity(self):
        arena = StateArena()
        view = arena.take("a", (3, 4))
        assert view.shape == (3, 4)
        assert view.dtype == np.float64
        assert view.flags["C_CONTIGUOUS"]

    def test_same_slot_reuses_backing(self):
        arena = StateArena()
        first = arena.take("a", (4, 8))
        first[...] = 7.0
        second = arena.take("a", (2, 8))
        assert np.shares_memory(first, second)
        # Never cleared on reuse: the old bits are still there.
        assert np.all(second == 7.0)

    def test_growth_reallocates(self):
        arena = StateArena()
        small = arena.take("a", 8)
        big = arena.take("a", 64)
        assert big.size == 64
        assert not np.shares_memory(small, big)

    def test_dtype_change_reallocates(self):
        arena = StateArena()
        floats = arena.take("a", 8)
        ints = arena.take("a", 8, np.int64)
        assert ints.dtype == np.int64
        assert not np.shares_memory(floats, ints)

    def test_distinct_slots_are_independent(self):
        arena = StateArena()
        a = arena.take("a", 16)
        b = arena.take("b", 16)
        assert not np.shares_memory(a, b)
        assert sorted(arena.slot_names) == ["a", "b"]
        assert arena.nbytes == 2 * 16 * 8

    def test_zeros_clears_only_the_view(self):
        arena = StateArena()
        arena.take("a", 8)[...] = 5.0
        assert np.all(arena.zeros("a", 8) == 0.0)

    def test_empty_name_rejected(self):
        with pytest.raises(ConfigurationError, match="name"):
            StateArena().take("", 4)


def _stub_blocks(seeds, block=None):
    """The seed blocks ``iter_job_outcomes`` forms, and its rows.

    Each block runs as a stub ensemble whose odd seeds diverge, so the
    loop is exercised without the lockstep pipeline.
    """
    blocks = []

    def ensemble_for_jobs(jobs, arena):
        block_seeds = [job.seed for job in jobs]
        blocks.append(block_seeds)
        diverged = [seed % 2 == 1 for seed in block_seeds]
        survivors = [s for s, bad in zip(block_seeds, diverged) if not bad]
        return SimpleNamespace(
            seeds=block_seeds,
            result=SimpleNamespace(diverged=diverged),
            outcomes=lambda: [("row", seed) for seed in survivors],
        )

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            "repro.experiments.batch_protocol._ensemble_for_jobs",
            ensemble_for_jobs,
        )
        if block is not None:
            patch.setattr(repro.experiments.arena, "CHUNK_SIZE", block)
        jobs = [SimpleNamespace(seed=seed) for seed in seeds]
        rows = list(iter_job_outcomes(jobs))
    return blocks, rows


class TestIterChunks:
    """The seed-block loop inside ``iter_job_outcomes``."""

    def test_uneven_tail(self):
        blocks, rows = _stub_blocks(range(5), block=2)
        assert blocks == [[0, 1], [2, 3], [4]]
        # Rows keep job order; a diverged seed yields None.
        assert rows == [
            (0, ("row", 0)),
            (1, None),
            (2, ("row", 2)),
            (3, None),
            (4, ("row", 4)),
        ]

    def test_single_chunk_when_large(self):
        blocks, rows = _stub_blocks([2, 3, 4])
        assert blocks == [[2, 3, 4]]
        assert rows == [(2, ("row", 2)), (3, None), (4, ("row", 4))]


class TestSummarizeRows:
    """The one reduction from per-seed rows to a summary."""

    @staticmethod
    def _outcomes(count: int, axes: int = 3) -> list[tuple]:
        rng = np.random.default_rng(42)
        outcomes = []
        for i in range(count):
            three_sigma = rng.uniform(0.5, 2.0, axes)
            error = rng.normal(0.0, 0.4, axes)
            covered = int(np.sum(np.abs(error) <= three_sigma))
            outcomes.append(
                (error, covered, float(rng.uniform(0, 0.2)), i % 2,
                 three_sigma)
            )
        return outcomes

    def test_mixed_rows_match_summarize_outcomes(self):
        outcomes = self._outcomes(5)
        # Diverged seeds out of numeric order: the summary lists them
        # in row order, and only the survivors are aggregated.
        rows = [
            (30, outcomes[0]),
            (12, None),
            (31, outcomes[1]),
            (32, outcomes[2]),
            (5, None),
            (33, outcomes[3]),
            (34, outcomes[4]),
        ]
        summary = summarize_rows(rows)
        # MonteCarloSummary.__eq__ is exact (array_equal, not allclose).
        assert summary == summarize_outcomes(outcomes, diverged_seeds=(12, 5))
        # A foreign type is not equal (__eq__ returns NotImplemented).
        assert summary != "not a summary"
        assert summary.diverged_seeds == (12, 5)
        assert summary.runs == 5

    def test_every_seed_diverged_gives_none(self):
        assert summarize_rows([(7, None), (8, None)]) is None


class TestAnees:
    def test_whitened_errors_give_dimensionality(self):
        # error exactly one sigma (= three_sigma / 3) on every axis
        # makes each run's NEES equal the axis count exactly.
        three_sigma = np.array([0.9, 1.5, 3.0])
        outcomes = [
            (three_sigma / 3.0, 3, 0.0, 0, three_sigma) for _ in range(4)
        ]
        assert summarize_outcomes(outcomes).anees == 3.0


def _static_jobs(runs: int) -> list[EnsembleJob]:
    """Compressed static-protocol jobs, mirroring run_monte_carlo_static."""
    trajectory = static_tilt_profile(
        duration=60.0, dwell_time=3.0, slew_time=1.5
    )
    # Shared objects, not per-job copies: the lockstep engine checks
    # homogeneity by identity.
    misalignment = EulerAngles.from_degrees(2.0, -1.5, 3.0)
    estimator_config = static_estimator_config(0.006)
    return [
        EnsembleJob(
            seed=700 + i,
            trajectory=trajectory,
            misalignment=misalignment,
            estimator_config=estimator_config,
            moving=False,
        )
        for i in range(runs)
    ]


def _rows_at_block(jobs, block=None):
    """The lockstep engine's rows, at seed block ``block`` if given."""
    with pytest.MonkeyPatch.context() as patch:
        if block is not None:
            patch.setattr(repro.experiments.arena, "CHUNK_SIZE", block)
        return run_lockstep_jobs(jobs)


def _assert_rows_equal(rows, oracle, label):
    """Rows equal seed by seed: values bitwise, types and dtypes too."""
    assert_payloads_equal(rows, oracle, label)
    types = [[type(value) for value in row or ()] for _, row in rows]
    assert types == [
        [type(value) for value in row or ()] for _, row in oracle
    ], label
    assert summarize_rows(rows) == summarize_rows(oracle), label


@pytest.mark.slow
class TestChunkBoundaryBitIdentity:
    def test_every_chunking_matches_the_serial_oracle(self):
        jobs = _static_jobs(5)
        oracle = resolve_engine("ensemble", "model")(jobs)
        assert summarize_rows(oracle).anees is not None
        # Blocks of 1, an uneven 2+2+1 split, R, and the unpatched size.
        for block in (1, 2, 5, None):
            rows = _rows_at_block(jobs, block)
            _assert_rows_equal(rows, oracle, f"block={block}")

    def test_chunks_share_one_truth_integration(self, truth_integrations):
        _rows_at_block(_static_jobs(3), 1)
        # Three blocks, one calibration level and one test drive.
        assert len(truth_integrations) == 2

    def test_explicit_arena_reuse_across_ensembles(self):
        jobs = _static_jobs(4)
        arena = StateArena()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(repro.experiments.arena, "CHUNK_SIZE", 2)
            first = list(iter_job_outcomes(jobs, arena=arena))
            slots_after_first = set(arena.slot_names)
            patch.setattr(repro.experiments.arena, "CHUNK_SIZE", 3)
            second = list(iter_job_outcomes(jobs, arena=arena))
        _assert_rows_equal(second, first, "second pass")
        # Reuse, not growth: a second pass takes the same slots.
        assert set(arena.slot_names) == slots_after_first

    def test_chunked_equals_monolithic_through_public_entry(self):
        monolithic = run_monte_carlo_static(
            runs=4, duration=60.0, dwell_time=3.0, slew_time=1.5,
            base_seed=700, engine="fast",
        )
        chunked = _rows_at_block(_static_jobs(4), 3)
        assert summarize_rows(chunked) == monolithic

    def test_validation(self):
        with pytest.raises(ConfigurationError, match="at least one"):
            list(iter_job_outcomes([]))


@pytest.mark.slow
class TestFaultedCampaignCellChunking:
    def test_faulted_cell_across_chunk_boundaries(self):
        from repro.scenarios.campaign import CampaignCell, fault_library
        from repro.scenarios.spec import scenario_library

        scenario = scenario_library()["highway"]
        cell = CampaignCell(
            scenario=scenario,
            fault=fault_library()["acc_dropout_window"],
            seeds=(910, 911, 912),
        )
        jobs = cell.jobs()
        oracle = resolve_engine("ensemble", "model")(jobs)
        # Blocks of 1, an uneven 2+1 split and R.
        for block in (1, 2, 3):
            rows = _rows_at_block(jobs, block)
            _assert_rows_equal(rows, oracle, f"block={block}")


def _mixed_chain_jobs(scenario_name: str) -> list[EnsembleJob]:
    """Six rows of one scenario, each with its own fault chain."""
    from repro.experiments.table1 import DEFAULT_MISALIGNMENT
    from repro.scenarios.campaign import fault_library, scenario_jobs
    from repro.scenarios.faults import SensorDropout
    from repro.scenarios.spec import scenario_library

    recipes = fault_library()
    scenario = scenario_library()[scenario_name]
    rows = [
        (5, ()),
        (5, recipes["acc_dropout_window"].faults),
        (6, recipes["lossy_burst_skew"].faults),
        (5, (SensorDropout(sensor="acc", start=30.0),)),
        (7, recipes["stuck_acc_axis"].faults),
        (6, ()),
    ]
    return scenario_jobs(
        scenario,
        rows,
        DEFAULT_MISALIGNMENT,
        scenario.build_estimator_config(fallback_hold=True),
    )


@pytest.mark.slow
class TestMixedChainRows:
    """One batch, a fault chain per row: rows keyed by index, not seed."""

    @pytest.mark.parametrize("scenario_name", ["static_bench", "highway"])
    def test_mixed_chains_match_the_oracle_at_every_chunking(
        self, scenario_name
    ):
        jobs = _mixed_chain_jobs(scenario_name)
        oracle = resolve_engine("ensemble", "model")(jobs)
        # A seed's rows differ when its chain does.
        assert not np.array_equal(oracle[0][1][0], oracle[1][1][0])
        for block in (1, 2, 6):
            rows = _rows_at_block(jobs, block)
            _assert_rows_equal(rows, oracle, f"{scenario_name} block={block}")

    def test_one_chain_per_seed(self):
        from repro.experiments.batch_protocol import run_static_ensemble
        from repro.scenarios.faults import SensorDropout

        job = _static_jobs(1)[0]
        cut = SensorDropout(sensor="acc", start=30.0)
        # A chain count that misses the seeds, or one flat chain.
        for faults in ([()], [cut, cut]):
            with pytest.raises(ConfigurationError, match="one fault chain"):
                run_static_ensemble(
                    [700, 701], job.misalignment, job.trajectory,
                    faults=faults,
                )


def test_default_chunk_size_sane():
    assert isinstance(repro.experiments.arena.CHUNK_SIZE, int)
    assert repro.experiments.arena.CHUNK_SIZE >= 1
