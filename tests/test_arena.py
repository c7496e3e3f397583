"""State arena, chunked scheduler and row-reduction contracts.

The load-bearing claim of :mod:`repro.experiments.arena` is
bit-identity by construction: chunking only partitions the job list —
every run's RNG tree is rooted at its own seed — so each seed's
outcome row is the same at every chunk size, and the one reduction,
:func:`~repro.analysis.montecarlo.summarize_rows`, runs over the rows
of the whole ensemble.  These tests pin that claim at the unit level
(arena buffer reuse, chunk iteration, the row reduction) and end to
end: model and fast rows compared seed by seed at chunk=1, an uneven
chunk=2 and chunk=R, and for a faulted campaign cell crossing chunk
boundaries.
"""

import numpy as np
import pytest

from repro.analysis.montecarlo import (
    EnsembleJob,
    run_monte_carlo_static,
    summarize_outcomes,
    summarize_rows,
)
from repro.engines import assert_payloads_equal, resolve_engine
from repro.errors import ConfigurationError
from repro.experiments.arena import (
    DEFAULT_CHUNK_SIZE,
    StateArena,
    iter_chunks,
    iter_job_outcomes,
)
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


class TestIterChunks:
    def test_uneven_tail(self):
        chunks = list(iter_chunks(list(range(5)), 2))
        assert chunks == [[0, 1], [2, 3], [4]]

    def test_single_chunk_when_large(self):
        assert list(iter_chunks([1, 2, 3], 10)) == [[1, 2, 3]]

    def test_chunk_size_validated(self):
        with pytest.raises(ConfigurationError, match="chunk"):
            list(iter_chunks([1], 0))


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
        oracle = resolve_engine("ensemble", "model")(jobs, 1)
        assert summarize_rows(oracle).anees is not None
        # chunk=1, an uneven 2+2+1 split, chunk=R, and the default.
        for chunk_size in (1, 2, 5, None):
            rows = run_lockstep_jobs(jobs, 1, chunk_size=chunk_size)
            _assert_rows_equal(rows, oracle, f"chunk_size={chunk_size}")

    def test_explicit_arena_reuse_across_ensembles(self):
        jobs = _static_jobs(4)
        arena = StateArena()
        first = list(iter_job_outcomes(jobs, chunk_size=2, arena=arena))
        slots_after_first = set(arena.slot_names)
        second = list(iter_job_outcomes(jobs, chunk_size=3, arena=arena))
        _assert_rows_equal(second, first, "second pass")
        # Reuse, not growth: a second pass takes the same slots.
        assert set(arena.slot_names) == slots_after_first

    def test_chunked_equals_monolithic_through_public_entry(self):
        monolithic = run_monte_carlo_static(
            runs=4, duration=60.0, dwell_time=3.0, slew_time=1.5,
            base_seed=700, engine="fast",
        )
        chunked = run_lockstep_jobs(_static_jobs(4), 1, chunk_size=3)
        assert summarize_rows(chunked) == monolithic

    def test_validation(self):
        with pytest.raises(ConfigurationError, match="chunk"):
            run_lockstep_jobs(_static_jobs(2), 1, chunk_size=0)
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
        oracle = resolve_engine("ensemble", "model")(jobs, 1)
        # chunk=1, an uneven 2+1 split and chunk=R.
        for chunk_size in (1, 2, 3):
            rows = run_lockstep_jobs(jobs, 1, chunk_size=chunk_size)
            _assert_rows_equal(rows, oracle, f"chunk_size={chunk_size}")


def test_default_chunk_size_sane():
    assert isinstance(DEFAULT_CHUNK_SIZE, int)
    assert DEFAULT_CHUNK_SIZE >= 1
