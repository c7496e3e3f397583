"""The async scenario-execution service: coalescing, backpressure, fallback.

The tentpole contracts of :mod:`repro.service`:

1. **Bit-identity under coalescing** — N concurrent requests, merged
   into lockstep batches however the batcher groups them (shared
   seeds, overlapping dropout schedules, mixed fault recipes, multiple
   compatibility groups), each receive a summary equal to running
   that request *alone* through the serial one-at-a-time oracle.
2. **Backpressure** — a full admission queue rejects with the typed
   :class:`~repro.errors.ServiceOverloadError`; already-admitted
   requests still complete.
3. **Graceful degradation** — a dead worker pool is restarted and the
   batch retried; only a pool that stays dead through every attempt
   sends the batch to serial per-seed execution.  Both are recorded
   in the metrics, with results still bit-identical.
4. **Cache tier** — a repeated request is served from the result
   cache without re-entering the batcher.

The registry's ``"service"`` domain covers contract (1) again under
the automatic oracle harness (``tests/test_engine_registry.py``);
these tests pin the service-specific machinery around it.
"""

import asyncio
import threading
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.engines import resolve_engine
from repro.errors import ConfigurationError, ServiceOverloadError
from repro.resilience import RetryPolicy, Supervisor
from repro.scenarios.cache import CampaignCache
from repro.scenarios.campaign import FaultSpec
from repro.scenarios.faults import SensorDropout
from repro.scenarios.spec import ScenarioSpec
from repro.service import (
    DynamicBatcher,
    ScenarioRequest,
    ScenarioService,
    coalesce_requests,
    execute_requests,
    summarize_request,
)
from repro.service.metrics import percentile

pytestmark = pytest.mark.service

BENCH = ScenarioSpec(
    name="bench",
    profile="static_tilt",
    duration=80.0,
    profile_args=(("dwell_time", 6.0), ("slew_time", 2.0)),
    moving=False,
    measurement_sigma=0.006,
    motion_gate_rate=None,
)
DRIVE = ScenarioSpec(
    name="drive", profile="city_drive", duration=60.0, route_seed=50
)
DROPOUT_FAULT = FaultSpec(
    name="dropout",
    faults=(SensorDropout(sensor="acc", start=45.0, duration=10.0),),
)


def _mixed_requests(base: int = 300) -> list[ScenarioRequest]:
    """Two compatibility groups with overlapping seeds and mixed chains."""
    return [
        ScenarioRequest(scenario=BENCH, seeds=(base, base + 1)),
        ScenarioRequest(scenario=BENCH, seeds=(base + 1, base + 2)),
        ScenarioRequest(scenario=BENCH, seeds=(base,)),
        ScenarioRequest(
            scenario=BENCH, seeds=(base, base + 3), fault=DROPOUT_FAULT
        ),
        ScenarioRequest(scenario=DRIVE, seeds=(base + 10, base + 11)),
        ScenarioRequest(
            scenario=DRIVE,
            seeds=(base + 10, base + 12),
            acc_dropout=((base + 10, 30.0),),
        ),
    ]


def _oracle(requests):
    return resolve_engine("service", "model")(list(requests), 1)


@pytest.fixture(scope="module")
def mixed_oracle():
    return _oracle(_mixed_requests())


def _kill_when_spawned(pool):
    """SIGKILL ``pool``'s workers shortly after they spawn (a real kill)."""
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        processes = list((pool._pool._processes or {}).values())
        if processes:
            time.sleep(0.2)  # let the batch reach the workers
            for process in processes:
                process.kill()
            return
        time.sleep(0.01)


class _DeadPool:
    """A worker pool that never comes back: every submit kills it again."""

    def __init__(self, workers: int) -> None:
        self.workers = workers
        self.broken = False

    def submit(self, fn, *args):
        self.broken = True
        raise BrokenProcessPool("worker killed")

    def kill_workers(self) -> None:
        self.broken = True

    def restart(self) -> None:
        self.broken = False

    def shutdown(self) -> None:
        pass


class TestRequestContract:
    def test_seeds_validated(self):
        with pytest.raises(ConfigurationError, match="needs seeds"):
            ScenarioRequest(scenario=BENCH, seeds=())
        with pytest.raises(ConfigurationError, match="distinct"):
            ScenarioRequest(scenario=BENCH, seeds=(1, 1))
        # NumPy refuses a negative seed; caught here, it cannot
        # quarantine the valid requests of the batch it would join.
        with pytest.raises(ConfigurationError, match="non-negative"):
            ScenarioRequest(scenario=BENCH, seeds=(1, -1))
        assert ScenarioRequest(scenario=BENCH, seeds=(2**64,)).seeds == (2**64,)

    def test_dropout_schedule_validated(self):
        with pytest.raises(ConfigurationError, match="not in the request"):
            ScenarioRequest(
                scenario=BENCH, seeds=(1, 2), acc_dropout=((3, 10.0),)
            )
        with pytest.raises(ConfigurationError, match="twice"):
            ScenarioRequest(
                scenario=BENCH,
                seeds=(1, 2),
                acc_dropout=((1, 10.0), (1, 20.0)),
            )
        # The dropout's own checks run at construction, so a bad time
        # never reaches (and quarantines) a shared batch.
        for time in (-5.0, float("nan")):
            with pytest.raises(ConfigurationError, match="start must be"):
                ScenarioRequest(
                    scenario=BENCH, seeds=(3,), acc_dropout=((3, time),)
                )

    def test_field_types_validated(self):
        # A mistyped field shares its group key with valid requests;
        # admitted, it would fail every request of the batch it joins.
        for field, value in (
            ("fault", DROPOUT_FAULT.faults[0]),
            ("fault", DROPOUT_FAULT.faults),
            ("scenario", "bench"),
            ("misalignment", (0.01, 0.02, 0.03)),
            ("estimator_config", {"fallback_hold": True}),
        ):
            kwargs = {"scenario": BENCH, "seeds": (1,), field: value}
            with pytest.raises(ConfigurationError, match=f"{field} must be"):
                ScenarioRequest(**kwargs)

    def test_misalignment_defaults_to_campaign_default(self):
        from repro.experiments.table1 import DEFAULT_MISALIGNMENT

        request = ScenarioRequest(scenario=BENCH, seeds=(1,))
        assert request.misalignment == DEFAULT_MISALIGNMENT

    def test_group_key_ignores_seeds_and_fault_chains(self):
        a = ScenarioRequest(scenario=BENCH, seeds=(1, 2))
        for same in (
            ScenarioRequest(
                scenario=BENCH, seeds=(7,), acc_dropout=((7, 5.0),)
            ),
            ScenarioRequest(scenario=BENCH, seeds=(1,), fault=DROPOUT_FAULT),
        ):
            assert a.group_key() == same.group_key()
        for other in (
            ScenarioRequest(scenario=DRIVE, seeds=(1,)),
            ScenarioRequest(scenario=BENCH, seeds=(1,), fallback_hold=True),
        ):
            assert a.group_key() != other.group_key()

    def test_row_keys_chain_scenario_recipe_then_dropout(self):
        cut = SensorDropout(sensor="acc", start=30.0)
        request = ScenarioRequest(
            scenario=DRIVE,
            seeds=(2, 1),
            fault=DROPOUT_FAULT,
            acc_dropout=((1, 30.0),),
        )
        assert request.row_keys() == [
            (2, DROPOUT_FAULT.faults),
            (1, DROPOUT_FAULT.faults + (cut,)),
        ]
        assert [(job.seed, job.faults) for job in request.jobs()] == (
            request.row_keys()
        )

    def test_jobs_share_one_materialization(self):
        request = ScenarioRequest(scenario=BENCH, seeds=(1, 2, 3))
        jobs = request.jobs()
        assert [job.seed for job in jobs] == [1, 2, 3]
        assert all(job.trajectory is jobs[0].trajectory for job in jobs)
        assert all(
            job.estimator_config is jobs[0].estimator_config for job in jobs
        )


class TestCoalescing:
    def test_merges_shared_seeds_once(self):
        requests = [
            ScenarioRequest(scenario=BENCH, seeds=(1, 2)),
            ScenarioRequest(scenario=BENCH, seeds=(2, 3)),
        ]
        jobs, merged, keys = coalesce_requests(requests)
        assert [job.seed for job in jobs] == [1, 2, 3]
        assert merged == [0, 1]
        assert keys == [(job.seed, job.faults) for job in jobs]
        assert all(job.trajectory is jobs[0].trajectory for job in jobs)

    def test_agreeing_dropout_schedules_merge(self):
        requests = [
            ScenarioRequest(
                scenario=DRIVE, seeds=(1, 2), acc_dropout=((1, 30.0),)
            ),
            ScenarioRequest(
                scenario=DRIVE, seeds=(1, 3), acc_dropout=((1, 30.0),)
            ),
        ]
        jobs, merged, keys = coalesce_requests(requests)
        assert merged == [0, 1]
        cut = (SensorDropout(sensor="acc", start=30.0),)
        assert keys == [(1, cut), (2, ()), (3, ())]
        assert [(job.seed, job.faults) for job in jobs] == keys

    def test_conflicting_chains_become_separate_rows(self):
        # Nothing defers: the same seed under another dropout time or
        # another recipe is another row of the same batch.
        requests = [
            ScenarioRequest(
                scenario=DRIVE, seeds=(1, 2), acc_dropout=((1, 30.0),)
            ),
            ScenarioRequest(
                scenario=DRIVE, seeds=(1,), acc_dropout=((1, 55.0),)
            ),
            ScenarioRequest(scenario=DRIVE, seeds=(4,)),
            ScenarioRequest(scenario=DRIVE, seeds=(1,), fault=DROPOUT_FAULT),
        ]
        jobs, merged, keys = coalesce_requests(requests)
        assert merged == [0, 1, 2, 3]
        assert keys == [
            (1, (SensorDropout(sensor="acc", start=30.0),)),
            (2, ()),
            (1, (SensorDropout(sensor="acc", start=55.0),)),
            (4, ()),
            (1, DROPOUT_FAULT.faults),
        ]
        assert [(job.seed, job.faults) for job in jobs] == keys

    def test_summarize_request_regroups_per_request(self):
        # Synthetic rows: summarize_request must select this request's
        # rows in request order and mask the diverged ones.
        import numpy as np

        row = lambda v: (  # noqa: E731 - tiny local factory
            np.array([v, v]),
            2,
            0.0,
            0,
            np.array([1.0, 1.0]),
        )
        cut = (SensorDropout(sensor="acc", start=60.0),)
        outcome_by_row = {
            (1, ()): row(0.1),
            (2, ()): None,
            (3, ()): row(0.3),
            (1, cut): None,
        }
        request = ScenarioRequest(scenario=BENCH, seeds=(3, 2, 1))
        summary = summarize_request(request, outcome_by_row)
        assert summary.runs == 2
        assert summary.diverged_seeds == (2,)
        # The same seed under another chain reads another row.
        cut_request = ScenarioRequest(
            scenario=BENCH, seeds=(3, 1), acc_dropout=((1, 60.0),)
        )
        cut_summary = summarize_request(cut_request, outcome_by_row)
        assert cut_summary.runs == 1
        assert cut_summary.diverged_seeds == (1,)
        all_dead = summarize_request(
            ScenarioRequest(scenario=BENCH, seeds=(2,)), outcome_by_row
        )
        assert all_dead is None


class TestServiceBitIdentity:
    def test_concurrent_requests_identical_to_isolated_serial(
        self, mixed_oracle
    ):
        requests = _mixed_requests()
        oracle = mixed_oracle
        cache = CampaignCache()
        service = ScenarioService(
            workers=0, max_batch_size=16, max_wait=0.01, cache=cache
        )
        with service:
            results = execute_requests(requests, service=service)
        assert [r.request for r in results] == requests
        for reference, result in zip(oracle, results):
            assert result.summary == reference
        # Compatible requests really shared batches: two groups served
        # six requests.
        assert service.metrics.batches < len(requests)
        snapshot = service.snapshot()
        assert snapshot["batch_occupancy"] > 1.0
        assert snapshot["completed"] == len(requests)
        assert snapshot["latency_p99_seconds"] >= snapshot[
            "latency_p50_seconds"
        ]

    def test_fault_recipes_share_their_group_batch(self, mixed_oracle):
        # Rows carry their own fault chains, so the dropout recipe and
        # the scheduled dropout join their scenario's batch: one batch
        # per scenario, one row per distinct (seed, chain) — five
        # bench rows and four drive rows.
        service = ScenarioService(workers=0, max_batch_size=16, max_wait=0.01)
        with service:
            results = execute_requests(_mixed_requests(), service=service)
        assert service.metrics.batches == 2
        assert service.metrics.batched_jobs == 9
        assert [r.source for r in results] == ["coalesced"] * 6
        assert [r.batch_size for r in results] == [4, 4, 4, 4, 2, 2]
        for reference, result in zip(mixed_oracle, results):
            assert result.summary == reference

    def test_dropout_request_completes_beside_a_plain_one(self):
        # A dropout-scheduled request and a plain one of the same group
        # run as one batch, and both complete at their first attempt
        # (an invalid dropout time is refused at construction, see
        # TestRequestContract, so it cannot quarantine the batch).
        requests = [
            ScenarioRequest(scenario=BENCH, seeds=(1, 2)),
            ScenarioRequest(
                scenario=BENCH, seeds=(3,), acc_dropout=((3, 50.0),)
            ),
        ]
        results = execute_requests(requests)
        assert [r.source for r in results] == ["coalesced"] * 2
        assert [r.attempts for r in results] == [1, 1]
        assert [r.batch_size for r in results] == [2, 2]
        assert [r.summary for r in results] == _oracle(requests)

    def test_warm_cache_serves_repeats_without_compute(self):
        requests = _mixed_requests()
        cache = CampaignCache()
        first = execute_requests(requests, cache=cache)
        service = ScenarioService(workers=0, cache=cache)
        with service:
            second = execute_requests(requests, service=service)
        assert service.metrics.batches == 0
        assert service.metrics.cache_hits == len(requests)
        for a, b in zip(first, second):
            assert b.cache_hit and b.source == "cache"
            assert a.summary == b.summary

    def test_sequential_batches_share_one_truth_integration(
        self, truth_integrations
    ):
        requests = [
            ScenarioRequest(scenario=BENCH, seeds=(340,)),
            ScenarioRequest(scenario=BENCH, seeds=(341,)),
        ]

        async def scenario():
            service = ScenarioService(workers=0, max_wait=0.001)
            with service:
                results = [await service.submit(r) for r in requests]
            return service, results

        service, results = asyncio.run(scenario())
        assert service.metrics.batches == 2
        # Two batches, one calibration level and one test drive.
        assert len(truth_integrations) == 2
        assert [r.summary for r in results] == _oracle(requests)

    def test_all_diverged_request_reports_none(self):
        request = ScenarioRequest(
            scenario=DRIVE,
            seeds=(800, 801),
            acc_dropout=((800, 0.0), (801, 0.0)),
        )
        assert _oracle([request]) == [None]
        results = execute_requests([request])
        assert results[0].summary is None


class TestBackpressure:
    def test_admission_queue_overflow_rejects_typed(self):
        async def scenario():
            service = ScenarioService(
                workers=0, max_pending=2, max_batch_size=64, max_wait=0.05
            )
            with service:
                first = asyncio.ensure_future(
                    service.submit(
                        ScenarioRequest(scenario=BENCH, seeds=(300,))
                    )
                )
                await asyncio.sleep(0)
                second = asyncio.ensure_future(
                    service.submit(
                        ScenarioRequest(scenario=BENCH, seeds=(301,))
                    )
                )
                await asyncio.sleep(0)
                assert service.snapshot()["queue_depth"] == 2
                with pytest.raises(ServiceOverloadError):
                    await service.submit(
                        ScenarioRequest(scenario=BENCH, seeds=(302,))
                    )
                results = await asyncio.gather(first, second)
                assert all(r.summary is not None for r in results)
                assert service.metrics.rejected == 1
                return service.snapshot()

        snapshot = asyncio.run(scenario())
        assert snapshot["rejected"] == 1
        assert snapshot["completed"] == 2

    def test_batcher_bounds_are_validated(self):
        flush = lambda batch: None  # noqa: E731 - never called
        with pytest.raises(ValueError):
            DynamicBatcher(flush, max_batch_size=0)
        with pytest.raises(ValueError):
            DynamicBatcher(flush, max_wait=-1.0)
        with pytest.raises(ValueError):
            DynamicBatcher(flush, max_pending=0)


class TestGracefulDegradation:
    def test_pool_death_degrades_to_serial_and_is_recorded(self):
        async def scenario():
            service = ScenarioService(
                workers=1,
                max_wait=0.001,
                supervisor=Supervisor(pool_factory=_DeadPool),
            )
            with service:
                first = await service.submit(
                    ScenarioRequest(scenario=BENCH, seeds=(300, 301))
                )
                # The pool stays dead through every restart: each batch
                # spends the default policy's three pool attempts, then
                # completes on its first serial attempt.
                second = await service.submit(
                    ScenarioRequest(scenario=BENCH, seeds=(302,))
                )
            return service, first, second

        service, first, second = asyncio.run(scenario())
        assert first.source == "serial-fallback"
        assert second.source == "serial-fallback"
        assert first.attempts == second.attempts == 4
        assert service.metrics.pool_failures == 6
        assert service.metrics.serial_fallback_batches == 2
        oracle = _oracle([first.request, second.request])
        assert [first.summary, second.summary] == oracle

    def test_midbatch_worker_kill_falls_back_bit_identically(self):
        # A real SIGKILL, not a monkeypatched raise: the workers die
        # while a coalesced batch is executing, the in-flight future
        # surfaces BrokenProcessPool, and the service restarts the pool
        # and re-runs the batch there — bit-identical to the oracle,
        # with the outage on the books.
        requests = [
            ScenarioRequest(scenario=BENCH, seeds=(320, 321)),
            ScenarioRequest(scenario=BENCH, seeds=(321, 322)),
        ]

        async def scenario():
            service = ScenarioService(workers=2, max_wait=0.05)
            killer = threading.Thread(
                target=_kill_when_spawned, args=(service._pool,), daemon=True
            )
            killer.start()
            with service:
                results = await asyncio.gather(
                    *(service.submit(r) for r in requests)
                )
            killer.join(timeout=30.0)
            return service, results

        service, results = asyncio.run(scenario())
        assert all(r.source == "pool" and r.attempts == 2 for r in results)
        assert service.metrics.pool_failures == 1
        assert service.metrics.serial_fallback_batches == 0
        oracle = _oracle(requests)
        assert [r.summary for r in results] == oracle

    def test_pool_killed_under_a_quarantined_batch_restarts_for_the_next(self):
        # One pool attempt per batch: the worker killed during batch 1
        # quarantines that batch's pool rung, and it completes on the
        # serial rung.  The pool it left dead is restarted before batch
        # 2 submits, so batch 2 runs on the pool at its first attempt.
        first = ScenarioRequest(scenario=BENCH, seeds=(330, 331))
        second = ScenarioRequest(scenario=BENCH, seeds=(332,))

        async def scenario():
            service = ScenarioService(
                workers=1,
                max_wait=0.001,
                supervisor=Supervisor(RetryPolicy(max_attempts=1)),
            )
            killer = threading.Thread(
                target=_kill_when_spawned, args=(service._pool,), daemon=True
            )
            killer.start()
            with service:
                one = await service.submit(first)
                killer.join(timeout=30.0)
                two = await service.submit(second)
            return service, one, two

        service, one, two = asyncio.run(scenario())
        assert one.source == "serial-fallback"
        assert one.attempts == 2
        assert two.source == "pool"
        assert two.attempts == 1
        assert service.metrics.pool_failures == 1
        assert service.metrics.serial_fallback_batches == 1
        assert [one.summary, two.summary] == _oracle([first, second])

    def test_results_survive_pool_death_bit_identically(self):
        # A pool already marked dead is restarted before the batch is
        # first submitted, so the first attempt succeeds, and the
        # registry's bit-identity contract extends through the outage.
        request = ScenarioRequest(scenario=BENCH, seeds=(310, 311, 312))

        async def scenario():
            service = ScenarioService(workers=2)
            service._pool._broken = True
            with service:
                return await service.submit(request)

        result = asyncio.run(scenario())
        assert result.source == "pool"
        assert result.attempts == 1
        assert result.summary == _oracle([request])[0]


class TestServiceLifecycle:
    def test_closed_service_rejects_submission(self):
        service = ScenarioService(workers=0)
        service.close()
        with pytest.raises(ConfigurationError, match="closed"):
            asyncio.run(
                service.submit(ScenarioRequest(scenario=BENCH, seeds=(1,)))
            )

    def test_execute_requests_needs_requests(self):
        with pytest.raises(ConfigurationError, match="at least one"):
            execute_requests([])

    def test_negative_workers_rejected(self):
        with pytest.raises(ConfigurationError, match="workers"):
            ScenarioService(workers=-1)

    def test_registered_engines_validate_workers(self):
        serial = resolve_engine("service", "model")
        with pytest.raises(ConfigurationError, match="single-process"):
            serial([ScenarioRequest(scenario=BENCH, seeds=(1,))], 2)
        fast = resolve_engine("service", "fast")
        with pytest.raises(ConfigurationError, match="workers"):
            fast([ScenarioRequest(scenario=BENCH, seeds=(1,))], 0)


class TestMetrics:
    def test_percentile_nearest_rank(self):
        samples = [5.0, 1.0, 3.0, 2.0, 4.0]
        assert percentile(samples, 0.50) == 3.0
        assert percentile(samples, 0.99) == 5.0
        assert percentile(samples, 1.0) == 5.0
        with pytest.raises(ValueError):
            percentile([], 0.5)
        with pytest.raises(ValueError):
            percentile(samples, 0.0)

    def test_fresh_snapshot_has_no_rates(self):
        service = ScenarioService(workers=0)
        with service:
            snapshot = service.snapshot()
        assert snapshot["batch_occupancy"] is None
        assert snapshot["cache_hit_rate"] is None
        assert snapshot["requests_per_second"] is None
        assert snapshot["latency_p50_seconds"] is None
