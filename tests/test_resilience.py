"""The resilience ladder, rung by rung, then all at once.

:mod:`repro.resilience` promises that execution-stack faults — killed
workers, hung tasks, poison cells, corrupted cache files, a SIGKILL'd
campaign process — degrade a run gracefully instead of sinking it, and
that every recovered result is *bit-identical* to the fault-free
serial oracle (retries are pure replays of seed-deterministic work).

This suite proves each rung in isolation with fake tasks (retry,
backoff, deadline watchdog, quarantine, journal), then in combination
on real campaigns under seeded chaos schedules:

- an in-process campaign with scheduled transient/permanent faults;
- a pooled campaign where one worker is killed mid-flight, one cell is
  delayed past its deadline and one cache file is bit-flipped — and
  the grid still completes bit-identical with the right counts;
- a ``run_campaign`` process SIGKILL'd mid-grid, resumed from its
  write-ahead journal re-running only the non-completed cells.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.errors import (
    ConfigurationError,
    PermanentError,
    TaskTimeoutError,
    TransientError,
)
from repro.resilience import (
    CampaignJournal,
    ChaosPermanentError,
    ChaosPool,
    ChaosRunner,
    ChaosSchedule,
    RetryPolicy,
    Supervisor,
    WorkerPool,
    classify_error,
    corrupt_cache_file,
    sample_chaos_schedule,
)
from repro.resilience.journal import JOURNAL_VERSION
from repro.resilience.supervisor import (
    PERMANENT,
    TRANSIENT,
    call_with_deadline,
    format_fault,
)
from repro.scenarios.cache import CampaignCache, canonical_digest
from repro.scenarios.campaign import (
    CampaignSpec,
    FaultSpec,
    _run_cell,
    _run_cells_supervised,
    run_campaign,
)
from repro.scenarios.faults import SensorDropout
from repro.scenarios.spec import ScenarioSpec

pytestmark = pytest.mark.resilience

SCENARIO = ScenarioSpec(
    name="res_static",
    profile="static_tilt",
    duration=60.0,
    profile_args=(("dwell_time", 3.0), ("slew_time", 1.5)),
    moving=False,
)


def _spec(n_faults: int = 3) -> CampaignSpec:
    faults = [FaultSpec(name="nominal")]
    for k in range(1, n_faults):
        faults.append(
            FaultSpec(
                name=f"drop{k}",
                faults=(
                    SensorDropout(
                        sensor="acc", start=10.0 + 5.0 * k, duration=4.0
                    ),
                ),
            )
        )
    return CampaignSpec(
        name="resilience",
        scenarios=(SCENARIO,),
        faults=tuple(faults),
        seeds=(900, 901),
    )


class _SleepRecorder:
    """A fake sleeper pinning the deterministic backoff timeline."""

    def __init__(self):
        self.delays = []

    def __call__(self, delay):
        self.delays.append(delay)


class TestRetryPolicy:
    def test_backoff_is_deterministic_exponential_and_capped(self):
        policy = RetryPolicy(
            backoff_base=0.1, backoff_factor=2.0, backoff_cap=0.3
        )
        assert [policy.backoff_delay(i) for i in range(4)] == [
            0.1,
            0.2,
            0.3,
            0.3,
        ]

    def test_validation(self):
        with pytest.raises(ConfigurationError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError, match="deadline"):
            RetryPolicy(deadline=0.0)
        with pytest.raises(ConfigurationError, match="backoff"):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ConfigurationError, match="retry index"):
            RetryPolicy().backoff_delay(-1)


class TestClassification:
    @pytest.mark.parametrize(
        "exc, expected",
        [
            (TransientError("x"), TRANSIENT),
            (TaskTimeoutError("x"), TRANSIENT),
            (TimeoutError(), TRANSIENT),
            (ValueError("unknown faults are transient"), TRANSIENT),
            (PermanentError("x"), PERMANENT),
            (ConfigurationError("x"), PERMANENT),
        ],
    )
    def test_classify_error(self, exc, expected):
        assert classify_error(exc) == expected

    def test_broken_pool_is_transient(self):
        from concurrent.futures.process import BrokenProcessPool

        assert classify_error(BrokenProcessPool("killed")) == TRANSIENT


class TestSupervisorRungs:
    """Each rung with fake tasks: retry, backoff, deadline, quarantine."""

    def test_transient_fault_is_retried_to_completion(self):
        sleeper = _SleepRecorder()
        supervisor = Supervisor(
            RetryPolicy(max_attempts=3, backoff_base=0.05), sleep=sleeper
        )
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 2:
                raise TransientError("worker vanished")
            return 42

        outcome = supervisor.run(flaky)
        assert outcome.completed and outcome.value == 42
        assert outcome.attempts == 2 and outcome.retries == 1
        assert sleeper.delays == [0.05]

    def test_permanent_fault_quarantines_without_retry(self):
        sleeper = _SleepRecorder()
        supervisor = Supervisor(RetryPolicy(max_attempts=5), sleep=sleeper)
        calls = []

        def poison():
            calls.append(1)
            raise PermanentError("bad cell spec")

        outcome = supervisor.run(poison)
        assert outcome.status == "quarantined"
        assert outcome.fault == "PermanentError: bad cell spec"
        assert len(calls) == 1 and sleeper.delays == []

    def test_exhausted_attempts_quarantine_with_last_fault(self):
        sleeper = _SleepRecorder()
        supervisor = Supervisor(
            RetryPolicy(max_attempts=3, backoff_base=0.1, backoff_cap=0.15),
            sleep=sleeper,
        )
        outcome = supervisor.run(
            lambda: (_ for _ in ()).throw(TransientError("still down"))
        )
        assert outcome.status == "quarantined"
        assert outcome.attempts == 3 and outcome.retries == 2
        assert outcome.fault == "TransientError: still down"
        # Backoff before retry 1 and retry 2, capped.
        assert sleeper.delays == [0.1, 0.15]

    def test_deadline_watchdog_times_out_and_retries(self):
        supervisor = Supervisor(
            RetryPolicy(max_attempts=2, deadline=0.05, backoff_base=0.0),
        )
        attempts = []

        def slow_then_fast():
            attempts.append(1)
            if len(attempts) == 1:
                time.sleep(0.5)
            return "ok"

        outcome = supervisor.run(slow_then_fast)
        assert outcome.completed and outcome.value == "ok"
        assert outcome.timeouts == 1 and outcome.retries == 1

    def test_call_with_deadline_raises_typed_timeout(self):
        with pytest.raises(TaskTimeoutError, match="exceeded 0.02s deadline"):
            call_with_deadline(lambda: time.sleep(0.5), 0.02, "hung-cell")
        assert call_with_deadline(lambda: 7, 1.0, "quick") == 7

    def test_supervisor_never_raises_on_unknown_exceptions(self):
        outcome = Supervisor(RetryPolicy(max_attempts=2, backoff_base=0.0)).run(
            lambda: (_ for _ in ()).throw(RuntimeError("surprise"))
        )
        assert outcome.status == "quarantined"
        assert outcome.fault == "RuntimeError: surprise"

    def test_format_fault(self):
        assert format_fault(ValueError("boom")) == "ValueError: boom"


class TestChaosSchedules:
    def test_unknown_event_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown chaos event"):
            ChaosSchedule(events=("meteor",))
        with pytest.raises(ConfigurationError, match=">= 0"):
            ChaosSchedule(events=(), delay=-1.0)

    def test_events_past_the_end_are_clean(self):
        schedule = ChaosSchedule(events=("kill", None))
        assert schedule.event(0) == "kill"
        assert schedule.event(1) is None
        assert schedule.event(5) is None

    def test_sampled_schedules_are_seed_deterministic(self):
        a = sample_chaos_schedule(17, 32)
        b = sample_chaos_schedule(17, 32)
        assert a == b
        assert sample_chaos_schedule(18, 32) != a
        assert set(a.events) <= {None, "kill", "delay", "transient", "permanent"}

    def test_sampled_schedule_weight_validation(self):
        with pytest.raises(ConfigurationError, match="unknown chaos event"):
            sample_chaos_schedule(1, 4, {"meteor": 1.0})
        with pytest.raises(ConfigurationError, match="sum > 0"):
            sample_chaos_schedule(1, 4, {"none": 0.0})

    def test_chaos_runner_consumes_one_event_per_call(self):
        runner = ChaosRunner(
            inner=lambda x: x * 2,
            schedule=ChaosSchedule(events=("transient", None, "permanent")),
        )
        with pytest.raises(TransientError):
            runner(1)
        assert runner(2) == 4
        with pytest.raises(PermanentError):
            runner(3)
        assert runner(4) == 8  # past the schedule: clean
        assert runner.injected == ["transient", "permanent"]


class TestJournal:
    def test_records_round_trip_and_replay_latest_wins(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with CampaignJournal(path) as journal:
            journal.record("d1", "started", attempt=1)
            journal.record("d1", "completed", attempt=2, summary_ref="d1")
            journal.record("d2", "started", attempt=1)
        reopened = CampaignJournal(path)
        assert [r.status for r in reopened.records] == [
            "started",
            "completed",
            "started",
        ]
        state = reopened.replay()
        assert state["d1"].status == "completed"
        assert state["d1"].summary_ref == "d1"
        assert state["d2"].status == "started"
        assert reopened.skipped_records == 0
        reopened.close()

    def test_torn_tail_and_garbage_lines_are_skipped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with CampaignJournal(path) as journal:
            journal.record("d1", "completed")
            journal.record("d2", "completed")
        raw = path.read_bytes()
        # A SIGKILL mid-write leaves a torn final line; a corrupt disk
        # leaves garbage. Neither may fail the resume.
        torn = raw + b'{"v": "campaign-journal-v1", "digest": "d3", "sta'
        path.write_bytes(b"not json at all\n" + torn)
        journal = CampaignJournal(path)
        assert [r.digest for r in journal.records] == ["d1", "d2"]
        assert journal.skipped_records == 2
        # Still appendable after a dirty load.
        journal.record("d3", "completed")
        journal.close()
        assert CampaignJournal(path).replay()["d3"].status == "completed"

    def test_wrong_version_and_wrong_status_are_skipped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        lines = [
            json.dumps(
                {"v": "campaign-journal-v0", "digest": "d1", "status": "completed"}
            ),
            json.dumps(
                {"v": JOURNAL_VERSION, "digest": "d2", "status": "exploded"}
            ),
            json.dumps(
                {"v": JOURNAL_VERSION, "digest": "d3", "status": "completed"}
            ),
        ]
        path.write_text("\n".join(lines) + "\n")
        journal = CampaignJournal(path)
        assert [r.digest for r in journal.records] == ["d3"]
        assert journal.skipped_records == 2
        journal.close()

    def test_record_validates_status(self, tmp_path):
        with CampaignJournal(tmp_path / "j.jsonl") as journal:
            with pytest.raises(ConfigurationError, match="status"):
                journal.record("d1", "exploded")


class TestSupervisedCampaignInProcess:
    """The full ladder on real cells, chaos injected in-process."""

    def test_transient_chaos_retries_to_bit_identical_results(self):
        spec = _spec(2)
        oracle = run_campaign(spec, engine="model")
        schedule = ChaosSchedule(events=("transient", None, "kill"))
        # The chaos hook is the supervised path's cell_runner.
        runner = ChaosRunner(inner=_run_cell, schedule=schedule)
        summaries, statuses, faults, report = _run_cells_supervised(
            list(spec.cells()),
            supervisor=Supervisor(
                RetryPolicy(max_attempts=3, backoff_base=0.0)
            ),
            cell_runner=runner,
        )
        assert statuses == ("completed", "completed")
        assert faults == (None, None)
        assert summaries == oracle.summaries
        # Cell 0 retried once (transient), cell 1 retried once (kill).
        assert report.retries == 2 and report.quarantined == 0
        assert report.cells_run == 2

    def test_permanent_chaos_quarantines_without_sinking_the_grid(self):
        spec = _spec(3)
        oracle = run_campaign(spec, engine="model")
        runner = ChaosRunner(
            inner=_run_cell,
            schedule=ChaosSchedule(events=(None, "permanent", None)),
        )
        summaries, statuses, faults, report = _run_cells_supervised(
            list(spec.cells()),
            supervisor=Supervisor(
                RetryPolicy(max_attempts=3, backoff_base=0.0)
            ),
            cell_runner=runner,
        )
        assert statuses == ("completed", "quarantined", "completed")
        assert summaries[0] == oracle.summaries[0]
        assert summaries[1] is None
        assert summaries[2] == oracle.summaries[2]
        assert faults[1] is not None and "chaos" in faults[1]
        assert report.quarantined == 1 and report.retries == 0

    def test_quarantined_cells_surface_in_campaign_reports(self):
        spec = _spec(2)
        supervisor = Supervisor(
            RetryPolicy(max_attempts=2, backoff_base=0.0),
            # Everything is poison under this classifier.
            classify=lambda exc: PERMANENT,
        )
        runner = ChaosRunner(
            inner=_run_cell,
            schedule=ChaosSchedule(events=("permanent",)),
        )
        summaries, statuses, faults, report = _run_cells_supervised(
            list(spec.cells()),
            supervisor=supervisor,
            cell_runner=runner,
        )
        from repro.scenarios.campaign import CampaignResult

        result = CampaignResult(
            spec=spec,
            cells=spec.cells(),
            summaries=summaries,
            statuses=statuses,
            cell_faults=faults,
            resilience=report,
        )
        labels = result.classifications()
        assert labels[0] == "quarantined"
        assert result.cell_faults[0] is not None
        from repro.analysis.reporting import degradation_report

        text = degradation_report(result)
        assert "quarantined 1" in text

    def test_journal_resume_reruns_only_inflight_cells(self, tmp_path):
        spec = _spec(3)
        cells = list(spec.cells())
        cache = CampaignCache(cache_dir=tmp_path / "cache")
        journal_path = tmp_path / "journal.jsonl"
        oracle = run_campaign(spec, engine="model")
        # Simulate a crash: cells 0 and 1 completed durably, cell 2 was
        # in flight (started, never finished) when the process died.
        with CampaignJournal(journal_path) as journal:
            for index in (0, 1):
                digest = canonical_digest(cells[index])
                journal.record(digest, "started")
                cache.store(cells[index], oracle.summaries[index])
                journal.record(
                    digest, "completed", summary_ref=digest
                )
            journal.record(canonical_digest(cells[2]), "started")
        result = run_campaign(
            spec, journal=journal_path, cache=cache
        )
        assert result.statuses == ("resumed", "resumed", "completed")
        assert result.summaries == oracle.summaries
        assert result.resilience.resumed_from_journal == 2
        assert result.resilience.cells_run == 1

    def test_quarantine_is_sticky_across_resume(self, tmp_path):
        spec = _spec(2)
        cells = list(spec.cells())
        journal_path = tmp_path / "journal.jsonl"
        with CampaignJournal(journal_path) as journal:
            journal.record(
                canonical_digest(cells[0]),
                "quarantined",
                fault="ChaosPermanentError: poisoned",
            )
        result = run_campaign(spec, journal=journal_path)
        assert result.statuses[0] == "quarantined"
        assert result.cell_faults[0] == "ChaosPermanentError: poisoned"
        assert result.summaries[0] is None
        assert result.statuses[1] == "completed"


class TestSupervisedService:
    """The ladder wired through the async service's batch path."""

    def test_pool_rung_retries_transient_failures(self):
        import asyncio

        from repro.service import ScenarioRequest, ScenarioService

        request = ScenarioRequest(scenario=SCENARIO, seeds=(900, 901))

        async def scenario():
            # The first batch submitted to the pool raises a transient
            # fault inside its worker; the retry runs clean.
            schedule = ChaosSchedule(events=("transient",))
            service = ScenarioService(
                workers=1,
                supervisor=Supervisor(
                    RetryPolicy(max_attempts=3, backoff_base=0.0),
                    pool_factory=lambda workers: ChaosPool(
                        WorkerPool(workers), schedule
                    ),
                ),
            )
            with service:
                return service, await service.submit(request)

        service, result = asyncio.run(scenario())
        assert result.source == "pool"
        assert result.attempts == 2 and not result.quarantined
        assert service.metrics.retries == 1
        assert service.metrics.snapshot()["retries"] == 1
        from repro.engines import resolve_engine

        assert result.summary == resolve_engine("service", "model")(
            [request], 1
        )[0]

    def test_exhausted_ladder_reports_quarantined_result(self, monkeypatch):
        import asyncio

        from repro.analysis import montecarlo
        from repro.service import ScenarioRequest, ScenarioService
        from repro.service import service as service_module

        request = ScenarioRequest(scenario=SCENARIO, seeds=(900,))

        def always_broken(*args, **kwargs):
            raise ChaosPermanentError("both rungs poisoned")

        monkeypatch.setattr(service_module, "run_jobs_inline", always_broken)
        monkeypatch.setattr(montecarlo, "_run_job", always_broken)

        async def scenario():
            service = ScenarioService(
                workers=0,
                supervisor=Supervisor(
                    RetryPolicy(max_attempts=2, backoff_base=0.0)
                ),
            )
            with service:
                return service, await service.submit(request)

        service, result = asyncio.run(scenario())
        assert result.quarantined and result.source == "quarantined"
        assert result.summary is None
        assert "both rungs poisoned" in result.fault
        assert service.metrics.quarantined == 1
        assert service.metrics.snapshot()["quarantined"] == 1


def _write_crashable_script(path: Path, tmp: Path) -> None:
    """A standalone run_campaign invocation the test can SIGKILL."""
    path.write_text(
        f"""
import sys

sys.path.insert(0, {str(Path(__file__).resolve().parent.parent / "src")!r})

from repro.resilience import RetryPolicy, Supervisor
from repro.scenarios.cache import CampaignCache
from repro.scenarios.campaign import run_campaign
from tests.test_resilience import _spec  # noqa: E402

run_campaign(
    _spec(4),
    supervisor=Supervisor(RetryPolicy(max_attempts=2)),
    journal={str(tmp / "journal.jsonl")!r},
    cache=CampaignCache(cache_dir={str(tmp / "cache")!r}),
)
"""
    )


class TestAcceptance:
    """The issue's combined criteria, end to end."""

    @pytest.mark.slow
    def test_kill_timeout_and_corruption_still_bit_identical(self, tmp_path):
        # One seeded schedule kills a worker mid-flight and delays one
        # cell past its deadline; afterwards one cache file is
        # bit-flipped. The campaign still completes bit-identical to
        # the fault-free serial oracle with the outage on the books.
        spec = _spec(4)
        oracle = run_campaign(spec, engine="model")
        schedule = ChaosSchedule(
            events=("kill", None, "delay"), delay=60.0, kill_after=0.2
        )
        supervisor = Supervisor(
            RetryPolicy(max_attempts=3, deadline=15.0, backoff_base=0.01),
            pool_factory=lambda workers: ChaosPool(
                WorkerPool(workers), schedule
            ),
        )
        cache = CampaignCache(cache_dir=tmp_path / "cache")
        result = run_campaign(
            spec,
            workers=2,
            supervisor=supervisor,
            journal=tmp_path / "journal.jsonl",
            cache=cache,
        )
        assert result.statuses == ("completed",) * 4
        assert result.summaries == oracle.summaries
        report = result.resilience
        # The killed worker costs at least one retry (plus collateral
        # from its wave-mate) and breaks the pool at least once; the
        # delayed cell costs exactly one timeout.
        assert report.retries >= 2
        assert report.pool_failures >= 1
        assert report.timeouts == 1
        assert report.quarantined == 0 and report.cells_run == 4

        # Bit-flip one cached entry: the re-run quarantines the file,
        # re-runs only that cell, and still matches the oracle.
        digest = canonical_digest(result.cells[0])
        corrupt_cache_file(tmp_path / "cache", digest, mode="bitflip")
        fresh_cache = CampaignCache(cache_dir=tmp_path / "cache")
        resumed = run_campaign(
            spec,
            supervisor=Supervisor(),
            journal=tmp_path / "journal.jsonl",
            cache=fresh_cache,
        )
        assert resumed.summaries == oracle.summaries
        assert fresh_cache.corrupt_entries == 1
        assert resumed.resilience.cells_run == 1
        assert resumed.resilience.resumed_from_journal == 3

    @pytest.mark.slow
    def test_sigkilled_campaign_resumes_from_journal(self, tmp_path):
        # A campaign process killed -9 mid-grid leaves a write-ahead
        # journal; the resume re-runs only the cells without a durable
        # completed record and the stitched grid matches the oracle.
        spec = _spec(4)
        oracle = run_campaign(spec, engine="model")
        script = tmp_path / "crashable.py"
        _write_crashable_script(script, tmp_path)
        journal_path = tmp_path / "journal.jsonl"
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = f"{root / 'src'}:{root}"
        process = subprocess.Popen(
            [sys.executable, str(script)],
            cwd=root,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            # Wait for at least one durable completed record, then
            # shoot the process while later cells are in flight.
            deadline = time.monotonic() + 120.0
            while time.monotonic() < deadline:
                if journal_path.exists() and any(
                    '"status":"completed"' in line
                    for line in journal_path.read_text().splitlines()
                ):
                    break
                time.sleep(0.05)
            else:
                pytest.fail("campaign never completed a cell")
        finally:
            process.send_signal(signal.SIGKILL)
            process.wait(timeout=30.0)
        journal = CampaignJournal(journal_path)
        completed = {
            r.digest for r in journal.records if r.status == "completed"
        }
        journal.close()
        assert completed, "kill landed before any durable record"
        assert len(completed) < 4, "kill landed after the whole grid"
        resumed = run_campaign(
            spec,
            journal=journal_path,
            cache=CampaignCache(cache_dir=tmp_path / "cache"),
        )
        assert resumed.summaries == oracle.summaries
        report = resumed.resilience
        assert report.resumed_from_journal == len(completed)
        assert report.cells_run == 4 - len(completed)
        statuses = set(resumed.statuses)
        assert statuses <= {"resumed", "completed"}
