"""Schema guard for the shared ``BENCH_*.json`` emitter.

Runs in the tier-1 suite (it is cheap and pure): every benchmark
report must carry ``speedup`` and ``identical``, every written report
is stamped with its machine, and the reports tracked at the repo root
must already satisfy the schema.
"""

import json
import os
import platform

import numpy as np
import pytest

from _emit import REPO_ROOT, REQUIRED_KEYS, write_report


def test_write_report_round_trip(tmp_path):
    path = tmp_path / "BENCH_example.json"
    result = {"speedup": 51.5, "identical": True, "frames": 10_000}
    assert write_report(path, result) == path
    written = json.loads(path.read_text())
    assert written.pop("env") == {
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    assert written == result
    assert path.read_text().endswith("\n")


@pytest.mark.parametrize("dropped", REQUIRED_KEYS)
def test_missing_required_key_rejected(tmp_path, dropped):
    result = {"speedup": 2.0, "identical": True}
    del result[dropped]
    with pytest.raises(ValueError, match=dropped):
        write_report(tmp_path / "BENCH_bad.json", result)
    assert not (tmp_path / "BENCH_bad.json").exists()


def test_identical_must_be_bool(tmp_path):
    with pytest.raises(ValueError, match="identical"):
        write_report(
            tmp_path / "BENCH_bad.json", {"speedup": 2.0, "identical": "yes"}
        )


def test_speedup_must_be_numeric(tmp_path):
    with pytest.raises(ValueError, match="speedup"):
        write_report(
            tmp_path / "BENCH_bad.json", {"speedup": "fast", "identical": True}
        )
    with pytest.raises(ValueError, match="speedup"):
        write_report(
            tmp_path / "BENCH_bad.json", {"speedup": True, "identical": True}
        )


def test_tracked_reports_satisfy_schema():
    reports = sorted(REPO_ROOT.glob("BENCH_*.json"))
    assert reports, "no BENCH_*.json tracked at the repo root"
    for report in reports:
        payload = json.loads(report.read_text())
        for key in REQUIRED_KEYS:
            assert key in payload, f"{report.name} is missing {key!r}"
        assert payload["identical"] is True, report.name
