"""Campaign result caching: digest sensitivity and cache soundness.

Two failure modes would silently corrupt a cached campaign:

- a **collision** — two cells that differ somewhere in their spec
  tree hashing equal, serving one cell's results for the other; the
  hypothesis sweep and the single-field mutation matrix pin that any
  one changed field (down to one ULP of a float) changes the digest;
- a **stale hit** — an edited spec still hitting the old entry; the
  regression test edits a fault recipe between runs and requires the
  edited cell to re-execute.

The digest is deliberately bit-exact, not ``==``-exact: ``0.0`` and
``-0.0`` digest differently, equal-bit NaNs digest equally.  Cached
summaries are engine-independent because the engines are bit-identical
(the registry harness pins that); the cache key therefore excludes
the engine name.
"""

import dataclasses
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import execute
from repro.errors import ConfigurationError
from repro.scenarios.cache import CampaignCache, canonical_digest
from repro.scenarios.campaign import (
    CampaignSpec,
    FaultSpec,
    run_campaign,
)
from repro.scenarios.faults import ClockSkew, SensorDropout
from repro.scenarios.spec import ScenarioRequest, ScenarioSpec
from repro.service import execute_requests


def _base_scenario(**overrides) -> ScenarioSpec:
    kwargs = dict(
        name="cache_static",
        profile="static_tilt",
        duration=60.0,
        profile_args=(("dwell_time", 3.0), ("slew_time", 1.5)),
        moving=False,
    )
    kwargs.update(overrides)
    return ScenarioSpec(**kwargs)


def _base_cell(**overrides) -> ScenarioRequest:
    kwargs = dict(
        scenario=_base_scenario(),
        fault=FaultSpec(
            name="dropout",
            faults=(SensorDropout(sensor="acc", start=20.0, duration=5.0),),
        ),
        seeds=(900, 901),
        fallback_hold=True,
    )
    kwargs.update(overrides)
    return ScenarioRequest(**kwargs)


class TestCanonicalDigest:
    def test_equal_trees_digest_equal(self):
        assert canonical_digest(_base_cell()) == canonical_digest(_base_cell())

    def test_type_tags_separate_lookalike_scalars(self):
        digests = {canonical_digest(v) for v in (1, 1.0, True, "1")}
        assert len(digests) == 4

    def test_float_hashing_is_bit_exact(self):
        assert canonical_digest(0.0) != canonical_digest(-0.0)
        assert canonical_digest(float("nan")) == canonical_digest(
            float("nan")
        )

    def test_nesting_is_unambiguous(self):
        assert canonical_digest(((1, 2), 3)) != canonical_digest((1, (2, 3)))
        assert canonical_digest((1, 2, 3)) != canonical_digest(((1, 2, 3),))

    def test_dict_order_insensitive(self):
        assert canonical_digest({"a": 1, "b": 2}) == canonical_digest(
            {"b": 2, "a": 1}
        )

    def test_ndarray_supported(self):
        a = np.arange(6, dtype=np.float64).reshape(2, 3)
        assert canonical_digest(a) == canonical_digest(a.copy())
        assert canonical_digest(a) != canonical_digest(a.T)

    def test_unsupported_type_rejected(self):
        with pytest.raises(ConfigurationError, match="canonicalize"):
            canonical_digest(object())

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda c: dataclasses.replace(
                c, scenario=dataclasses.replace(c.scenario, name="renamed")
            ),
            lambda c: dataclasses.replace(
                c,
                scenario=dataclasses.replace(
                    c.scenario,
                    duration=float(np.nextafter(c.scenario.duration, np.inf)),
                ),
            ),
            lambda c: dataclasses.replace(
                c,
                scenario=dataclasses.replace(
                    c.scenario, measurement_sigma=0.031
                ),
            ),
            lambda c: dataclasses.replace(
                c, fault=dataclasses.replace(c.fault, name="renamed")
            ),
            lambda c: dataclasses.replace(
                c,
                fault=FaultSpec(
                    name=c.fault.name,
                    faults=(
                        dataclasses.replace(
                            c.fault.faults[0],
                            start=float(
                                np.nextafter(c.fault.faults[0].start, np.inf)
                            ),
                        ),
                    ),
                ),
            ),
            lambda c: dataclasses.replace(
                c,
                fault=FaultSpec(
                    name=c.fault.name,
                    faults=c.fault.faults + (ClockSkew(ppm=50.0),),
                ),
            ),
            lambda c: dataclasses.replace(c, seeds=(901, 900)),
            lambda c: dataclasses.replace(c, seeds=(900, 902)),
            lambda c: dataclasses.replace(c, seeds=(900,)),
            lambda c: dataclasses.replace(c, fallback_hold=False),
        ],
        ids=[
            "scenario-name",
            "scenario-duration-ulp",
            "estimator-sigma",
            "fault-name",
            "fault-window-ulp",
            "fault-appended",
            "seed-order",
            "seed-value",
            "seed-count",
            "ladder-flag",
        ],
    )
    def test_any_single_field_change_changes_the_digest(self, mutate):
        base = _base_cell()
        assert canonical_digest(mutate(base)) != canonical_digest(base)

    @given(
        a=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        b=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_one_float_field_collides_iff_bits_equal(self, a, b):
        cell_a = _base_cell(
            fault=FaultSpec(name="w", faults=(SensorDropout(start=a),))
        )
        cell_b = _base_cell(
            fault=FaultSpec(name="w", faults=(SensorDropout(start=b),))
        )
        same_bits = struct.pack("<d", a) == struct.pack("<d", b)
        assert (
            canonical_digest(cell_a) == canonical_digest(cell_b)
        ) == same_bits


class TestCampaignCacheUnit:
    def test_none_summary_is_a_hit_not_a_miss(self):
        cache = CampaignCache()
        cell = _base_cell()
        hit, _ = cache.lookup(cell)
        assert not hit and cache.misses == 1
        cache.store(cell, None)  # every-seed-diverged is cacheable too
        hit, summary = cache.lookup(cell)
        assert hit and summary is None and cache.hits == 1

    def test_clear_drops_entries_keeps_counters(self):
        cache = CampaignCache()
        cache.store(_base_cell(), None)
        cache.lookup(_base_cell())
        cache.clear()
        assert len(cache) == 0 and cache.hits == 1
        hit, _ = cache.lookup(_base_cell())
        assert not hit


class TestDiskTier:
    """The persistent tier: cross-instance reuse, corrupt files = misses."""

    def _summary(self):
        from repro.analysis.montecarlo import MonteCarloSummary

        return MonteCarloSummary(
            runs=2,
            rms_error_deg=np.array([0.1, 0.2]),
            max_error_deg=np.array([0.3, 0.4]),
            coverage_3sigma=1.0,
            mean_exceedance=0.0,
            diverged_seeds=(901,),
            fallback_states=("full", "degraded"),
            anees=2.5,
        )

    def test_second_instance_reads_first_instances_entry(self, tmp_path):
        cell = _base_cell()
        summary = self._summary()
        writer = CampaignCache(cache_dir=tmp_path)
        writer.store(cell, summary)
        reader = CampaignCache(cache_dir=tmp_path)
        hit, loaded = reader.lookup(cell)
        assert hit and loaded == summary
        assert reader.disk_hits == 1 and reader.hits == 1
        # Promoted to memory: the second lookup skips the file system.
        hit, _ = reader.lookup(cell)
        assert hit and reader.disk_hits == 1 and reader.hits == 2

    def test_none_summary_round_trips_through_disk(self, tmp_path):
        cell = _base_cell()
        CampaignCache(cache_dir=tmp_path).store(cell, None)
        hit, summary = CampaignCache(cache_dir=tmp_path).lookup(cell)
        assert hit and summary is None

    def test_memory_only_cache_has_no_disk_tier(self):
        cache = CampaignCache()
        assert cache.cache_dir is None
        cache.store(_base_cell(), None)
        assert CampaignCache().lookup(_base_cell()) == (False, None)

    @pytest.mark.parametrize(
        "corruption",
        [
            lambda raw: b"not a pickle at all",
            lambda raw: raw[: len(raw) // 2],  # truncated write
            lambda raw: b"",
            # A well-formed pickle of the wrong shape.
            lambda raw: __import__("pickle").dumps(["wrong", "shape"]),
            # A well-formed payload from a different digest scheme.
            lambda raw: __import__("pickle").dumps(
                {"version": "campaign-cell-v0", "summary": None}
            ),
        ],
        ids=["garbage", "truncated", "empty", "wrong-shape", "old-version"],
    )
    def test_corrupt_entry_is_a_miss_not_an_error(self, tmp_path, corruption):
        cell = _base_cell()
        writer = CampaignCache(cache_dir=tmp_path)
        writer.store(cell, self._summary())
        path = writer._disk_path(canonical_digest(cell))
        path.write_bytes(corruption(path.read_bytes()))
        reader = CampaignCache(cache_dir=tmp_path)
        hit, summary = reader.lookup(cell)
        assert not hit and summary is None
        assert reader.misses == 1 and reader.disk_hits == 0
        # A fresh store overwrites the damaged entry and heals the tier.
        reader.store(cell, self._summary())
        hit, summary = CampaignCache(cache_dir=tmp_path).lookup(cell)
        assert hit and summary == self._summary()

    @pytest.mark.parametrize("mode", ["truncate", "bitflip"])
    def test_corrupt_entry_is_quarantined_not_rereread(self, tmp_path, mode):
        # Satellite regression: a damaged entry is renamed to
        # <digest>.corrupt (inspectable, never deserialized again) and
        # counted — a truncated file breaks the outer pickle, a single
        # flipped bit unpickles cleanly and only the CRC catches it.
        from repro.resilience import corrupt_cache_file

        cell = _base_cell()
        writer = CampaignCache(cache_dir=tmp_path)
        writer.store(cell, self._summary())
        digest = canonical_digest(cell)
        corrupt_cache_file(tmp_path, digest, mode=mode)
        reader = CampaignCache(cache_dir=tmp_path)
        hit, summary = reader.lookup(cell)
        assert not hit and summary is None
        assert reader.corrupt_entries == 1
        assert not (tmp_path / f"{digest}.pkl").exists()
        assert (tmp_path / f"{digest}.corrupt").exists()
        # The miss is paid once: with the damaged file moved aside, the
        # next lookup is a plain missing-file miss, not a second
        # quarantine.
        hit, _ = reader.lookup(cell)
        assert not hit and reader.corrupt_entries == 1
        # A fresh store heals the tier without touching the evidence.
        reader.store(cell, self._summary())
        healed = CampaignCache(cache_dir=tmp_path)
        hit, summary = healed.lookup(cell)
        assert hit and summary == self._summary()
        assert (tmp_path / f"{digest}.corrupt").exists()

    def test_missing_entry_is_not_quarantined(self, tmp_path):
        cache = CampaignCache(cache_dir=tmp_path)
        hit, _ = cache.lookup(_base_cell())
        assert not hit and cache.corrupt_entries == 0
        assert list(tmp_path.glob("*.corrupt")) == []

    def test_stale_disk_hit_impossible_without_collision(self, tmp_path):
        # The filename is the canonical digest, so an edited cell reads
        # a different path — the stale-hit regression, disk edition.
        cache = CampaignCache(cache_dir=tmp_path)
        cache.store(_base_cell(), self._summary())
        edited = _base_cell(fallback_hold=False)
        assert CampaignCache(cache_dir=tmp_path).lookup(edited) == (
            False,
            None,
        )

    def test_clear_keeps_the_persistent_tier(self, tmp_path):
        cell = _base_cell()
        cache = CampaignCache(cache_dir=tmp_path)
        cache.store(cell, None)
        cache.clear()
        hit, _ = cache.lookup(cell)
        assert hit and cache.disk_hits == 1

    def test_cross_process_reuse(self, tmp_path):
        # A child process stores; this process reads — the digest and
        # the pickled payload must be stable across interpreters.
        import subprocess
        import sys
        from pathlib import Path

        script = (
            "from tests.test_campaign_cache import TestDiskTier, _base_cell\n"
            "from repro.scenarios.cache import CampaignCache\n"
            f"cache = CampaignCache(cache_dir={str(tmp_path)!r})\n"
            "cache.store(_base_cell(), TestDiskTier()._summary())\n"
        )
        root = Path(__file__).resolve().parent.parent
        env = {
            "PYTHONPATH": f"{root / 'src'}:{root}",
            "PATH": "/usr/bin:/bin",
        }
        subprocess.run(
            [sys.executable, "-c", script],
            check=True,
            cwd=root,
            env=env,
        )
        reader = CampaignCache(cache_dir=tmp_path)
        hit, summary = reader.lookup(_base_cell())
        assert hit and reader.disk_hits == 1
        assert summary == self._summary()


def _spec(fault: FaultSpec) -> CampaignSpec:
    return CampaignSpec(
        name="cache_grid",
        scenarios=(_base_scenario(),),
        faults=(FaultSpec(name="nominal"), fault),
        seeds=(900, 901),
        fallback_hold=True,
    )


@pytest.mark.slow
class TestRunCampaignWithCache:
    def test_second_run_is_all_hits_and_identical(self):
        spec = _spec(_base_cell().fault)
        cache = CampaignCache()
        first = run_campaign(spec, cache=cache)
        assert cache.misses == len(spec.cells()) and cache.hits == 0
        second = run_campaign(spec, cache=cache)
        assert cache.hits == len(spec.cells())
        assert first.summaries == second.summaries
        assert first.to_golden() == second.to_golden()
        # And cached results equal a cache-free run bit for bit.
        assert run_campaign(spec).summaries == first.summaries

    def test_stale_cache_regression_edited_cell_reruns(self):
        original = _base_cell().fault
        edited = FaultSpec(
            name=original.name,
            faults=(
                dataclasses.replace(original.faults[0], duration=10.0),
            ),
        )
        cache = CampaignCache()
        stale = run_campaign(_spec(original), cache=cache)
        misses_before = cache.misses
        fresh = run_campaign(_spec(edited), cache=cache)
        # The nominal cell hit; the edited cell missed and re-ran.
        assert cache.misses == misses_before + 1
        assert fresh.summaries[0] == stale.summaries[0]
        truth = run_campaign(_spec(edited))
        assert fresh.summaries == truth.summaries
        assert fresh.summaries[1] != stale.summaries[1]

    def test_fresh_cache_instance_serves_campaign_from_disk(self, tmp_path):
        # Session two of a campaign: a brand-new cache over the same
        # directory serves every cell without compute.
        spec = _spec(_base_cell().fault)
        first = run_campaign(spec, cache=CampaignCache(cache_dir=tmp_path))
        rerun_cache = CampaignCache(cache_dir=tmp_path)
        second = run_campaign(spec, cache=rerun_cache)
        assert rerun_cache.hits == len(spec.cells())
        assert rerun_cache.disk_hits == len(spec.cells())
        assert rerun_cache.misses == 0
        assert first.summaries == second.summaries

    def test_campaign_execute_and_service_share_entries(self):
        # A campaign cell is a ScenarioRequest, so one digest keys the
        # run for the campaign, execute() and the service alike.
        spec = _spec(_base_cell().fault)
        cache = CampaignCache()
        campaign = run_campaign(spec, cache=cache)
        misses = cache.misses
        request = ScenarioRequest(
            scenario=_base_scenario(),
            seeds=(900, 901),
            fault=_base_cell().fault,
            fallback_hold=True,
        )
        direct = execute(request, cache=cache)
        assert direct.cache_hit
        served = execute_requests([request], cache=cache)[0]
        assert served.source == "cache"
        assert cache.misses == misses
        assert served.summary == direct.summary == campaign.summaries[1]
