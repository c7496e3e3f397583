"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.rng import make_rng

# Property tests draw the same examples on every run, so tier-1 gives
# one verdict per commit.  Re-registering the active "default" profile
# takes effect at once; ``--hypothesis-profile=explore`` draws fresh
# random examples instead.
settings.register_profile("default", derandomize=True)
settings.register_profile("explore", derandomize=False)


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic generator, fresh per test."""
    return make_rng(1234)


@pytest.fixture
def short_tilt_profile():
    """A compressed tilt-table profile usable in fast tests."""
    from repro.vehicle.profiles import static_tilt_profile

    return static_tilt_profile(duration=110.0, dwell_time=8.0, slew_time=3.0)
