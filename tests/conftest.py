"""Shared fixtures (small canonical games and uncertainty models) and
the Hypothesis profiles every property test runs under.

Profiles
--------
``dev``
    The default for local runs: 50 examples per property, no deadline
    (solver-backed properties have wildly varying step times).
``ci``
    Selected automatically when ``CI`` is set (or explicitly via
    ``HYPOTHESIS_PROFILE=ci``): 150 examples for deeper coverage.
``fast``
    ``HYPOTHESIS_PROFILE=fast``: 10 examples, for quick smoke loops.

Individual tests only pin ``max_examples`` when the property is
*cost-bound* (each example runs a full solve); those explicit caps
override the profile.  Everything else inherits the profile, so
``HYPOTHESIS_PROFILE`` scales the whole suite.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

from repro.behavior.interval import IntervalSUQR

settings.register_profile("dev", max_examples=50, deadline=None)
settings.register_profile("ci", max_examples=150, deadline=None)
settings.register_profile("fast", max_examples=10, deadline=None)
settings.load_profile(
    os.environ.get(
        "HYPOTHESIS_PROFILE", "ci" if os.environ.get("CI") else "dev"
    )
)
from repro.game.payoffs import PayoffMatrix
from repro.game.ssg import IntervalSecurityGame, SecurityGame
from tests import fixtures_games


@pytest.fixture
def fresh_shape_cache(monkeypatch):
    """An empty process-wide skeleton shape cache for one test.

    Every memoised MILP solve leases from the one process cache, so
    earlier tests leave prototypes in it; tests that count its hits and
    misses start from a cold one.
    """
    from repro.solvers import fleet

    cache = fleet.SkeletonShapeCache()
    monkeypatch.setattr(fleet, "_process_cache", cache)
    return cache


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def simple_payoffs() -> PayoffMatrix:
    """A small 3-target point game with distinct stakes."""
    return fixtures_games.simple_point_payoffs()


@pytest.fixture
def simple_game(simple_payoffs) -> SecurityGame:
    return SecurityGame(simple_payoffs, num_resources=1)


@pytest.fixture
def table1() -> IntervalSecurityGame:
    return fixtures_games.canonical_table1()


@pytest.fixture
def table1_uncertainty(table1) -> IntervalSUQR:
    """The Section III weight boxes on the Table I game."""
    return fixtures_games.table1_suqr(table1)


@pytest.fixture
def small_interval_game() -> IntervalSecurityGame:
    """A fixed 4-target interval game used across solver tests."""
    return fixtures_games.small_interval_game()


@pytest.fixture
def small_uncertainty(small_interval_game) -> IntervalSUQR:
    return fixtures_games.small_suqr(small_interval_game)


@pytest.fixture
def random_small_game() -> IntervalSecurityGame:
    return fixtures_games.random_small_game()
