"""Tests for the standing-solve drift re-entry engine (repro.solvers.resolve).

The load-bearing property is **bit-identity**: ``resolve(handle, drifted)``
is drift classification plus ``solve_cubis(game, drifted,
warm_start=<hints>, **handle.options)`` and must return exactly what that
call returns — the shape-cache lease is pure machinery, never semantics.
The Hypothesis property drives that across shrink, widen, and mixed
drifts on quantised random games, and the state machine across sequences
of them; the widening regression pins that a stale lower bound is never
offered after a widen.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.behavior.interval import (
    BandScaledModel,
    FunctionIntervalModel,
    IntervalSUQR,
)
from repro.behavior.sampling import estimated_drift_sequence, shrink_factors
from repro.core.cubis import WarmStart, solve_cubis
from repro.experiments.quality import default_uncertainty
from repro.game.generator import random_interval_game
from repro.game.payoffs import IntervalPayoffs
from repro.game.ssg import IntervalSecurityGame
from repro.resilience.certificate import theorem_slack
from repro.solvers.resolve import classify_drift, resolve, start_resolve
from tests import fixtures_games


def per_target_scaled(base, factors):
    """Scale each target's band towards its geometric centre by its own
    factor — the per-target generalisation of :class:`BandScaledModel`,
    used here to manufacture mixed drifts (some targets shrink, some
    widen)."""
    f = np.asarray(factors, dtype=np.float64).reshape(-1, 1)

    def lower_fn(pts):
        low = base.lower_on_grid(pts)
        high = base.upper_on_grid(pts)
        centre = np.sqrt(low * high)
        return low ** f * centre ** (1.0 - f)

    def upper_fn(pts):
        low = base.lower_on_grid(pts)
        high = base.upper_on_grid(pts)
        centre = np.sqrt(low * high)
        return high ** f * centre ** (1.0 - f)

    return FunctionIntervalModel(base.num_targets, lower_fn, upper_fn)


def assert_same_result(got, want):
    """Bit-identity of two CUBIS results: strategy, bounds, trace and
    oracle accounting."""
    assert np.array_equal(got.strategy, want.strategy)
    assert got.worst_case_value == want.worst_case_value
    assert got.lower_bound == want.lower_bound
    assert got.upper_bound == want.upper_bound
    assert got.trace == want.trace
    assert got.iterations == want.iterations
    assert got.cache_hits == want.cache_hits


def assert_bit_identical(handle, outcome, drifted):
    """The identity contract: the resolve answer equals ``solve_cubis``
    on the post-drift intervals with the same hints and options."""
    want = solve_cubis(
        handle.game, drifted, warm_start=outcome.warm_start, **handle.options
    )
    assert_same_result(outcome.result, want)


class TestClassifyDrift:
    def grids(self, t=3, k=4):
        rng = np.random.default_rng(0)
        lower = rng.uniform(0.1, 0.4, size=(t, k))
        upper = lower + rng.uniform(0.1, 0.4, size=(t, k))
        return lower, upper

    def test_identical_grids_are_none(self):
        lower, upper = self.grids()
        report = classify_drift(lower, upper, lower.copy(), upper.copy())
        assert report.kind == "none"
        assert report.changed_targets == 0
        assert report.max_rel_change == 0.0
        assert report.bracket_reusable

    def test_pointwise_nesting_is_shrink(self):
        lower, upper = self.grids()
        report = classify_drift(lower, upper, lower * 1.05, upper * 0.95)
        assert report.kind == "shrink"
        assert report.changed_targets == 3
        assert report.max_rel_change == pytest.approx(0.05)
        assert report.bracket_reusable

    def test_pointwise_expansion_is_widen(self):
        lower, upper = self.grids()
        report = classify_drift(lower, upper, lower * 0.9, upper * 1.1)
        assert report.kind == "widen"
        assert not report.bracket_reusable

    def test_opposing_targets_are_mixed(self):
        lower, upper = self.grids()
        new_lower, new_upper = lower.copy(), upper.copy()
        new_lower[0] *= 1.05  # target 0 shrinks
        new_upper[1] *= 1.05  # target 1 widens
        report = classify_drift(lower, upper, new_lower, new_upper)
        assert report.kind == "mixed"
        assert report.changed_targets == 2
        assert not report.bracket_reusable

    def test_single_moved_target_counted_once(self):
        lower, upper = self.grids()
        new_upper = upper.copy()
        new_upper[2, 1] *= 0.99
        report = classify_drift(lower, upper, lower, new_upper)
        assert report.kind == "shrink"
        assert report.changed_targets == 1

    def test_shape_mismatch_rejected(self):
        lower, upper = self.grids()
        with pytest.raises(ValueError, match="share one shape"):
            classify_drift(lower, upper, lower[:2], upper[:2])


class TestStartResolve:
    def test_unsupported_option_rejected(self):
        game = fixtures_games.small_interval_game()
        uncertainty = fixtures_games.small_suqr(game)
        with pytest.raises(ValueError, match="unsupported standing-solve"):
            start_resolve(game, uncertainty, oracle="dp")
        with pytest.raises(ValueError, match="unsupported standing-solve"):
            start_resolve(game, uncertainty, coverage_constraints=())

    def test_initial_solve_matches_cold(self):
        game = fixtures_games.small_interval_game()
        uncertainty = fixtures_games.small_suqr(game)
        handle = start_resolve(game, uncertainty, num_segments=8)
        cold = solve_cubis(game, uncertainty, num_segments=8)
        assert handle.result.worst_case_value == pytest.approx(
            cold.worst_case_value, abs=1e-9
        )
        stats = handle.stats()
        assert stats["resolves"] == 0
        assert set(stats) == {"resolves", "warm_hits", "bracket_reuses"}


class TestResolveDrifts:
    @pytest.fixture()
    def standing(self):
        game = fixtures_games.small_interval_game()
        uncertainty = fixtures_games.small_suqr(game)
        handle = start_resolve(game, uncertainty, num_segments=8)
        return game, uncertainty, handle

    def test_no_drift_reuses_bracket(self, standing):
        _, uncertainty, handle = standing
        outcome = resolve(handle, BandScaledModel(uncertainty, 1.0))
        assert outcome.drift.kind == "none"
        assert outcome.bracket_reused
        assert outcome.warm_start.bracket == (
            outcome.prior_lower_bound, outcome.prior_upper_bound
        )

    def test_shrink_reuses_bracket_and_matches_cold(self, standing):
        _, uncertainty, handle = standing
        drifted = BandScaledModel(uncertainty, 0.9)
        outcome = resolve(handle, drifted)
        assert outcome.drift.kind == "shrink"
        assert outcome.bracket_reused
        assert outcome.warm_start.bracket is not None
        assert_bit_identical(handle, outcome, drifted)
        assert handle.result is outcome.result
        assert handle.uncertainty is drifted
        assert handle.resolves == 1
        assert handle.bracket_reuses == 1

    def test_widening_never_offers_stale_bracket(self, standing):
        """Regression: after a widen the prior lower bound may exceed the
        new optimum — the warm start must drop the bracket entirely and
        carry only the screened prior strategy."""
        _, uncertainty, handle = standing
        drifted = BandScaledModel(uncertainty, 1.2)
        outcome = resolve(handle, drifted)
        assert outcome.drift.kind == "widen"
        assert not outcome.bracket_reused
        assert outcome.warm_start.bracket is None
        assert outcome.warm_start.strategies
        assert handle.bracket_reuses == 0
        assert_bit_identical(handle, outcome, drifted)

    def test_mixed_drift_drops_bracket(self, standing):
        _, uncertainty, handle = standing
        drifted = per_target_scaled(uncertainty, [0.8, 1.2, 1.0, 1.0])
        outcome = resolve(handle, drifted)
        assert outcome.drift.kind == "mixed"
        assert not outcome.bracket_reused
        assert outcome.warm_start.bracket is None
        assert_bit_identical(handle, outcome, drifted)

    def test_chained_shrinks_are_monotone_within_slack(self, standing):
        """The exact robust value is monotone non-decreasing under
        shrink; each step's answer may only dip by the Theorem 1
        suboptimality slack of the K-segment approximant."""
        game, uncertainty, handle = standing
        slack = theorem_slack(game, handle.options["epsilon"],
                              handle.options["num_segments"])
        previous = float(handle.result.worst_case_value)
        for factor in (0.9, 0.81, 0.729):
            outcome = resolve(handle, BandScaledModel(uncertainty, factor))
            assert outcome.drift.kind == "shrink"
            value = float(outcome.result.worst_case_value)
            assert value >= previous - slack
            previous = value
        assert handle.resolves == 3
        assert handle.bracket_reuses == 3


class TestShrinkReentryCost:
    """The online PAC loop at T=50 (docs/ONLINE.md): a standing solve on
    each PAC interval estimate, re-entered down a four-step shrink
    ladder.  On each step the prior strategy's certified level passes
    the carried bracket, so the search gallops up from it instead of
    halving down from the top of the utility range (15-16 calls)."""

    def test_every_shrink_step_takes_at_most_ten_calls(self):
        rng = np.random.default_rng(0)
        game = random_interval_game(50, seed=0)
        truth = default_uncertainty(game.payoffs).midpoint_model()
        coverage = rng.uniform(0.05, 1.0, size=(4, 50))
        coverage = np.clip(
            coverage * game.num_resources / coverage.sum(axis=1, keepdims=True),
            0.0, 1.0,
        )
        estimates = estimated_drift_sequence(truth, coverage, [200, 400], seed=0)
        for estimate in estimates:
            handle = start_resolve(
                game, estimate.model, num_segments=10, epsilon=1e-3
            )
            for factor in shrink_factors(4):
                drifted = BandScaledModel(estimate.model, float(factor))
                outcome = resolve(handle, drifted)
                assert outcome.drift.kind == "shrink"
                assert outcome.result.iterations <= 10
                assert outcome.result.converged
                assert_bit_identical(handle, outcome, drifted)


# The 1e-3 coefficient quantisation shared with tests/test_verify_properties.py.
pos = st.floats(0.5, 5, allow_nan=False).map(lambda v: round(v, 3))
halfwidth = st.floats(0.05, 0.75, allow_nan=False).map(lambda v: round(v, 3))


@st.composite
def drifted_instances(draw, min_targets=2, max_targets=4):
    """A quantised random interval game, its SUQR model, and a drifted
    variant of one of the three kinds."""
    n = draw(st.integers(min_targets, max_targets))
    rewards = np.array([draw(pos) for _ in range(n)])
    penalties = -np.array([draw(pos) for _ in range(n)])
    h = draw(halfwidth)
    payoffs = IntervalPayoffs.zero_sum_midpoint(
        attacker_reward_lo=rewards,
        attacker_reward_hi=rewards + 2 * h,
        attacker_penalty_lo=penalties - 2 * h,
        attacker_penalty_hi=penalties,
    )
    game = IntervalSecurityGame(payoffs, num_resources=1)
    uncertainty = IntervalSUQR(
        game.payoffs,
        w1=(-4.0, -1.0),
        w2=(0.6, 0.9),
        w3=(0.3, 0.6),
        convention="tight",
    )
    kind = draw(st.sampled_from(["shrink", "widen", "mixed"]))
    if kind == "shrink":
        factor = draw(st.floats(0.5, 0.95).map(lambda v: round(v, 3)))
        drifted = BandScaledModel(uncertainty, factor)
    elif kind == "widen":
        factor = draw(st.floats(1.05, 1.3).map(lambda v: round(v, 3)))
        drifted = BandScaledModel(uncertainty, factor)
    else:
        factors = [
            draw(st.sampled_from([0.8, 0.9, 1.0, 1.1, 1.2])) for _ in range(n)
        ]
        drifted = per_target_scaled(uncertainty, factors)
    return game, uncertainty, drifted


class TestBitIdentityProperty:
    @given(drifted_instances())
    @settings(max_examples=8, deadline=None)  # cost-bound: 3 solves/example
    def test_resolve_equals_cold_solve_on_post_drift_intervals(self, inst):
        game, uncertainty, drifted = inst
        handle = start_resolve(game, uncertainty, num_segments=6)
        outcome = resolve(handle, drifted)
        assert_bit_identical(handle, outcome, drifted)
        # The classification feeding the warm start is consistent with
        # what was offered: only none/shrink may carry a bracket.
        assert (outcome.warm_start.bracket is not None) == (
            outcome.drift.kind in ("none", "shrink")
        )


class ResolveModel(RuleBasedStateMachine):
    """Model-based check of a standing resolve against a plain reference.

    The reference keeps only the last result and the current per-target
    band factors (relative to one base model, so equal factors give
    bitwise-equal grids).  Each rule drifts the factors in a direction
    it knows; the reference builds the :class:`WarmStart` by the
    documented rule (prior bracket plus prior strategy after ``none`` or
    ``shrink``, prior strategy alone otherwise) and solves with
    ``solve_cubis``.  Every resolve must equal that solve bit for bit,
    and the handle's counters must equal the reference's.
    """

    NUM_SEGMENTS = 6
    EPSILON = 1e-2

    @initialize(backend=st.sampled_from(["highs", "bnb"]))
    def open_handle(self, backend):
        self.game = fixtures_games.small_interval_game()
        self.base = fixtures_games.small_suqr(self.game)
        self.options = {"num_segments": self.NUM_SEGMENTS,
                        "epsilon": self.EPSILON, "backend": backend}
        self.factors = np.ones(self.game.num_targets)
        self.handle = start_resolve(self.game, self.base, **self.options)
        self.last = solve_cubis(self.game, self.base, **self.options)
        assert_same_result(self.handle.result, self.last)
        self.counts = {"resolves": 0, "warm_hits": 0, "bracket_reuses": 0}

    def _step(self, factors, kind):
        self.factors = np.asarray(factors, dtype=np.float64)
        drifted = per_target_scaled(self.base, self.factors)
        reusable = kind in ("none", "shrink")
        prior = self.last
        warm = WarmStart(
            bracket=((float(prior.lower_bound), float(prior.upper_bound))
                     if reusable else None),
            strategies=(prior.strategy,),
        )
        want = solve_cubis(self.game, drifted, warm_start=warm, **self.options)
        outcome = resolve(self.handle, drifted)
        assert outcome.drift.kind == kind
        assert outcome.bracket_reused == reusable
        assert outcome.warm_start.bracket == warm.bracket
        assert np.array_equal(outcome.warm_start.strategies[0], prior.strategy)
        assert_same_result(outcome.result, want)
        assert outcome.warm_hit == (want.cache_hits > 0)
        self.last = want
        self.counts["resolves"] += 1
        self.counts["warm_hits"] += int(want.cache_hits > 0)
        self.counts["bracket_reuses"] += int(reusable)

    @rule()
    def no_drift(self):
        self._step(self.factors, "none")

    @rule(scale=st.sampled_from([0.5, 0.7, 0.9]))
    def shrink(self, scale):
        self._step(self.factors * scale, "shrink")

    def _bounded(self):
        # Bands widened much past 1.3x stop being monotone in coverage.
        return self.factors.max() <= 1.0

    @precondition(_bounded)
    @rule(scale=st.sampled_from([1.1, 1.3]))
    def widen(self, scale):
        self._step(self.factors * scale, "widen")

    @precondition(_bounded)
    @rule(data=st.data())
    def mixed(self, data):
        # At least one target shrinks and one widens; the rest stay put.
        t = self.game.num_targets
        down, up = data.draw(st.permutations(range(t)))[:2]
        scales = np.ones(t)
        scales[down], scales[up] = 0.8, 1.2
        self._step(self.factors * scales, "mixed")

    @rule(scale=st.sampled_from([0.5, 0.8]))
    def widen_after_shrink(self, scale):
        self._step(self.factors * scale, "shrink")
        self._step(self.factors / scale, "widen")

    @invariant()
    def counters_match_model(self):
        if not hasattr(self, "handle"):
            return
        assert self.handle.resolves == self.counts["resolves"]
        assert self.handle.warm_hits == self.counts["warm_hits"]
        assert self.handle.bracket_reuses == self.counts["bracket_reuses"]
        assert_same_result(self.handle.result, self.last)


# Cost-bound (every step runs two solves): explicit caps override the
# conftest profile.
TestResolveModel = ResolveModel.TestCase
TestResolveModel.settings = settings(
    max_examples=20, stateful_step_count=12, deadline=None
)
