"""Property-based tests for the conformance subsystem (repro.verify).

Two families:

* **Differential agreement** — on random well-conditioned interval games
  (coefficients quantised to 1e-3, the same trick as
  ``tests/test_solvers_bnb.py``: it keeps Hypothesis's shrinker effective
  and avoids degenerate near-ties), the cross-solver checker must pass:
  the independent solver paths agree within the derived tolerance and
  every theorem predicate holds at the returned optimum.
* **Report round-trip** — ``ConformanceReport`` survives
  ``to_dict -> json -> from_dict`` exactly, for arbitrary check
  contents.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.behavior.interval import IntervalSUQR
from repro.game.payoffs import IntervalPayoffs
from repro.game.ssg import IntervalSecurityGame
from repro.verify import (
    ConformanceCheck,
    ConformanceReport,
    check_beta_elimination,
    check_segment_bound,
    check_value_point,
    differential_check,
)
from repro.verify.theorems import check_dp_hull_sandwich

# The 1e-3 coefficient quantisation shared with tests/test_solvers_bnb.py.
fl = st.floats(-5, 5, allow_nan=False).map(lambda v: round(v, 3))
pos = st.floats(0.5, 5, allow_nan=False).map(lambda v: round(v, 3))
halfwidth = st.floats(0.05, 0.75, allow_nan=False).map(lambda v: round(v, 3))


@st.composite
def random_games(draw, min_targets=2, max_targets=4):
    """A quantised random interval game + tight-convention SUQR model."""
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
    return game, uncertainty


@st.composite
def random_strategies(draw, game):
    """A feasible coverage vector for ``game`` (quantised)."""
    raw = np.array([
        draw(st.floats(0.0, 1.0, allow_nan=False).map(lambda v: round(v, 3)))
        for _ in range(game.num_targets)
    ])
    total = raw.sum()
    if total > game.num_resources:
        raw = raw * (game.num_resources / total)
    return raw


class TestDifferentialProperty:
    @given(random_games())
    @settings(max_examples=10, deadline=None)  # cost-bound: 4 solves/example
    def test_solver_paths_agree_on_well_conditioned_games(self, instance):
        game, uncertainty = instance
        checks = differential_check(
            game,
            uncertainty,
            num_segments=6,
            epsilon=1e-2,
            paths=("milp-highs", "milp-bnb", "milp-reference", "dp"),
        )
        failures = [c for c in checks if not c.passed]
        assert not failures, "\n".join(
            f"{c.name}: {c.detail} (context {c.context})" for c in failures
        )

    @given(random_games())
    @settings(max_examples=15, deadline=None)
    def test_theorem_predicates_hold_at_arbitrary_strategies(self, instance):
        game, uncertainty = instance
        # The theorem predicates are claims about *any* (x, c), not just
        # optima — check them at the uniform coverage strategy.
        x = np.full(game.num_targets, game.num_resources / game.num_targets)
        value_check = check_value_point(game, uncertainty, x)
        assert value_check.passed, value_check.detail
        c = value_check.context["root"]
        beta_check = check_beta_elimination(game, uncertainty, x, c, num_probes=16)
        assert beta_check.passed, beta_check.detail
        segment_check = check_segment_bound(game, uncertainty, 6, refine=9)
        assert segment_check.passed, segment_check.detail

    @given(random_games(), st.floats(-6, 6, allow_nan=False))
    @settings(max_examples=20, deadline=None)
    def test_beta_elimination_at_arbitrary_levels(self, instance, c):
        """Proposition 3 holds at any candidate level, not just the root."""
        game, uncertainty = instance
        x = np.full(game.num_targets, game.num_resources / game.num_targets)
        check = check_beta_elimination(game, uncertainty, x, round(c, 3),
                                       num_probes=16)
        assert check.passed, check.detail

    @given(random_games(), st.floats(-6, 6, allow_nan=False),
           st.integers(1, 12))
    @settings(max_examples=20, deadline=None)
    def test_dp_hull_sandwich_at_arbitrary_levels(self, instance, c, k):
        """The grid screen brackets the DP knapsack at any level and K."""
        game, uncertainty = instance
        check = check_dp_hull_sandwich(game, uncertainty, k, round(c, 3))
        assert check.passed, check.detail

    def test_dp_hull_sandwich_flags_a_kernel_off_the_reference(
        self, monkeypatch
    ):
        """The arm reads the optimum off the loop reference, so a kernel
        that drifts from it fails the arm even inside the bracket."""
        from repro.core.dp import GridAllocation
        from repro.experiments.quality import default_uncertainty
        from repro.game.generator import random_interval_game
        from repro.verify import theorems

        game = random_interval_game(6, seed=2)
        model = default_uncertainty(game.payoffs)
        assert check_dp_hull_sandwich(game, model, 8, -1.0).passed
        kernel = theorems.maximize_separable_on_grid

        def shuffled(phi, budget):
            out = kernel(phi, budget)
            return GridAllocation(value=out.value, units=out.units[::-1].copy())

        monkeypatch.setattr(theorems, "maximize_separable_on_grid", shuffled)
        check = check_dp_hull_sandwich(game, model, 8, -1.0)
        assert not check.passed
        assert "kernel units off the reference" in check.detail


json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-10**9, 10**9),
    st.floats(-1e9, 1e9, allow_nan=False),
    st.text(max_size=20),
)
contexts = st.dictionaries(
    st.text(min_size=1, max_size=10),
    st.one_of(json_scalars, st.lists(json_scalars, max_size=3)),
    max_size=4,
)
checks_strategy = st.builds(
    ConformanceCheck,
    name=st.text(min_size=1, max_size=30),
    passed=st.booleans(),
    detail=st.text(max_size=50),
    measured=st.one_of(st.none(), st.floats(-1e9, 1e9, allow_nan=False)),
    bound=st.one_of(st.none(), st.floats(-1e9, 1e9, allow_nan=False)),
    context=contexts,
)


class TestReportRoundTrip:
    @given(
        st.text(min_size=1, max_size=30),
        st.lists(checks_strategy, max_size=5),
        st.one_of(st.none(), st.integers(0, 2**31 - 1)),
        contexts,
    )
    @settings(max_examples=100, deadline=None)
    def test_report_json_round_trip(self, instance, checks, seed, metadata):
        report = ConformanceReport(
            instance=instance, checks=tuple(checks), seed=seed, metadata=metadata
        )
        assert report.round_trips()

    @given(st.lists(checks_strategy, min_size=1, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_passed_and_failures_are_consistent(self, checks):
        report = ConformanceReport(instance="x", checks=tuple(checks))
        assert report.passed == (len(report.failures()) == 0)
        assert all(not c.passed for c in report.failures())
        head = report.summary().splitlines()[0]
        assert ("PASS" in head) == report.passed
