"""Tests for the multi-start non-convex comparator (repro.core.exact)."""

import numpy as np
import pytest

from repro.behavior.interval import IntervalSUQR
from repro.core.cubis import solve_cubis
from repro.core.exact import solve_exact
from repro.game.generator import random_interval_game, table1_game


class TestSolveExact:
    def test_feasible_strategy(self, small_interval_game, small_uncertainty):
        res = solve_exact(small_interval_game, small_uncertainty, num_starts=6, seed=0)
        assert small_interval_game.strategy_space.contains(res.strategy, atol=1e-5)

    def test_close_to_cubis_on_table1(self):
        game = table1_game()
        uncertainty = IntervalSUQR(
            game.payoffs, w1=(-6.0, -2.0), w2=(0.5, 1.0), w3=(0.4, 0.9)
        )
        cubis = solve_cubis(game, uncertainty, num_segments=25, epsilon=1e-4)
        exact = solve_exact(game, uncertainty, num_starts=12, seed=1)
        # The comparator may be worse (local optima) but should not be
        # dramatically better than CUBIS (Theorem 1's guarantee).
        assert exact.worst_case_value <= cubis.worst_case_value + 0.05

    def test_deterministic_given_seed(self, small_interval_game, small_uncertainty):
        a = solve_exact(small_interval_game, small_uncertainty, num_starts=4, seed=9)
        b = solve_exact(small_interval_game, small_uncertainty, num_starts=4, seed=9)
        np.testing.assert_allclose(a.strategy, b.strategy)
        assert a.worst_case_value == b.worst_case_value

    def test_bookkeeping_fields(self, small_interval_game, small_uncertainty):
        res = solve_exact(small_interval_game, small_uncertainty, num_starts=5, seed=2)
        assert res.num_starts == 5
        assert 0 <= res.num_converged <= 5
        assert res.solve_seconds > 0

    def test_target_mismatch(self, small_uncertainty):
        other = random_interval_game(9, seed=0)
        with pytest.raises(ValueError, match="targets"):
            solve_exact(other, small_uncertainty)

    def test_more_starts_never_worse(self, small_interval_game, small_uncertainty):
        few = solve_exact(small_interval_game, small_uncertainty, num_starts=2, seed=3)
        many = solve_exact(small_interval_game, small_uncertainty, num_starts=12, seed=3)
        assert many.worst_case_value >= few.worst_case_value - 0.05

    def test_converged_start_with_bad_h_does_not_win(self):
        # On this battery instance the start with the best raw H scores
        # far below other starts by exact worst case; the comparator must
        # rank starts by the exact value and land within CUBIS's slack.
        from repro.resilience.certificate import theorem_slack
        from repro.experiments.quality import default_uncertainty

        game = random_interval_game(5, seed=1)
        uncertainty = default_uncertainty(game.payoffs)
        cubis = solve_cubis(game, uncertainty, num_segments=10, epsilon=1e-3)
        exact = solve_exact(game, uncertainty, num_starts=12, seed=0)
        slack = theorem_slack(game, 1e-3, 10)
        assert exact.worst_case_value >= cubis.worst_case_value - slack
        assert game.strategy_space.contains(exact.strategy, atol=1e-6)
