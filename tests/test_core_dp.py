"""Tests for the DP oracle (repro.core.dp) and its CUBIS integration."""

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.behavior.interval import IntervalSUQR
from repro.core import cubis
from repro.core import dp as dp_module
from repro.core.cubis import solve_cubis
from repro.core.dp import (
    _maximize_separable_on_grid_loop,
    _pruned_knapsack,
    maximize_separable_on_grid,
    maximize_separable_on_grid_batch,
)
from repro.core.hull import screen_grid
from repro.experiments.quality import default_uncertainty
from repro.game.generator import random_interval_game, table1_game
from tests.test_core_hull import overspending


def brute_force_grid(phi, budget):
    """Exhaustive enumeration of grid allocations (tiny instances only)."""
    t, cols = phi.shape
    k = cols - 1
    best = -np.inf
    best_units = None
    for units in itertools.product(range(k + 1), repeat=t):
        if sum(units) > budget:
            continue
        val = sum(phi[j, a] for j, a in enumerate(units))
        if val > best:
            best, best_units = val, units
    return best, np.array(best_units)


class TestMaximizeSeparableOnGrid:
    def test_single_target(self):
        phi = np.array([[0.0, 1.0, 3.0, 2.0]])
        alloc = maximize_separable_on_grid(phi, budget_units=3)
        assert alloc.value == 3.0
        assert alloc.units[0] == 2

    def test_budget_binds(self):
        phi = np.array([[0.0, 5.0], [0.0, 4.0], [0.0, 3.0]])
        alloc = maximize_separable_on_grid(phi, budget_units=2)
        assert alloc.value == 9.0
        assert alloc.units.sum() == 2

    def test_slack_allowed_when_phi_decreasing(self):
        """If allocating hurts, the DP leaves budget unused."""
        phi = np.array([[0.0, -1.0, -2.0]])
        alloc = maximize_separable_on_grid(phi, budget_units=2)
        assert alloc.value == 0.0
        assert alloc.units[0] == 0

    def test_zero_budget(self):
        phi = np.array([[1.0, 9.0], [2.0, 9.0]])
        alloc = maximize_separable_on_grid(phi, budget_units=0)
        assert alloc.value == 3.0
        np.testing.assert_array_equal(alloc.units, [0, 0])

    def test_budget_exceeding_capacity_clipped(self):
        phi = np.array([[0.0, 1.0], [0.0, 1.0]])
        alloc = maximize_separable_on_grid(phi, budget_units=100)
        assert alloc.value == 2.0

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError, match="budget_units"):
            maximize_separable_on_grid(np.zeros((1, 2)), -1)

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            maximize_separable_on_grid(np.zeros(3), 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_phi_rejected(self, bad):
        # A NaN or +inf entry used to end in the backtrack's bare
        # AssertionError (or, under python -O, a wrong allocation).
        phi = np.array([[0.0, 1.0, 2.0], [0.0, 3.0, 1.0]])
        phi[1, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            maximize_separable_on_grid(phi, 2)

    def test_coverage_conversion(self):
        phi = np.array([[0.0, 0.0, 1.0]])
        alloc = maximize_separable_on_grid(phi, budget_units=2)
        np.testing.assert_allclose(alloc.coverage(num_segments=2), [1.0])

    @given(
        st.integers(1, 4),
        st.integers(1, 4),
        st.integers(0, 8),
        st.integers(0, 10**6),
    )
    def test_matches_brute_force(self, t, k, budget, seed):
        rng = np.random.default_rng(seed)
        phi = rng.normal(size=(t, k + 1)) * 3
        alloc = maximize_separable_on_grid(phi, budget)
        bf_value, _ = brute_force_grid(phi, min(budget, t * k))
        assert alloc.value == pytest.approx(bf_value, abs=1e-9)
        assert alloc.units.sum() <= budget
        direct = sum(phi[j, a] for j, a in enumerate(alloc.units))
        assert alloc.value == pytest.approx(direct, abs=1e-9)


class TestCubisDPOracle:
    def test_table1_dp_converges_to_milp(self):
        """The DP snaps strategies to the grid, so it needs a much finer K
        than the MILP to resolve the kink at the robust optimum (see the
        module docstring) — but it must converge there."""
        game = table1_game()
        uncertainty = IntervalSUQR(
            game.payoffs, w1=(-6.0, -2.0), w2=(0.5, 1.0), w3=(0.4, 0.9)
        )
        milp = solve_cubis(game, uncertainty, num_segments=25, epsilon=1e-4)
        dp = solve_cubis(game, uncertainty, num_segments=200, epsilon=1e-4, oracle="dp")
        assert dp.worst_case_value == pytest.approx(milp.worst_case_value, abs=0.1)
        np.testing.assert_allclose(dp.strategy, milp.strategy, atol=0.05)

    def test_table1_dp_error_shrinks_with_k(self):
        game = table1_game()
        uncertainty = IntervalSUQR(
            game.payoffs, w1=(-6.0, -2.0), w2=(0.5, 1.0), w3=(0.4, 0.9)
        )
        values = [
            solve_cubis(
                game, uncertainty, num_segments=k, epsilon=1e-4, oracle="dp"
            ).worst_case_value
            for k in (25, 100, 400)
        ]
        assert values[2] >= values[0] - 1e-9
        assert values[2] == pytest.approx(-0.908, abs=0.05)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_games_dp_close_to_milp(self, seed):
        game = random_interval_game(6, payoff_halfwidth=0.5, seed=seed)
        uncertainty = IntervalSUQR(
            game.payoffs, w1=(-4.0, -2.0), w2=(0.6, 0.9), w3=(0.3, 0.6),
            convention="tight",
        )
        milp = solve_cubis(game, uncertainty, num_segments=12, epsilon=0.01)
        dp = solve_cubis(game, uncertainty, num_segments=96, epsilon=0.01, oracle="dp")
        assert dp.worst_case_value == pytest.approx(milp.worst_case_value, abs=0.15)

    def test_dp_strategy_feasible(self, small_interval_game, small_uncertainty):
        dp = solve_cubis(
            small_interval_game, small_uncertainty, num_segments=10, epsilon=0.01,
            oracle="dp",
        )
        assert small_interval_game.strategy_space.contains(dp.strategy, atol=1e-6)

    def test_invalid_oracle(self, small_interval_game, small_uncertainty):
        with pytest.raises(ValueError, match="oracle"):
            solve_cubis(small_interval_game, small_uncertainty, oracle="magic")


class TestVectorisedTransitionMatchesLoop:
    """The sliding-window max-plus transition must replay the reference
    loop bit for bit — same value, same units, same tie-breaks."""

    @pytest.mark.parametrize("seed", range(20))
    def test_random_instances_bit_identical(self, seed):
        rng = np.random.default_rng(seed)
        t = int(rng.integers(1, 9))
        k = int(rng.integers(1, 13))
        budget = int(rng.integers(0, t * k + 3))
        phi = rng.normal(size=(t, k + 1)).cumsum(axis=1)
        fast = maximize_separable_on_grid(phi, budget)
        slow = _maximize_separable_on_grid_loop(phi, budget)
        assert fast.value == slow.value
        np.testing.assert_array_equal(fast.units, slow.units)

    @pytest.mark.parametrize("seed", range(10))
    def test_tie_heavy_instances_bit_identical(self, seed):
        # Rounding phi to one decimal forces many exact DP ties; argmax's
        # first-occurrence rule must award them to the smallest
        # allocation exactly like the loop's strict `>` update.
        rng = np.random.default_rng(1000 + seed)
        t = int(rng.integers(2, 7))
        k = int(rng.integers(2, 9))
        budget = int(rng.integers(1, t * k + 1))
        phi = np.round(rng.normal(size=(t, k + 1)), 1)
        fast = maximize_separable_on_grid(phi, budget)
        slow = _maximize_separable_on_grid_loop(phi, budget)
        assert fast.value == slow.value
        np.testing.assert_array_equal(fast.units, slow.units)

    def test_all_zero_phi_prefers_empty_allocation(self):
        phi = np.zeros((3, 5))
        fast = maximize_separable_on_grid(phi, 6)
        slow = _maximize_separable_on_grid_loop(phi, 6)
        np.testing.assert_array_equal(fast.units, slow.units)
        np.testing.assert_array_equal(fast.units, np.zeros(3, dtype=np.int64))


def assert_matches_loop(phi, budget):
    fast = maximize_separable_on_grid(phi, budget)
    slow = _maximize_separable_on_grid_loop(phi, budget)
    assert fast.value == slow.value
    np.testing.assert_array_equal(fast.units, slow.units)


class TestPrunedKernelMatchesLoop:
    """The kernel keeps only the states whose Lagrangian completion bound
    reaches the screen's witness; its answer must still be the full
    table's bit for bit."""

    @pytest.mark.parametrize("budget", [0, 1, 7])
    def test_small_budgets(self, budget):
        rng = np.random.default_rng(budget)
        assert_matches_loop(rng.normal(size=(6, 5)).cumsum(axis=1), budget)

    @pytest.mark.parametrize("extra", [0, 1, 50])
    def test_budget_at_or_over_capacity(self, extra):
        rng = np.random.default_rng(extra)
        phi = rng.normal(size=(5, 4))
        assert_matches_loop(phi, 5 * 3 + extra)

    def test_zero_multiplier(self):
        # Every positive-slope hull edge fits the budget, so lam = 0 and
        # the completion bound is each target's plain maximum.
        rng = np.random.default_rng(3)
        phi = rng.normal(size=(6, 5))
        assert screen_grid(phi, 30).lam == 0.0
        assert_matches_loop(phi, 30)
        decreasing = -np.abs(rng.normal(size=(6, 5))).cumsum(axis=1)
        assert screen_grid(decreasing, 4).lam == 0.0
        assert_matches_loop(decreasing, 4)

    @pytest.mark.parametrize("seed", range(5))
    def test_single_target(self, seed):
        rng = np.random.default_rng(seed)
        assert_matches_loop(rng.normal(size=(1, 9)), int(rng.integers(0, 10)))

    @pytest.mark.parametrize("seed", range(5))
    def test_single_unit_moves(self, seed):
        rng = np.random.default_rng(seed)
        assert_matches_loop(rng.normal(size=(9, 2)), int(rng.integers(0, 10)))

    @pytest.mark.parametrize("value", [0.0, 1.5, -2.0])
    def test_all_equal_phi(self, value):
        assert_matches_loop(np.full((5, 7), value), 12)

    @given(
        st.integers(1, 10),
        st.integers(1, 12),
        st.integers(0, 130),
        st.integers(0, 10**6),
        st.sampled_from([None, 0, 1]),
    )
    def test_random_and_tie_heavy(self, t, k, budget, seed, decimals):
        rng = np.random.default_rng(seed)
        phi = rng.normal(size=(t, k + 1)).cumsum(axis=1)
        if decimals is not None:
            phi = np.round(phi, decimals)
        assert_matches_loop(phi, budget)

    def test_over_budget_witness_disables_pruning(self, monkeypatch):
        # A witness that spends every unit breaks the budget and proves
        # nothing: the kernel must keep every reachable state, not crash.
        monkeypatch.setattr(dp_module, "screen_grid", overspending(screen_grid))
        rng = np.random.default_rng(7)
        phi = rng.normal(size=(6, 5)).cumsum(axis=1)
        budget = 10
        assert dp_module.screen_grid(phi, budget).units.sum() > budget
        assert_matches_loop(phi, budget)
        _, kept = _pruned_knapsack(phi, budget)
        assert kept == [min(4 * (j + 1), budget) + 1 for j in range(6)]

    def test_replays_a_full_dp_solve(self, monkeypatch):
        # Every step of a memoise=False DP solve at the fleet_dp size
        # (T=100, K=40, 800 budget units) runs the kernel; each must
        # match the loop, and the kernel must actually prune.
        inputs = []
        kernel = cubis.maximize_separable_on_grid

        def record(phi, budget):
            inputs.append((np.array(phi), budget))
            return kernel(phi, budget)

        monkeypatch.setattr(cubis, "maximize_separable_on_grid", record)
        game = random_interval_game(100, seed=5)
        solve_cubis(game, default_uncertainty(game.payoffs), num_segments=40,
                    epsilon=1e-3, oracle="dp", memoise=False)
        assert len(inputs) >= 10
        for phi, budget in inputs:
            assert_matches_loop(phi, budget)
            _, kept = _pruned_knapsack(phi, budget)
            assert max(kept) <= (budget + 1) // 10


class TestBatchKernelMatchesScalar:
    """The batch entry point must equal per-game scalar calls bitwise
    — same values, same units, same tie-breaks at every batch index."""

    @pytest.mark.parametrize("seed", range(15))
    def test_random_batches_bit_identical(self, seed):
        rng = np.random.default_rng(seed)
        g = int(rng.integers(1, 6))
        t = int(rng.integers(1, 8))
        k = int(rng.integers(1, 11))
        budget = int(rng.integers(0, t * k + 3))
        phi = rng.normal(size=(g, t, k + 1)).cumsum(axis=2)
        batched = maximize_separable_on_grid_batch(phi, budget)
        assert len(batched) == g
        for game_index in range(g):
            scalar = maximize_separable_on_grid(phi[game_index], budget)
            assert batched[game_index].value == scalar.value
            np.testing.assert_array_equal(
                batched[game_index].units, scalar.units
            )

    @pytest.mark.parametrize("seed", range(8))
    def test_tie_heavy_batches_bit_identical(self, seed):
        rng = np.random.default_rng(2000 + seed)
        g = int(rng.integers(2, 5))
        t = int(rng.integers(2, 6))
        k = int(rng.integers(2, 8))
        budget = int(rng.integers(1, t * k + 1))
        phi = np.round(rng.normal(size=(g, t, k + 1)), 1)
        batched = maximize_separable_on_grid_batch(phi, budget)
        for game_index in range(g):
            scalar = maximize_separable_on_grid(phi[game_index], budget)
            assert batched[game_index].value == scalar.value
            np.testing.assert_array_equal(
                batched[game_index].units, scalar.units
            )

    def test_empty_batch(self):
        assert maximize_separable_on_grid_batch(
            np.zeros((0, 3, 4)), 5
        ) == []

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError, match="phi_batch"):
            maximize_separable_on_grid_batch(np.zeros((2, 3)), 1)

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError, match="budget_units"):
            maximize_separable_on_grid_batch(np.zeros((1, 1, 2)), -1)
