"""Tests for the PASAQ baseline (known-model defender optimisation)."""

import numpy as np
import pytest

from repro.baselines.pasaq import solve_pasaq
from repro.behavior.qr import QuantalResponse
from repro.behavior.suqr import SUQR
from repro.game.generator import random_game
from repro.game.ssg import SecurityGame


def brute_force_2t(game, model, grid_points=801):
    best_x, best_v = None, -np.inf
    for a in np.linspace(0, 1, grid_points):
        x = np.array([a, 1.0 - a])
        v = model.expected_defender_utility(game.defender_utilities(x), x)
        if v > best_v:
            best_v, best_x = v, x
    return best_x, best_v


class TestPasaqOptimality:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_brute_force_suqr(self, seed):
        game = random_game(2, num_resources=1, seed=seed)
        model = SUQR(game.payoffs, (-3.0, 0.8, 0.5))
        bx, bv = brute_force_2t(game, model)
        result = solve_pasaq(game, model, num_segments=30, epsilon=1e-4)
        assert result.value == pytest.approx(bv, abs=0.02)

    def test_matches_brute_force_qr(self):
        game = random_game(2, num_resources=1, seed=5)
        model = QuantalResponse(game.payoffs, rationality=0.8)
        bx, bv = brute_force_2t(game, model)
        result = solve_pasaq(game, model, num_segments=30, epsilon=1e-4)
        assert result.value == pytest.approx(bv, abs=0.02)

    def test_beats_uniform(self, simple_game):
        model = SUQR(simple_game.payoffs, (-2.0, 0.7, 0.4))
        result = solve_pasaq(simple_game, model, num_segments=15, epsilon=1e-3)
        x_u = simple_game.strategy_space.uniform()
        uniform_v = model.expected_defender_utility(
            simple_game.defender_utilities(x_u), x_u
        )
        assert result.value >= uniform_v - 0.02


class TestPasaqMechanics:
    def test_strategy_feasible(self, simple_game):
        model = SUQR(simple_game.payoffs, (-2.0, 0.7, 0.4))
        result = solve_pasaq(simple_game, model, num_segments=10, epsilon=0.01)
        assert simple_game.strategy_space.contains(result.strategy, atol=1e-6)

    def test_bracket_contains_value(self, simple_game):
        model = SUQR(simple_game.payoffs, (-2.0, 0.7, 0.4))
        result = solve_pasaq(simple_game, model, num_segments=20, epsilon=1e-3)
        # The approximated optimum is bracketed; the exact value of the
        # returned strategy should sit within O(1/K) of the bracket.
        assert result.value >= result.lower_bound - 0.25
        assert result.value <= result.upper_bound + 0.25

    def test_bracket_width(self, simple_game):
        model = SUQR(simple_game.payoffs, (-2.0, 0.7, 0.4))
        result = solve_pasaq(simple_game, model, num_segments=10, epsilon=1e-3)
        assert result.upper_bound - result.lower_bound <= 1e-3 + 1e-12

    def test_target_mismatch(self, simple_game):
        other = random_game(7, seed=0)
        model = SUQR(other.payoffs, (-2.0, 0.7, 0.4))
        with pytest.raises(ValueError, match="targets"):
            solve_pasaq(simple_game, model)

    def test_invalid_epsilon(self, simple_game):
        model = SUQR(simple_game.payoffs, (-2.0, 0.7, 0.4))
        for epsilon in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="epsilon"):
                solve_pasaq(simple_game, model, epsilon=epsilon)

    def test_backends_agree(self, simple_game):
        model = SUQR(simple_game.payoffs, (-2.0, 0.7, 0.4))
        a = solve_pasaq(simple_game, model, num_segments=6, epsilon=0.05, backend="highs")
        b = solve_pasaq(simple_game, model, num_segments=6, epsilon=0.05, backend="bnb")
        assert a.lower_bound == pytest.approx(b.lower_bound, abs=1e-9)

    def test_rational_attacker_limit(self):
        """With a very sharp QR attacker, PASAQ's coverage should chase the
        attacker's preferred target."""
        game = random_game(3, num_resources=1, seed=8, zero_sum=True)
        sharp = QuantalResponse(game.payoffs, rationality=8.0)
        result = solve_pasaq(game, sharp, num_segments=20, epsilon=1e-3)
        # The attacker's top target at the found strategy gets real coverage.
        q = sharp.choice_probabilities(result.strategy)
        assert result.strategy[np.argmax(q)] > 0.1


class TestPasaqResilience:
    def test_converged_flag_default(self, simple_game):
        model = SUQR(simple_game.payoffs, (-2.0, 0.7, 0.4))
        result = solve_pasaq(simple_game, model, num_segments=8, epsilon=0.01)
        assert result.converged
        assert not result.degraded and result.resilience is None

    def test_validates_num_segments(self, simple_game):
        model = SUQR(simple_game.payoffs, (-2.0, 0.7, 0.4))
        with pytest.raises(ValueError, match="num_segments"):
            solve_pasaq(simple_game, model, num_segments=0)
        with pytest.raises(ValueError, match="max_iterations"):
            solve_pasaq(simple_game, model, max_iterations=0)

    def test_ladder_strips_dp_rung(self, simple_game):
        from repro.resilience import ResiliencePolicy

        model = SUQR(simple_game.payoffs, (-2.0, 0.7, 0.4))
        result = solve_pasaq(
            simple_game, model, num_segments=8, epsilon=0.01,
            resilience=ResiliencePolicy(),
        )
        assert result.resilience is not None
        assert all("milp" in label for label in result.resilience.rung_labels)
        assert not result.degraded

    def test_recovers_from_injected_faults(self, simple_game):
        from repro.resilience import FaultInjector, ResiliencePolicy, injected_policy

        model = SUQR(simple_game.payoffs, (-2.0, 0.7, 0.4))
        clean = solve_pasaq(simple_game, model, num_segments=8, epsilon=0.01)
        injector = FaultInjector(0.5, seed=11)
        policy = injected_policy(injector, ResiliencePolicy(max_retries=4))
        faulty = solve_pasaq(
            simple_game, model, num_segments=8, epsilon=0.01,
            resilience=policy,
        )
        assert injector.faults > 0
        assert faulty.value == pytest.approx(clean.value, abs=1e-9)
        assert faulty.degraded == (faulty.resilience.rung_counts[1] > 0)
