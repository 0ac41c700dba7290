"""Tests for observation/execution noise (repro.behavior.noise) and the
unified-robustness solver options."""

import numpy as np
import pytest

from repro.behavior.noise import ObservationNoisyModel, execution_adjusted_coverage
from repro.core.cubis import solve_cubis
from repro.core.worst_case import evaluate_worst_case


class TestExecutionAdjustedCoverage:
    def test_shift_and_clip(self):
        x = np.array([0.05, 0.5, 1.0])
        np.testing.assert_allclose(
            execution_adjusted_coverage(x, 0.1), [0.0, 0.4, 0.9]
        )

    def test_zero_alpha_identity(self):
        x = np.array([0.3, 0.7])
        np.testing.assert_array_equal(execution_adjusted_coverage(x, 0.0), x)

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError, match="alpha"):
            execution_adjusted_coverage(np.zeros(2), -0.1)


class TestObservationNoisyModel:
    def test_gamma_zero_is_identity(self, small_uncertainty):
        noisy = ObservationNoisyModel(small_uncertainty, 0.0)
        x = np.array([0.2, 0.4, 0.1, 0.05])
        np.testing.assert_allclose(noisy.lower(x), small_uncertainty.lower(x))
        np.testing.assert_allclose(noisy.upper(x), small_uncertainty.upper(x))

    def test_widens_intervals(self, small_uncertainty):
        noisy = ObservationNoisyModel(small_uncertainty, 0.15)
        x = np.array([0.3, 0.5, 0.2, 0.4])
        assert np.all(noisy.lower(x) <= small_uncertainty.lower(x) + 1e-12)
        assert np.all(noisy.upper(x) >= small_uncertainty.upper(x) - 1e-12)

    def test_still_valid_uncertainty_model(self, small_uncertainty):
        ObservationNoisyModel(small_uncertainty, 0.2).validate()

    def test_grid_matches_pointwise(self, small_uncertainty):
        noisy = ObservationNoisyModel(small_uncertainty, 0.1)
        pts = np.linspace(0, 1, 7)
        lo_grid = noisy.lower_on_grid(pts)
        for j, p in enumerate(pts):
            np.testing.assert_allclose(lo_grid[:, j], noisy.lower(np.full(4, p)))

    def test_gamma_validation(self, small_uncertainty):
        with pytest.raises(ValueError, match="gamma"):
            ObservationNoisyModel(small_uncertainty, -0.1)
        with pytest.raises(ValueError, match="gamma"):
            ObservationNoisyModel(small_uncertainty, 1.5)

    def test_larger_gamma_never_helps(self, small_interval_game, small_uncertainty):
        x = small_interval_game.strategy_space.uniform()
        values = [
            evaluate_worst_case(
                small_interval_game, ObservationNoisyModel(small_uncertainty, g), x
            ).value
            for g in (0.0, 0.1, 0.3)
        ]
        assert values[0] >= values[1] - 1e-9 >= values[2] - 2e-9

    def test_accessors(self, small_uncertainty):
        noisy = ObservationNoisyModel(small_uncertainty, 0.25)
        assert noisy.gamma == 0.25
        assert noisy.base is small_uncertainty
        assert noisy.num_targets == 4

    def test_lipschitz_passthrough(self, small_uncertainty):
        noisy = ObservationNoisyModel(small_uncertainty, 0.1)
        a = noisy.lipschitz_bounds()
        b = small_uncertainty.lipschitz_bounds()
        np.testing.assert_allclose(a[0], b[0])


class TestUnifiedRobustCubis:
    def test_alpha_zero_matches_base(self, small_interval_game, small_uncertainty):
        base = solve_cubis(small_interval_game, small_uncertainty, num_segments=8, epsilon=0.05)
        zero = solve_cubis(
            small_interval_game, small_uncertainty, num_segments=8, epsilon=0.05,
            execution_alpha=0.0,
        )
        assert zero.worst_case_value == pytest.approx(base.worst_case_value, abs=1e-9)

    def test_execution_noise_lowers_guarantee(self, small_interval_game, small_uncertainty):
        base = solve_cubis(small_interval_game, small_uncertainty, num_segments=10, epsilon=0.02)
        noisy = solve_cubis(
            small_interval_game, small_uncertainty, num_segments=10, epsilon=0.02,
            execution_alpha=0.15,
        )
        assert noisy.worst_case_value <= base.worst_case_value + 1e-6

    def test_guarantee_holds_under_sampled_execution(self, small_interval_game, small_uncertainty, rng):
        alpha = 0.1
        result = solve_cubis(
            small_interval_game, small_uncertainty, num_segments=10, epsilon=0.02,
            execution_alpha=alpha,
        )
        for _ in range(20):
            shortfall = rng.uniform(0.0, alpha, size=4)
            realised = np.maximum(result.strategy - shortfall, 0.0)
            v = evaluate_worst_case(small_interval_game, small_uncertainty, realised).value
            assert v >= result.worst_case_value - 1e-6

    def test_observation_noise_end_to_end(self, small_interval_game, small_uncertainty):
        noisy = ObservationNoisyModel(small_uncertainty, 0.1)
        result = solve_cubis(small_interval_game, noisy, num_segments=10, epsilon=0.02)
        base = solve_cubis(small_interval_game, small_uncertainty, num_segments=10, epsilon=0.02)
        assert result.worst_case_value <= base.worst_case_value + 0.02

    def test_negative_alpha_rejected(self, small_interval_game, small_uncertainty):
        for alpha in (-0.1, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="execution_alpha"):
                solve_cubis(small_interval_game, small_uncertainty,
                            execution_alpha=alpha)
