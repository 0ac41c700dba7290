"""Paired statistical comparison of two planners.

"CUBIS beats midpoint by 1.7 utility" needs an error bar: game-to-game
variation dwarfs planner differences, so the right design is *paired* —
run both planners on the same random games and test the per-game
differences.  :func:`compare_planners` does exactly that and reports the
mean difference, a bootstrap confidence interval, and the paired t-test
p-value (via :mod:`scipy.stats`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.utils.rng import as_generator, spawn_generators

__all__ = ["PlannerComparison", "compare_planners"]


@dataclass(frozen=True)
class PlannerComparison:
    """Paired comparison of planner A vs planner B.

    ``differences[g]`` is ``score_A - score_B`` on game ``g`` (positive
    favours A).  ``p_value`` is the two-sided paired t-test p-value; the
    confidence interval is a percentile bootstrap on the mean difference.
    """

    differences: np.ndarray
    mean_difference: float
    ci_low: float
    ci_high: float
    p_value: float

    @property
    def num_games(self) -> int:
        """Number of paired games."""
        return len(self.differences)

    @property
    def significant(self) -> bool:
        """Whether the difference is significant at the 5% level."""
        return self.p_value < 0.05

    def summary(self) -> str:
        """One-line human-readable verdict."""
        direction = "A > B" if self.mean_difference > 0 else "A < B"
        return (
            f"mean diff {self.mean_difference:+.4f} "
            f"[{self.ci_low:+.4f}, {self.ci_high:+.4f}] over {self.num_games} games, "
            f"paired t-test p = {self.p_value:.4g} ({direction}"
            f"{', significant' if self.significant else ', not significant'})"
        )


def compare_planners(
    game_factory: Callable,
    score_a: Callable,
    score_b: Callable,
    *,
    num_games: int = 10,
    confidence: float = 0.95,
    num_bootstrap: int = 2000,
    seed=0,
) -> PlannerComparison:
    """Paired comparison over randomly generated games.

    Parameters
    ----------
    game_factory:
        Called as ``game_factory(rng)``; returns the per-game context
        object handed to both scorers (e.g. a ``(game, uncertainty)``
        tuple).
    score_a, score_b:
        Called as ``score(context, rng)``; return the scalar score of the
        respective planner on that game (higher = better).  Each scorer
        receives its own child generator so internal randomness does not
        couple the two planners.
    num_games:
        Number of paired games.
    confidence, num_bootstrap:
        Bootstrap CI parameters for the mean difference.
    """
    if num_games < 2:
        raise ValueError(f"num_games must be >= 2, got {num_games}")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    rngs = spawn_generators(seed, 3 * num_games)
    diffs = np.empty(num_games)
    for g in range(num_games):
        context = game_factory(rngs[3 * g])
        a = float(score_a(context, rngs[3 * g + 1]))
        b = float(score_b(context, rngs[3 * g + 2]))
        diffs[g] = a - b

    if np.allclose(diffs, diffs[0]):
        # Degenerate case: identical differences (e.g. identical planners);
        # the t statistic is undefined.
        p_value = 1.0 if abs(diffs[0]) < 1e-12 else 0.0
    else:
        from scipy import stats

        p_value = float(stats.ttest_rel(diffs, np.zeros(num_games)).pvalue)

    boot_rng = as_generator(seed)
    boot_means = np.empty(num_bootstrap)
    for b in range(num_bootstrap):
        sample = diffs[boot_rng.integers(0, num_games, size=num_games)]
        boot_means[b] = sample.mean()
    alpha = 0.5 * (1.0 - confidence)
    return PlannerComparison(
        differences=diffs,
        mean_difference=float(diffs.mean()),
        ci_low=float(np.quantile(boot_means, alpha)),
        ci_high=float(np.quantile(boot_means, 1.0 - alpha)),
        p_value=p_value,
    )
