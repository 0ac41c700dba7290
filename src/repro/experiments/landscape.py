"""Experiment F5 — the full solution-concept landscape on one game class.

One table, every solution concept in the repository: for a batch of
random interval games, evaluate each planner's strategy from three angles
(worst case over the intervals, midpoint case, minimum over sampled
types).  This is the wide-angle version of F1, covering the prior-art
stances the paper positions against:

* robust: CUBIS (the paper), worst-type [3], payoff maximin, minimax
  regret [1]-lineage;
* non-robust: midpoint, Bayesian [20], SSE [4], MATCH (Pita et al.),
  uniform.

Expected shape: CUBIS tops the worst-case column; the Bayesian/midpoint
plans top the midpoint column but collapse in the worst case; SSE and
MATCH (built for rational attackers) sit mid-pack everywhere against a
boundedly rational population.
"""

from __future__ import annotations

from repro.analysis.evaluation import evaluate_strategy
from repro.analysis.reporting import format_table
from repro.analysis.sweep import ResultTable, run_grid
from repro.baselines.bayesian import solve_bayesian
from repro.baselines.match import solve_match
from repro.baselines.maximin import solve_maximin
from repro.baselines.midpoint import solve_midpoint
from repro.baselines.rational import solve_sse
from repro.baselines.regret import solve_minimax_regret
from repro.baselines.uniform import solve_uniform
from repro.baselines.worst_type import solve_worst_type
from repro.behavior.sampling import sample_attacker_types
from repro.core.cubis import solve_cubis
from repro.experiments.quality import default_uncertainty
from repro.game.generator import random_interval_game
from repro.utils.rng import spawn_generators

__all__ = ["LANDSCAPE_ALGORITHMS", "run_landscape", "format_landscape"]

LANDSCAPE_ALGORITHMS = (
    "cubis",
    "worst_type",
    "minimax_regret",
    "maximin",
    "midpoint",
    "bayesian",
    "sse",
    "match",
    "uniform",
)


def _trial(
    rng,
    trial_index: int,
    *,
    num_targets: int,
    num_segments: int,
    epsilon: float,
    num_types: int,
):
    # General-sum stakes + moderate uncertainty: the regime where the nine
    # concepts separate (zero-sum games collapse SSE = MATCH = maximin,
    # and very wide intervals collapse the robust optimum onto maximin).
    # One child stream per random consumer so a change in any solver's
    # appetite for randomness (e.g. num_starts) cannot re-deal the game
    # or perturb its siblings.
    game_rng, types_rng, wt_rng, regret_rng, bayes_rng = spawn_generators(rng, 5)
    game = random_interval_game(
        num_targets, payoff_halfwidth=0.5, zero_sum=False, seed=game_rng
    )
    uncertainty = default_uncertainty(game.payoffs).with_scaled_uncertainty(0.4)
    types = sample_attacker_types(uncertainty, num_types, seed=types_rng)
    midpoint_game = game.midpoint_game()

    strategies = {
        "cubis": solve_cubis(
            game, uncertainty, num_segments=num_segments, epsilon=epsilon
        ).strategy,
        "worst_type": solve_worst_type(game, types, num_starts=5, seed=wt_rng).strategy,
        "minimax_regret": solve_minimax_regret(
            game, types, num_segments=num_segments, num_starts=5, seed=regret_rng
        ).strategy,
        "maximin": solve_maximin(game).strategy,
        "midpoint": solve_midpoint(
            game, uncertainty, num_segments=num_segments, epsilon=epsilon
        ).strategy,
        "bayesian": solve_bayesian(game, types, num_starts=5, seed=bayes_rng).strategy,
        "sse": solve_sse(midpoint_game).strategy,
        "match": solve_match(midpoint_game, beta=1.0).strategy,
        "uniform": solve_uniform(game).strategy,
    }
    for name in LANDSCAPE_ALGORITHMS:
        ev = evaluate_strategy(game, uncertainty, strategies[name], sampled_types=types)
        yield {
            "algorithm": name,
            "worst_case": ev.worst_case,
            "midpoint_value": ev.midpoint,
            "sampled_min": ev.sampled_min,
            "sampled_mean": ev.sampled_mean,
        }


def run_landscape(
    *,
    num_targets: int = 10,
    num_trials: int = 3,
    num_segments: int = 10,
    epsilon: float = 0.01,
    num_types: int = 6,
    seed: int = 2016,
    workers: int | None = None,
    **sweep_options,
) -> ResultTable:
    """Run the landscape comparison; one record per (trial, algorithm).

    Extra keyword arguments (``on_error=``) pass through to
    :func:`repro.analysis.sweep.run_grid`.
    """
    grid = [
        {
            "num_targets": num_targets,
            "num_segments": num_segments,
            "epsilon": epsilon,
            "num_types": num_types,
        }
    ]
    return run_grid(_trial, grid, num_trials=num_trials, seed=seed,
                    workers=workers, **sweep_options)


def format_landscape(table: ResultTable) -> str:
    """Render F5: one row per solution concept, mean metrics as columns,
    sorted by worst case (the paper's criterion)."""
    rows = []
    for name in LANDSCAPE_ALGORITHMS:
        sub = table.where(algorithm=name)
        rows.append(
            [
                name,
                float(sub.column("worst_case").mean()),
                float(sub.column("midpoint_value").mean()),
                float(sub.column("sampled_min").mean()),
                float(sub.column("sampled_mean").mean()),
            ]
        )
    rows.sort(key=lambda r: -r[1])
    return format_table(
        ["solution concept", "worst case", "midpoint case", "min over types", "mean over types"],
        rows,
        title="F5: the solution-concept landscape (means over trials; sorted by worst case)",
    )
