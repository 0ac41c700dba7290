"""Experiment F1 — solution quality vs number of targets.

For random interval games of growing size, compare the *worst-case*
defender utility of five strategies:

* **CUBIS** (the paper's robust algorithm),
* **midpoint** (non-robust: optimise against the interval midpoints),
* **worst-type** (robust over a sampled finite type set, the Brown et al.
  GameSec'14 approach the paper criticises),
* **payoff maximin** (behavior-blind robustness),
* **uniform** (no optimisation).

Expected shape: CUBIS on top everywhere; midpoint competitive only when
intervals are narrow; worst-type between CUBIS and midpoint (it hedges,
but only against the types it sampled); maximin and uniform trailing.
"""

from __future__ import annotations

from repro.analysis.evaluation import evaluate_strategy
from repro.analysis.reporting import format_series
from repro.analysis.sweep import ResultTable, run_grid
from repro.baselines.maximin import solve_maximin
from repro.baselines.midpoint import solve_midpoint
from repro.baselines.uniform import solve_uniform
from repro.baselines.worst_type import solve_worst_type
from repro.behavior.interval import IntervalSUQR
from repro.behavior.sampling import sample_attacker_types
from repro.core.cubis import solve_cubis
from repro.game.generator import random_interval_game
from repro.utils.rng import spawn_generators

__all__ = ["run_quality", "format_quality", "DEFAULT_WEIGHT_BOXES", "ALGORITHMS", "default_uncertainty"]

#: The Section III weight boxes, reused as the default uncertainty set.
DEFAULT_WEIGHT_BOXES = {"w1": (-6.0, -2.0), "w2": (0.5, 1.0), "w3": (0.4, 0.9)}

ALGORITHMS = ("cubis", "midpoint", "worst_type", "maximin", "uniform")


def default_uncertainty(payoffs) -> IntervalSUQR:
    """The sweep-wide uncertainty model: Section III weight boxes with the
    *tight* interval convention (the paper's endpoint rule can produce
    crossed intervals on random payoffs — see the interval module docs)."""
    return IntervalSUQR(payoffs, **DEFAULT_WEIGHT_BOXES, convention="tight")


def _trial(
    rng,
    trial_index: int,
    *,
    num_targets: int,
    num_segments: int,
    epsilon: float,
    payoff_halfwidth: float,
    num_types: int,
):
    # One child stream per random consumer (game draw, type sampling,
    # multistart solver) so none of them can perturb the others' streams
    # when its parameters change.
    game_rng, types_rng, solver_rng = spawn_generators(rng, 3)
    game = random_interval_game(
        num_targets, payoff_halfwidth=payoff_halfwidth, seed=game_rng
    )
    uncertainty = default_uncertainty(game.payoffs)

    strategies = {}
    strategies["cubis"] = solve_cubis(
        game, uncertainty, num_segments=num_segments, epsilon=epsilon
    ).strategy
    strategies["midpoint"] = solve_midpoint(
        game, uncertainty, num_segments=num_segments, epsilon=epsilon
    ).strategy
    types = sample_attacker_types(uncertainty, num_types, seed=types_rng)
    strategies["worst_type"] = solve_worst_type(
        game, types, num_starts=5, seed=solver_rng
    ).strategy
    strategies["maximin"] = solve_maximin(game).strategy
    strategies["uniform"] = solve_uniform(game).strategy

    for name in ALGORITHMS:
        ev = evaluate_strategy(game, uncertainty, strategies[name], sampled_types=types)
        yield {
            "algorithm": name,
            "worst_case": ev.worst_case,
            "midpoint_value": ev.midpoint,
            "sampled_min": ev.sampled_min,
        }


def run_quality(
    *,
    target_counts=(5, 10, 20, 40),
    num_trials: int = 5,
    num_segments: int = 10,
    epsilon: float = 1e-2,
    payoff_halfwidth: float = 1.0,
    num_types: int = 8,
    seed: int = 2016,
    workers: int | None = None,
    **sweep_options,
) -> ResultTable:
    """Run the F1 sweep; returns one record per (size, trial, algorithm).

    Extra keyword arguments (``on_error=``, ``fleet=``) pass through to
    :func:`repro.analysis.sweep.run_grid`.
    """
    grid = [
        {
            "num_targets": t,
            "num_segments": num_segments,
            "epsilon": epsilon,
            "payoff_halfwidth": payoff_halfwidth,
            "num_types": num_types,
        }
        for t in target_counts
    ]
    return run_grid(_trial, grid, num_trials=num_trials, seed=seed,
                    workers=workers, **sweep_options)


def format_quality(table: ResultTable) -> str:
    """Render F1 as worst-case-utility series over the target axis."""
    sizes = sorted({row["num_targets"] for row in table.rows})
    series = {}
    for name in ALGORITHMS:
        sub = table.where(algorithm=name)
        means = sub.group_mean("num_targets", "worst_case")
        series[name] = [means[s] for s in sizes]
    return format_series(
        "targets",
        sizes,
        series,
        title="F1: mean worst-case defender utility vs #targets",
    )
