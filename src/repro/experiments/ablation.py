"""Experiment F4 — the ``O(epsilon + 1/K)`` guarantee, measured.

Theorem 1 bounds CUBIS's suboptimality by a term linear in the
binary-search tolerance ``epsilon`` plus a term decaying like ``1/K`` in
the segment count.  This ablation measures the actual gap against a
high-resolution reference solve (large ``K``, tiny ``epsilon``) while
sweeping one knob at a time, and reports the certified bound from
:mod:`repro.core.bounds` alongside.

Expected shape: the measured gap decreases monotonically (up to solver
noise) in ``K`` at fixed ``epsilon`` and in ``epsilon`` at fixed ``K``,
and always sits below the (deliberately conservative) certified bound.
"""

from __future__ import annotations

from repro.analysis.reporting import format_series
from repro.analysis.sweep import ResultTable, run_grid
from repro.core.bounds import bound_constants, certified_gap
from repro.core.cubis import solve_cubis
from repro.experiments.quality import default_uncertainty
from repro.game.generator import random_interval_game

__all__ = ["run_ablation_k", "run_ablation_epsilon", "format_ablation"]

_REFERENCE_K = 60
_REFERENCE_EPS = 1e-5


def _game_and_model(num_targets: int, rng):
    game = random_interval_game(num_targets, payoff_halfwidth=0.5, seed=rng)
    uncertainty = default_uncertainty(game.payoffs)
    return game, uncertainty


def _trial_k(rng, trial_index: int, *, num_segments: int, num_targets: int, epsilon: float):
    game, uncertainty = _game_and_model(num_targets, rng)
    reference = solve_cubis(
        game, uncertainty, num_segments=_REFERENCE_K, epsilon=_REFERENCE_EPS
    )
    result = solve_cubis(game, uncertainty, num_segments=num_segments, epsilon=epsilon)
    constants = bound_constants(game, uncertainty)
    yield {
        "gap": max(0.0, reference.worst_case_value - result.worst_case_value),
        "certified": certified_gap(constants, epsilon, num_segments),
        "bracket_distance": max(
            0.0,
            result.lower_bound - result.worst_case_value,
            result.worst_case_value - result.upper_bound,
        ),
        "value": result.worst_case_value,
        "reference_value": reference.worst_case_value,
    }


def _trial_epsilon(rng, trial_index: int, *, epsilon: float, num_targets: int, num_segments: int):
    game, uncertainty = _game_and_model(num_targets, rng)
    reference = solve_cubis(
        game, uncertainty, num_segments=num_segments, epsilon=_REFERENCE_EPS
    )
    result = solve_cubis(game, uncertainty, num_segments=num_segments, epsilon=epsilon)
    constants = bound_constants(game, uncertainty)
    yield {
        "gap": max(0.0, reference.worst_case_value - result.worst_case_value),
        "certified": certified_gap(constants, epsilon, num_segments),
        "bracket_distance": max(
            0.0,
            result.lower_bound - result.worst_case_value,
            result.worst_case_value - result.upper_bound,
        ),
        "value": result.worst_case_value,
        "reference_value": reference.worst_case_value,
    }


def run_ablation_k(
    *,
    segment_counts=(2, 4, 8, 16, 32),
    num_targets: int = 5,
    epsilon: float = 1e-4,
    num_trials: int = 3,
    seed: int = 2016,
    workers: int | None = None,
    **sweep_options,
) -> ResultTable:
    """Sweep the segment count ``K`` at a fixed tight ``epsilon``.

    Extra keyword arguments (``on_error=``) pass through to
    :func:`repro.analysis.sweep.run_grid`.
    """
    grid = [
        {"num_segments": k, "num_targets": num_targets, "epsilon": epsilon}
        for k in segment_counts
    ]
    return run_grid(_trial_k, grid, num_trials=num_trials, seed=seed,
                    workers=workers, **sweep_options)


def run_ablation_epsilon(
    *,
    epsilons=(0.5, 0.1, 0.02, 0.004),
    num_targets: int = 5,
    num_segments: int = 30,
    num_trials: int = 3,
    seed: int = 2016,
    workers: int | None = None,
    **sweep_options,
) -> ResultTable:
    """Sweep the binary-search tolerance at a fixed large ``K``.

    Extra keyword arguments (``on_error=``) pass through to
    :func:`repro.analysis.sweep.run_grid`.
    """
    grid = [
        {"epsilon": e, "num_targets": num_targets, "num_segments": num_segments}
        for e in epsilons
    ]
    return run_grid(_trial_epsilon, grid, num_trials=num_trials, seed=seed,
                    workers=workers, **sweep_options)


def format_ablation(table: ResultTable, axis: str) -> str:
    """Render an ablation table: measured vs certified gap over ``axis``
    (``"num_segments"`` or ``"epsilon"``)."""
    values = sorted({row[axis] for row in table.rows})
    measured = table.group_mean(axis, "gap")
    distance = table.group_mean(axis, "bracket_distance")
    certified = table.group_mean(axis, "certified")
    series = {
        "measured gap": [measured[v] for v in values],
        "exact-vs-bracket distance": [distance[v] for v in values],
        "certified bound (Lipschitz)": [certified[v] for v in values],
    }
    return format_series(
        axis,
        values,
        series,
        title=f"F4: optimality gap vs {axis} (measured below certified)",
        float_format="{:.5f}",
    )
