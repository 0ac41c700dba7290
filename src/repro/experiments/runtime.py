"""Experiment F2 — runtime scaling: CUBIS vs the non-convex comparator.

The paper's efficiency claim: solving the single maximisation (15-17)
with a generic non-convex solver (fmincon / SLSQP multi-start) is
time-consuming, while CUBIS's binary search over MILPs scales.  This
sweep measures wall-clock per solve for both on the same random games —
and also records solution quality, because the comparator is allowed to
be slow *or* bad, and is usually both as ``T`` grows (local optima).

Expected shape: CUBIS time grows mildly with ``T``; multi-start time grows
much faster at equal (or worse) worst-case quality.
"""

from __future__ import annotations

from repro.analysis.reporting import format_series
from repro.analysis.sweep import ResultTable, run_grid
from repro.core.cubis import solve_cubis
from repro.core.exact import solve_exact
from repro.experiments.quality import default_uncertainty
from repro.game.generator import random_interval_game
from repro.utils.rng import spawn_generators

__all__ = ["run_runtime", "format_runtime"]


def _trial(
    rng,
    trial_index: int,
    *,
    num_targets: int,
    num_segments: int,
    epsilon: float,
    num_starts: int,
):
    # Decoupled streams: the game draw must not share a stream with the
    # solver — otherwise the amount of randomness the multistart consumes
    # (num_starts) would bleed into everything drawn after it, and the two
    # algorithms would not be measured on identical games across configs.
    game_rng, solver_rng = spawn_generators(rng, 2)
    game = random_interval_game(num_targets, seed=game_rng)
    uncertainty = default_uncertainty(game.payoffs)

    cubis = solve_cubis(game, uncertainty, num_segments=num_segments, epsilon=epsilon)
    exact = solve_exact(game, uncertainty, num_starts=num_starts, seed=solver_rng)

    yield {
        "algorithm": "cubis",
        "seconds": cubis.solve_seconds,
        "worst_case": cubis.worst_case_value,
    }
    yield {
        "algorithm": "multistart",
        "seconds": exact.solve_seconds,
        "worst_case": exact.worst_case_value,
    }


def run_runtime(
    *,
    target_counts=(5, 10, 20, 40),
    num_trials: int = 3,
    num_segments: int = 10,
    epsilon: float = 1e-2,
    num_starts: int = 10,
    seed: int = 2016,
    workers: int | None = None,
    **sweep_options,
) -> ResultTable:
    """Run the F2 sweep; one record per (size, trial, algorithm).

    ``workers > 1`` fans the (size, trial) cells out over a process pool;
    results are bit-identical to the serial run at the same seed.  Extra
    keyword arguments (``on_error=``) pass through to
    :func:`repro.analysis.sweep.run_grid`.
    """
    grid = [
        {
            "num_targets": t,
            "num_segments": num_segments,
            "epsilon": epsilon,
            "num_starts": num_starts,
        }
        for t in target_counts
    ]
    return run_grid(_trial, grid, num_trials=num_trials, seed=seed,
                    workers=workers, **sweep_options)


def format_runtime(table: ResultTable) -> str:
    """Render F2 as runtime and quality series over the target axis."""
    sizes = sorted({row["num_targets"] for row in table.rows})
    time_series = {}
    quality_series = {}
    for name in ("cubis", "multistart"):
        sub = table.where(algorithm=name)
        t_means = sub.group_mean("num_targets", "seconds")
        q_means = sub.group_mean("num_targets", "worst_case")
        time_series[f"{name} (s)"] = [t_means[s] for s in sizes]
        quality_series[f"{name} (U)"] = [q_means[s] for s in sizes]
    top = format_series(
        "targets", sizes, time_series, title="F2a: mean solve time vs #targets"
    )
    bottom = format_series(
        "targets",
        sizes,
        quality_series,
        title="F2b: mean worst-case utility vs #targets (quality at that speed)",
    )
    return top + "\n\n" + bottom
