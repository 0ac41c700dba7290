"""A tiny, fully deterministic sweep driver for infrastructure testing.

The real experiment drivers record wall-clock fields (``seconds``), which
legitimately differ between two runs of the same cell — useless for
proving *bit-identity*.  This driver solves small random interval games
and records only solver-deterministic quantities, so a pooled
(``--workers``) or fleet-mode sweep must reproduce its table **byte for
byte** against the serial reference.  ``repro sweep smoke`` runs it.
"""

from __future__ import annotations

from repro.analysis.sweep import ResultTable, run_grid
from repro.behavior.interval import IntervalSUQR
from repro.core.cubis import solve_cubis
from repro.game.generator import random_interval_game

__all__ = ["run_smoke", "format_smoke"]


def _trial(rng, trial_index, *, num_targets, num_segments, epsilon):
    """One deterministic cell: solve a seeded game, record exact values."""
    game = random_interval_game(num_targets, seed=rng)
    # 'tight' interval arithmetic is valid for every payoff draw; the
    # paper's endpoint convention can produce a crossed interval on some
    # seeded games, which would make the smoke grid seed-fragile.
    uncertainty = IntervalSUQR(
        game.payoffs, w1=(-4.0, -2.0), w2=(0.6, 0.9), w3=(0.3, 0.6),
        convention="tight",
    )
    result = solve_cubis(
        game, uncertainty, num_segments=num_segments, epsilon=epsilon
    )
    yield {
        "worst_case": result.worst_case_value,
        "oracle_calls": result.oracle_calls,
        "iterations": result.iterations,
        "converged": result.converged,
    }


def run_smoke(
    *,
    target_counts=(3, 4),
    num_trials: int = 2,
    num_segments: int = 6,
    epsilon: float = 0.05,
    seed: int = 7,
    workers: int | None = None,
    **sweep_options,
) -> ResultTable:
    """Run the deterministic smoke sweep.

    Extra keyword arguments (``on_error=``, ``fleet=``) pass through to
    :func:`repro.analysis.sweep.run_grid`.
    """
    grid = [
        {"num_targets": t, "num_segments": num_segments, "epsilon": epsilon}
        for t in target_counts
    ]
    return run_grid(_trial, grid, num_trials=num_trials, seed=seed,
                    workers=workers, **sweep_options)


def format_smoke(table: ResultTable) -> str:
    """Render the smoke table as a one-line-per-size summary."""
    means = table.group_mean("num_targets", "worst_case")
    calls = table.group_mean("num_targets", "oracle_calls")
    lines = ["smoke sweep (deterministic):"]
    for size, mean in means.items():
        lines.append(
            f"  T={size}: mean worst-case {mean:.6f}, "
            f"mean oracle calls {calls[size]:.1f}"
        )
    if table.failures:
        lines.append(f"  failures: {len(table.failures)}")
    return "\n".join(lines)
