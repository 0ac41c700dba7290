"""Experiment F3 — the value of robustness vs the uncertainty level.

Fix a game and scale the SUQR weight boxes around their midpoints by a
factor ``delta in [0, ...]`` (0 = no behavioral uncertainty, 1 = the
Section III boxes, >1 = wider).  For each level compare CUBIS's and the
midpoint strategy's *worst-case* utilities.

Expected shape: at ``delta = 0`` the two coincide (no uncertainty to be
robust against); as ``delta`` grows both degrade, but the midpoint
strategy degrades much faster — the widening gap is the value of the
robust formulation, mirroring the Table I example where the gap was
(-0.90) vs (-2.26) at the paper's uncertainty level.
"""

from __future__ import annotations

from repro.analysis.reporting import format_series
from repro.analysis.sweep import ResultTable, run_grid
from repro.baselines.midpoint import solve_midpoint
from repro.core.cubis import solve_cubis
from repro.experiments.quality import default_uncertainty
from repro.game.generator import random_interval_game

__all__ = ["run_intervals", "format_intervals"]


def _trial(
    rng,
    trial_index: int,
    *,
    scale: float,
    num_targets: int,
    num_segments: int,
    epsilon: float,
):
    # Paired design: the game depends only on the trial index, so every
    # uncertainty scale is evaluated on the *same* games and the gap series
    # is a within-game comparison rather than across-game noise.  Both
    # uncertainty channels — the weight boxes and the attacker payoff
    # intervals — scale together, so scale 0 is a true no-uncertainty
    # point where robust and midpoint plans coincide.
    from repro.game.ssg import IntervalSecurityGame

    base_game = random_interval_game(
        num_targets, payoff_halfwidth=0.5, seed=10_000 + trial_index
    )
    payoffs = base_game.payoffs.with_scaled_width(scale)
    game = IntervalSecurityGame(payoffs, base_game.num_resources)
    uncertainty = default_uncertainty(payoffs).with_scaled_uncertainty(scale)

    cubis = solve_cubis(game, uncertainty, num_segments=num_segments, epsilon=epsilon)
    midpoint = solve_midpoint(game, uncertainty, num_segments=num_segments, epsilon=epsilon)

    yield {
        "algorithm": "cubis",
        "worst_case": cubis.worst_case_value,
        "nominal": cubis.worst_case_value,
    }
    yield {
        "algorithm": "midpoint",
        "worst_case": midpoint.worst_case_value,
        "nominal": midpoint.nominal_value,
    }


def run_intervals(
    *,
    scales=(0.0, 0.25, 0.5, 1.0, 1.5),
    num_targets: int = 10,
    num_trials: int = 5,
    num_segments: int = 10,
    epsilon: float = 1e-2,
    seed: int = 2016,
    workers: int | None = None,
    **sweep_options,
) -> ResultTable:
    """Run the F3 sweep over uncertainty scales.

    Extra keyword arguments (``on_error=``, ``fleet=``) pass through to
    :func:`repro.analysis.sweep.run_grid`.

    ``scale=0`` collapses the weight boxes to their midpoints (payoff
    intervals remain — set ``payoff_halfwidth`` via the trial body if a
    fully-degenerate game is needed; the default keeps a narrow payoff
    band so 'no weight uncertainty' is the natural baseline).
    """
    grid = [
        {
            "scale": s,
            "num_targets": num_targets,
            "num_segments": num_segments,
            "epsilon": epsilon,
        }
        for s in scales
    ]
    return run_grid(_trial, grid, num_trials=num_trials, seed=seed,
                    workers=workers, **sweep_options)


def format_intervals(table: ResultTable) -> str:
    """Render F3 as worst-case series over the uncertainty scale."""
    scales = sorted({row["scale"] for row in table.rows})
    series = {}
    for name in ("cubis", "midpoint"):
        sub = table.where(algorithm=name)
        means = sub.group_mean("scale", "worst_case")
        series[name] = [means[s] for s in scales]
    gap = [series["cubis"][i] - series["midpoint"][i] for i in range(len(scales))]
    series["gap (robust - midpoint)"] = gap
    return format_series(
        "scale",
        scales,
        series,
        title="F3: mean worst-case utility vs uncertainty-interval scale",
    )
