"""Ablation A4 — CUBIS at scale: target counts up to 200.

The paper argues efficiency; this bench measures how far the two oracles
carry on a laptop.  The MILP (HiGHS) path is timed up to T = 100, the
grid-DP path (which trades a finer grid for no MILP) up to T = 200;
solution quality is cross-checked where both run.

Expected shape: both scale roughly linearly in T at fixed K (the MILP has
T·(2K+1) variables; the DP costs O(T·K·RK)); the DP's constant is far
smaller.

The report adds a per-call view of the MILP pipeline's numpy layers at
T = 25..200 (K = 10, best of 5 ``timeit`` repeats): one strategy
certificate, the level it certifies, one Lagrangian hull screen and one
hull bound evaluation.  A feasible step the hull decides costs one
screen, one certificate and one level.

Run:  pytest benchmarks/bench_scaling.py --benchmark-only
"""

import timeit

import numpy as np
import pytest

from repro.analysis.reporting import format_table
from repro.core.cubis import solve_cubis
from repro.core.hull import LagrangianHull
from repro.core.milp import CubisMilpSkeleton, step_grids
from repro.experiments.quality import default_uncertainty
from repro.game.generator import random_interval_game
from repro.solvers.piecewise import SegmentGrid
from repro.utils.timing import Timer


def _instance(num_targets):
    game = random_interval_game(num_targets, payoff_halfwidth=0.5, seed=1000 + num_targets)
    return game, default_uncertainty(game.payoffs)


@pytest.mark.parametrize("num_targets", [25, 50, 100])
def test_a4_milp_scaling(benchmark, num_targets):
    game, uncertainty = _instance(num_targets)
    result = benchmark.pedantic(
        solve_cubis,
        args=(game, uncertainty),
        kwargs={"num_segments": 10, "epsilon": 0.02},
        rounds=2,
        iterations=1,
    )
    assert np.isfinite(result.worst_case_value)


@pytest.mark.parametrize("num_targets", [25, 50, 100])
def test_a4_cold_scaling(benchmark, num_targets):
    """The memoise=False baseline at the same sizes — the gap between this
    and test_a4_milp_scaling is the per-solve win of the performance layer."""
    game, uncertainty = _instance(num_targets)
    result = benchmark.pedantic(
        solve_cubis,
        args=(game, uncertainty),
        kwargs={"num_segments": 10, "epsilon": 0.02, "memoise": False},
        rounds=2,
        iterations=1,
    )
    assert np.isfinite(result.worst_case_value)


@pytest.mark.parametrize("num_targets", [50, 100, 200])
def test_a4_dp_scaling(benchmark, num_targets):
    game, uncertainty = _instance(num_targets)
    result = benchmark.pedantic(
        solve_cubis,
        args=(game, uncertainty),
        kwargs={"num_segments": 40, "epsilon": 0.02, "oracle": "dp"},
        rounds=2,
        iterations=1,
    )
    assert np.isfinite(result.worst_case_value)


def _per_call_ms(call, number: int = 200) -> float:
    return min(timeit.repeat(call, number=number, repeat=5)) / number * 1e3


def per_call_costs(num_targets: int, num_segments: int = 10) -> list:
    """Milliseconds per call of the certificate layer and the hull screen
    at one mid-range candidate of a ``num_targets`` game."""
    game, uncertainty = _instance(num_targets)
    grid = SegmentGrid(num_segments)
    grids = step_grids(game, uncertainty, grid)
    skeleton = CubisMilpSkeleton(*grids, game.num_resources, grid)
    hull = LagrangianHull(*grids, game.num_resources, grid)
    lo, hi = game.utility_range()
    c = 0.5 * (lo + hi)
    screen = hull.screen(c)
    cert = skeleton.certificate(screen.witness)
    return [
        num_targets,
        _per_call_ms(lambda: skeleton.certificate(screen.witness)),
        _per_call_ms(lambda: cert.guaranteed_level(lo, hi)),
        _per_call_ms(lambda: hull.screen(c)),
        _per_call_ms(lambda: hull.bound_at(c, screen.lam)),
    ]


def test_a4_report(benchmark, report):
    game, uncertainty = _instance(25)
    benchmark(solve_cubis, game, uncertainty, num_segments=5, epsilon=0.1)

    rows = []
    for t in (25, 50, 100):
        game, uncertainty = _instance(t)
        timer_m = Timer()
        with timer_m:
            milp = solve_cubis(game, uncertainty, num_segments=10, epsilon=0.02)
        timer_d = Timer()
        with timer_d:
            dp = solve_cubis(
                game, uncertainty, num_segments=40, epsilon=0.02, oracle="dp"
            )
        rows.append(
            [t, timer_m.elapsed, milp.worst_case_value, timer_d.elapsed, dp.worst_case_value]
        )
        # Quality cross-check: the two oracles agree within the envelope.
        assert abs(milp.worst_case_value - dp.worst_case_value) < 0.25
    solves = format_table(
        ["targets", "MILP s (K=10)", "MILP value", "DP s (K=40)", "DP value"],
        rows,
        title="A4: CUBIS scaling — MILP vs grid-DP oracle",
        float_format="{:.3f}",
    )
    per_call = format_table(
        ["targets", "certificate ms", "guaranteed_level ms", "hull screen ms",
         "hull bound_at ms"],
        [per_call_costs(t) for t in (25, 50, 100, 200)],
        title="A4: per-call cost of the MILP pipeline's numpy layers (K=10)",
        float_format="{:.3f}",
    )
    report("a4_scaling", solves + "\n\n" + per_call)
