"""Ablation A4 — CUBIS at scale: target counts up to 200.

The paper argues efficiency; this bench measures how far the two oracles
carry on a laptop.  The MILP (HiGHS) path is timed up to T = 100, the
grid-DP path (which trades a finer grid for no MILP) up to T = 200;
solution quality is cross-checked where both run.

Expected shape: both scale roughly linearly in T at fixed K (the MILP has
T·(2K+1) variables; the DP kernel keeps only the few budget states that
can still reach the optimum, so it costs O(T·K²) rather than the full
table's O(T·K·RK)); the DP's constant is far smaller.

The report's solve times are medians of 5 solves after one warm-up
solve, at T = 25..200.  It adds a per-call view of the DP path's layers
at T = 25..200 and K = 10, 40 (best of 5 ``timeit`` repeats), taken at
the one table a screened DP solve hands the kernel: the step at the
solve's final candidate, its lower bound.  The columns are one grid hull
screen, the same screen forced through the ``_upper_hull`` gap loop (the
path it takes when a row's rising prefix cannot be certified concave,
and the strongest alternative to the certified one), one kernel run
(which includes its own screen) and the kernel's kept budget states per
target, mean and max, out of ``RK + 1``.  Then
a per-call view of the MILP pipeline's layers at
T = 25..200 (K = 10, best of 5 ``timeit`` repeats): one strategy
certificate, the level it certifies, one Lagrangian hull screen, one
hull bound evaluation, and one HiGHS LP-relaxation screen on a
:class:`~repro.solvers.milp_backend.LiveLp`.  A feasible step the hull
decides costs one screen, one certificate and one level; a step the
hull leaves open adds one LP screen.  The cold LP screen builds a new
live model, as the first screen of a solve does; the warm one
alternates between two candidates 1/64 of the utility range apart, each
solve starting from the other's optimal basis.

Run:  pytest benchmarks/bench_scaling.py --benchmark-only
"""

import statistics
import time
import timeit

import numpy as np
import pytest

from repro.analysis.reporting import format_table
from repro.core.cubis import solve_cubis
from repro.core.dp import (
    _pruned_knapsack,
    grid_budget_units,
    maximize_separable_on_grid,
)
from repro.core.hull import LagrangianHull, _screen_grid, screen_grid
from repro.core.milp import CubisMilpSkeleton, step_grids
from repro.experiments.quality import default_uncertainty
from repro.game.generator import random_interval_game
from repro.solvers.milp_backend import LiveLp, relax_integrality
from repro.solvers.piecewise import SegmentGrid


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


def _median_solve_s(solve, runs: int = 5):
    """``(median wall seconds, result)`` of ``runs`` calls to ``solve``
    after one untimed warm-up call."""
    result = solve()
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        solve()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), result


def per_call_costs(num_targets: int, num_segments: int = 10) -> list:
    """Milliseconds per call of the certificate layer, the hull screen and
    the LP screen at one mid-range candidate of a ``num_targets`` game."""
    game, uncertainty = _instance(num_targets)
    grid = SegmentGrid(num_segments)
    grids = step_grids(game, uncertainty, grid)
    skeleton = CubisMilpSkeleton(*grids, game.num_resources, grid)
    hull = LagrangianHull(*grids, game.num_resources, grid)
    lo, hi = game.utility_range()
    c = 0.5 * (lo + hi)
    screen = hull.screen(c)
    cert = skeleton.certificate(screen.witness)
    near = [relax_integrality(skeleton.patch(c + d).problem)
            for d in (0.0, (hi - lo) / 64)]
    warm = LiveLp()
    warm.solve(near[1])

    def warm_pair():
        warm.solve(near[0])
        warm.solve(near[1])

    return [
        num_targets,
        _per_call_ms(lambda: skeleton.certificate(screen.witness)),
        _per_call_ms(lambda: cert.guaranteed_level(lo, hi)),
        _per_call_ms(lambda: hull.screen(c)),
        _per_call_ms(lambda: hull.bound_at(c, screen.lam)),
        _per_call_ms(lambda: LiveLp().solve(near[0]), number=10),
        _per_call_ms(warm_pair, number=5) / 2,
    ]


def dp_per_call_costs(num_targets: int, num_segments: int) -> list:
    """Milliseconds per grid hull screen, per gap-loop screen and per
    kernel run, and the kernel's kept states per target, on the step
    table at the final candidate of a ``num_targets`` game's DP solve."""
    game, uncertainty = _instance(num_targets)
    result = solve_cubis(game, uncertainty, num_segments=num_segments,
                         epsilon=1e-3, oracle="dp")
    ud, lower, upper = step_grids(game, uncertainty, SegmentGrid(num_segments))
    margin = ud - result.lower_bound
    phi = np.minimum(lower * margin, upper * margin)
    budget = min(grid_budget_units(game.num_resources, num_segments),
                 num_targets * num_segments)
    _, kept = _pruned_knapsack(phi, budget)
    return [
        num_targets,
        num_segments,
        budget,
        _per_call_ms(lambda: screen_grid(phi, budget), number=20),
        _per_call_ms(lambda: _screen_grid(phi, budget, None), number=20),
        _per_call_ms(lambda: maximize_separable_on_grid(phi, budget), number=10),
        float(np.mean(kept)),
        max(kept),
    ]


def test_a4_report(benchmark, report):
    game, uncertainty = _instance(25)
    benchmark(solve_cubis, game, uncertainty, num_segments=5, epsilon=0.1)

    rows = []
    for t in (25, 50, 100, 200):
        game, uncertainty = _instance(t)
        milp_s, milp = _median_solve_s(lambda: solve_cubis(
            game, uncertainty, num_segments=10, epsilon=0.02
        ))
        dp_s, dp = _median_solve_s(lambda: solve_cubis(
            game, uncertainty, num_segments=40, epsilon=0.02, oracle="dp"
        ))
        rows.append([t, milp_s, milp.worst_case_value, dp_s, dp.worst_case_value])
        # Quality cross-check: the two oracles agree within the envelope.
        assert abs(milp.worst_case_value - dp.worst_case_value) < 0.25
    solves = format_table(
        ["targets", "MILP s (K=10)", "MILP value", "DP s (K=40)", "DP value"],
        rows,
        title="A4: CUBIS scaling — MILP vs grid-DP oracle (median of 5 solves)",
        float_format="{:.3f}",
    )
    dp_per_call = format_table(
        ["targets", "K", "budget units", "grid screen ms",
         "gap-loop screen ms", "kernel ms",
         "kept states mean", "kept states max"],
        [dp_per_call_costs(t, k) for k in (10, 40) for t in (25, 50, 100, 200)],
        title="A4: per-call cost of the DP path's layers (final candidate, ε=1e-3)",
        float_format="{:.3f}",
    )
    per_call = format_table(
        ["targets", "certificate ms", "guaranteed_level ms", "hull screen ms",
         "hull bound_at ms", "LP screen cold ms", "LP screen warm ms"],
        [per_call_costs(t) for t in (25, 50, 100, 200)],
        title="A4: per-call cost of the MILP pipeline's layers (K=10)",
        float_format="{:.3f}",
    )
    report("a4_scaling", solves + "\n\n" + dp_per_call + "\n\n" + per_call)
