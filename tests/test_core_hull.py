"""The Lagrangian hull screen (repro.core.hull) and its place in CUBIS.

Soundness: the hull witness's exact ``G_bar`` and ``B(lam)`` sandwich
the step MILP's optimum, for the minimising ``lam`` and any other, also
under ``sum x = R`` and when ``fbar1 - fbar2`` changes sign more than
once on a target.  Agreement: along a replayed bisection the hull's
verdicts are the fresh-build MILP's wherever the optimum is not within
the tolerance of zero.  Pipeline: a default solve decides steps with the
screen and lands within the Theorem-1 slack of the ``memoise=False``
reference; side constraints skip the screen.  DP oracle: the grid
screen's witness sum, the knapsack optimum and ``min B`` bracket each
other (the lower end exactly in float), so screened DP solves, fleets
included, equal ``memoise=False`` bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro import telemetry
from repro.behavior.interval import UncertaintyModel
from repro.core import hull as hull_module
from repro.core.cubis import solve_cubis
from repro.core.dp import maximize_separable_on_grid
from repro.core.hull import HullScreen, LagrangianHull, _upper_hull, screen_grid
from repro.core.milp import CubisMilpSkeleton, step_grids
from repro.experiments.quality import default_uncertainty
from repro.game.constraints import CoverageConstraints
from repro.game.generator import random_interval_game
from repro.resilience.certificate import theorem_slack
from repro.resilience.policy import ResiliencePolicy, Rung
from repro.solvers.fleet import solve_fleet
from repro.solvers.milp_backend import solve_milp
from repro.solvers.piecewise import SegmentGrid
from repro.verify.theorems import HIGHS_MIP_REL_GAP

TOL = 1e-7


def random_step_data(t, k, seed, *, equality=False):
    rng = np.random.default_rng(seed)
    grid = SegmentGrid(k)
    bp = grid.breakpoints
    reward = rng.uniform(1.0, 10.0, size=t)
    penalty = rng.uniform(-10.0, -1.0, size=t)
    ud = np.outer(reward, bp) + np.outer(penalty, 1 - bp)
    slope = rng.uniform(0.5, 3.0, size=(t, 1))
    lo = np.exp(-slope * bp + rng.uniform(0.0, 1.0, size=(t, 1)))
    hi = lo * rng.uniform(1.0, 3.0, size=(t, 1))
    resources = 0.5 * t if equality else rng.uniform(0.5, t / 2)
    return ud, lo, hi, resources, grid


def build(ud, lo, hi, resources, grid, *, equality=False):
    skeleton = CubisMilpSkeleton(
        ud, lo, hi, resources, grid, equality_resources=equality
    )
    hull = LagrangianHull(
        ud, lo, hi, resources, grid, equality_resources=equality
    )
    return skeleton, hull


def milp_optimum(skeleton, c):
    model = skeleton.patch(c)
    result = solve_milp(model.problem)
    assert result.optimal
    gap = TOL + HIGHS_MIP_REL_GAP * max(1.0, abs(result.objective))
    return model.g_bar_from_objective(result.objective), gap


class TestSandwich:
    @given(
        t=st.integers(1, 8),
        k=st.integers(1, 6),
        seed=st.integers(0, 10_000),
        equality=st.booleans(),
        c_share=st.floats(0.0, 1.0),
        lam=st.floats(-5.0, 5.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_witness_and_bound_bracket_the_milp(
        self, t, k, seed, equality, c_share, lam
    ):
        ud, lo, hi, resources, grid = random_step_data(
            t, k, seed, equality=equality
        )
        skeleton, hull = build(ud, lo, hi, resources, grid, equality=equality)
        c = ud.min() + c_share * (ud.max() - ud.min())
        g_star, gap = milp_optimum(skeleton, c)
        screen = hull.screen(c)

        x = screen.witness
        assert np.all(x >= 0.0) and np.all(x <= 1.0)
        assert x.sum() <= resources + 1e-9
        # Under sum x = R a witness short of the budget is no strategy of
        # the step problem (the pipeline's validation rejects it), so the
        # lower end only binds when it spends R.
        if not equality or x.sum() == pytest.approx(resources, abs=1e-9):
            assert skeleton.certificate(x).g_bar(c) <= g_star + gap
        assert g_star <= screen.bound + TOL
        # Any admissible multiplier bounds the optimum, and the screen's
        # multiplier is the minimising one.
        lam = lam if equality else abs(lam)
        assert screen.lam >= 0.0 or equality
        other = hull.bound_at(c, lam)
        assert g_star <= other + TOL
        assert screen.bound <= other + 1e-9 * max(1.0, abs(other))

    def test_two_sign_changes_on_one_target(self):
        # U^d rises then falls, so at c = 0 the margin -- and with it
        # fbar1 - fbar2 = (L - U)(U^d - c) -- changes sign twice.
        grid = SegmentGrid(2)
        ud = np.array([[-1.0, 2.0, -1.0], [-0.5, 0.2, 0.4]])
        lo = np.array([[0.6, 0.5, 0.4], [0.7, 0.5, 0.3]])
        hi = np.array([[1.0, 0.9, 0.8], [1.0, 0.8, 0.6]])
        resources = 1.0
        skeleton, hull = build(ud, lo, hi, resources, grid)
        v, _ = hull.vertices(0.0)
        assert v.shape == (2, 5)  # 3 breakpoints + 2 crossings
        assert np.all(np.diff(v, axis=1) > 0.0)

        screen = hull.screen(0.0)
        g_star, gap = milp_optimum(skeleton, 0.0)
        assert skeleton.certificate(screen.witness).g_bar(0.0) <= g_star + gap
        assert g_star <= screen.bound + TOL
        # Brute force over a fine grid of the budget simplex.
        fine = np.linspace(0.0, 1.0, 401)
        x0, x1 = np.meshgrid(fine, fine, indexing="ij")
        fits = x0 + x1 <= resources
        best = -np.inf
        for a, b in zip(x0[fits], x1[fits]):
            best = max(best, skeleton.certificate(np.array([a, b])).g_bar(0.0))
        assert best <= screen.bound + TOL
        assert best == pytest.approx(g_star, abs=1e-3)


def reference_upper_hull(v, phi):
    """``_upper_hull`` one pair at a time: vertex ``j`` is on the hull iff
    its steepest slope out to a later vertex is no steeper than its
    shallowest slope in from an earlier one (``0/0`` reads ``-inf``)."""
    v = np.broadcast_to(v, phi.shape)
    t, size = phi.shape
    mask = np.zeros((t, size), dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for row in range(t):
            for j in range(size):
                out_max, in_min = -np.inf, np.inf
                for k in range(size):
                    first, second = min(j, k), max(j, k)
                    if first == second:
                        continue
                    slope = (phi[row, second] - phi[row, first]) / (
                        v[row, second] - v[row, first]
                    )
                    if np.isnan(slope):
                        slope = -np.inf
                    if k > j:
                        out_max = max(out_max, slope)
                    else:
                        in_min = min(in_min, slope)
                mask[row, j] = out_max <= in_min
    return mask


class TestUpperHull:
    @given(
        t=st.integers(1, 4),
        size=st.integers(1, 8),
        shared=st.booleans(),
        data=st.data(),
    )
    def test_matches_the_pairwise_reference(self, t, size, shared, data):
        # Small integer positions and values: repeated positions and
        # equal slopes (collinear runs) come up often.
        v = np.sort(data.draw(arrays(
            np.float64, (size,) if shared else (t, size),
            elements=st.integers(0, 4).map(float),
        )), axis=-1)
        phi = data.draw(arrays(
            np.float64, (t, size), elements=st.integers(-3, 3).map(float)
        ))
        np.testing.assert_array_equal(
            _upper_hull(v, phi), reference_upper_hull(v, phi)
        )

    def test_collinear_and_repeated_vertices(self):
        v = np.array([0.0, 1.0, 1.0, 2.0, 3.0])
        phi = np.array([[0.0, 1.0, 1.0, 2.0, 2.0]])
        # Collinear 0-1-3 stay on; the repeated position's later copy
        # drops out; the flat last edge keeps its end.
        assert _upper_hull(v, phi).tolist() == [[True, True, False, True, True]]
        np.testing.assert_array_equal(
            _upper_hull(v, phi), reference_upper_hull(v, phi)
        )


class TestGridSandwich:
    @given(
        t=st.integers(1, 8),
        k=st.integers(1, 8),
        seed=st.integers(0, 10_000),
        table=st.sampled_from(["random", "ties", "negative"]),
        budget_kind=st.sampled_from(["zero", "in range", "full"]),
    )
    def test_witness_dp_and_bound_bracket_each_other(
        self, t, k, seed, table, budget_kind
    ):
        rng = np.random.default_rng(seed)
        if table == "random":
            phi = rng.normal(size=(t, k + 1))
        elif table == "ties":
            phi = rng.integers(-2, 3, size=(t, k + 1)).astype(np.float64)
        else:
            phi = -np.abs(rng.normal(size=(t, k + 1)))
        budget = {
            "zero": 0,
            "in range": int(rng.integers(0, t * k + 1)),
            "full": t * k + int(rng.integers(0, 3)),
        }[budget_kind]
        screen = screen_grid(phi, budget)
        optimum = maximize_separable_on_grid(phi, budget).value

        assert screen.units.dtype == np.int64
        assert np.all(screen.units >= 0) and np.all(screen.units <= k)
        assert screen.units.sum() <= budget
        assert screen.witness_sum == pytest.approx(
            phi[np.arange(t), screen.units].sum()
        )
        # Exact in float: the witness sum follows the kernel's additions.
        assert screen.witness_sum <= optimum
        assert optimum <= screen.bound + screen.margin
        assert screen.margin >= 0.0

    def test_long_critical_edge_leaves_the_step_undecided(self):
        # The hull edge 0 -> 3 (slope 1) outruns the two-unit budget: the
        # witness stops at 0 units (-1) while min B reads 2 - 1 = 1, and
        # the true grid optimum, -1, is only found by the kernel.
        phi = np.array([[-1.0, -2.0, -2.0, 2.0]])
        screen = screen_grid(phi, 2)
        assert screen.units.tolist() == [0]
        assert screen.witness_sum == -1.0
        assert screen.bound == pytest.approx(1.0)
        assert maximize_separable_on_grid(phi, 2).value == -1.0


class DropModel(UncertaintyModel):
    """Attractiveness that collapses past a coverage threshold, so
    ``phi`` jumps there and its hull spans several grid units."""

    def __init__(self, at, floor):
        self.at = np.asarray(at, dtype=np.float64)
        self.floor = float(floor)

    @property
    def num_targets(self) -> int:
        return len(self.at)

    def upper(self, x):
        return np.where(np.asarray(x) < self.at, 1.0, self.floor)

    def lower(self, x):
        return 0.5 * self.upper(x)

    def upper_on_grid(self, points):
        return np.where(
            np.asarray(points)[None, :] < self.at[:, None], 1.0, self.floor
        )

    def lower_on_grid(self, points):
        return 0.5 * self.upper_on_grid(points)


def dp_solve(game, model, **options):
    """A DP solve plus its verdict counts and kernel runs."""
    tele = telemetry.Telemetry()
    with telemetry.use(tele):
        result = solve_cubis(game, model, oracle="dp", **options)
    fallthrough = tele.metrics.counter(
        "repro_cubis_hull_screens_total", verdict="fallthrough"
    ).value
    kernel_runs = tele.metrics.histogram("repro_oracle_seconds", kind="dp").count
    return result, fallthrough, kernel_runs


def assert_same_solve(got, want):
    np.testing.assert_array_equal(got.strategy, want.strategy)
    assert got.lower_bound == want.lower_bound
    assert got.upper_bound == want.upper_bound
    assert got.trace == want.trace
    assert got.iterations == want.iterations


class TestDpScreen:
    @pytest.mark.parametrize("k", [5, 40])
    @pytest.mark.parametrize("t", [8, 25, 100])
    def test_screened_solve_equals_unscreened(self, t, k):
        game = random_interval_game(t, seed=t + k)
        model = default_uncertainty(game.payoffs)
        options = {"num_segments": k, "epsilon": 1e-3}
        result, fallthrough, kernel_runs = dp_solve(game, model, **options)
        reference = solve_cubis(game, model, oracle="dp", memoise=False,
                                **options)
        assert_same_solve(result, reference)
        assert result.hull_screens == result.iterations
        assert reference.hull_screens == 0
        # Every step decided in numpy; the one kernel run is the final
        # re-solve at the last feasible candidate.
        assert fallthrough == 0
        assert kernel_runs == 1

    def test_long_hull_edge_falls_through_to_the_kernel(self):
        game = random_interval_game(2, seed=708)
        model = DropModel([0.83, 0.84], floor=0.17)
        options = {"num_segments": 6, "epsilon": 1e-3}
        result, fallthrough, kernel_runs = dp_solve(game, model, **options)
        reference = solve_cubis(game, model, oracle="dp", memoise=False,
                                **options)
        assert_same_solve(result, reference)
        assert fallthrough > 0
        # The last feasible step fell through, so no re-solve was needed.
        assert kernel_runs == fallthrough
        ud, lo, hi = step_grids(game, model, SegmentGrid(6))
        budget = 6  # R = 1 at K = 6
        undecided = 0
        for c, _ in reference.trace:
            screen = screen_grid(np.minimum(lo * (ud - c), hi * (ud - c)), budget)
            if -TOL - screen.margin <= screen.bound and screen.witness_sum < -TOL:
                # Integer budget, yet the greedy prefix stops short: the
                # critical hull edge spans more than one unit.
                assert screen.units.sum() < budget
                undecided += 1
        assert undecided == fallthrough

    def test_feasible_top_returns_early_with_a_re_solve(self):
        # One fully coverable target: c = max reward is feasible, so the
        # search stops after one screened step and re-solves there.
        game = random_interval_game(1, num_resources=1.0, seed=3)
        model = default_uncertainty(game.payoffs)
        options = {"num_segments": 5, "epsilon": 1e-3}
        result, fallthrough, kernel_runs = dp_solve(game, model, **options)
        reference = solve_cubis(game, model, oracle="dp", memoise=False,
                                **options)
        assert_same_solve(result, reference)
        assert result.trace == ((game.utility_range()[1], True),)
        assert (fallthrough, kernel_runs) == (0, 1)

    def test_fleet_equals_unscreened_solves(self):
        games = [random_interval_game(8, seed=40 + i) for i in range(3)]
        models = [default_uncertainty(g.payoffs) for g in games]
        options = {"num_segments": 5, "epsilon": 1e-3}
        fleet = solve_fleet(games, models, oracle="dp", **options)
        for game, model, got in zip(games, models, fleet):
            want = solve_cubis(game, model, oracle="dp", memoise=False,
                               **options)
            assert_same_solve(got, want)

    def test_over_budget_witness_falls_through_to_the_kernel(
        self, monkeypatch
    ):
        # A witness that spends every unit breaks the budget: its sum may
        # read feasible, but only the kernel can decide such a step.  The
        # bound says nothing, so no step is decided by it instead.
        fill_hull = hull_module.fill_hull

        def overspend(v, phi, budget, **kwargs):
            fill = fill_hull(v, phi, budget, **kwargs)
            return HullScreen(
                bound=np.inf, lam=fill.lam,
                witness=np.full(phi.shape[0], float(phi.shape[1] - 1)),
            )

        monkeypatch.setattr(hull_module, "fill_hull", overspend)
        game = random_interval_game(8, seed=11)
        model = default_uncertainty(game.payoffs)
        options = {"num_segments": 5, "epsilon": 1e-3}
        tele = telemetry.Telemetry()
        with telemetry.use(tele):
            result = solve_cubis(game, model, oracle="dp", **options)
        reference = solve_cubis(game, model, oracle="dp", memoise=False,
                                **options)
        assert_same_solve(result, reference)
        screens = [s for s in tele.spans if s.name == "cubis.hull_screen"]
        over_budget = [
            s for s in screens
            if s.attributes["verdict"] == "fallthrough"
            and s.attributes["witness_g"] >= -TOL
        ]
        assert over_budget, "the overspent witness must read feasible somewhere"
        assert all(s.attributes["verdict"] == "fallthrough" for s in screens)
        kernel_runs = tele.metrics.histogram("repro_oracle_seconds", kind="dp").count
        assert kernel_runs == result.iterations

    def test_ladder_dp_rung_is_not_screened(self):
        game = random_interval_game(8, seed=11)
        model = default_uncertainty(game.payoffs)
        options = {"num_segments": 5, "epsilon": 1e-3}
        result = solve_cubis(game, model, resilience=ResiliencePolicy(
            rungs=(Rung("dp"),)
        ), **options)
        assert result.hull_screens == 0
        reference = solve_cubis(game, model, oracle="dp", memoise=False,
                                **options)
        assert_same_solve(result, reference)


class TestBisectionAgreement:
    @pytest.mark.parametrize("t,seed", [(6, 1), (12, 2), (25, 3)])
    def test_hull_verdicts_match_the_fresh_build_milp(self, t, seed):
        game = random_interval_game(t, seed=seed)
        model = default_uncertainty(game.payoffs)
        reference = solve_cubis(game, model, num_segments=8, epsilon=1e-3,
                                memoise=False)
        grid = SegmentGrid(8)
        ud, lo, hi = step_grids(game, model, grid)
        skeleton, hull = build(ud, lo, hi, game.num_resources, grid)
        decided = 0
        for c, feasible in reference.trace:
            screen = hull.screen(c)
            if screen.bound < -TOL:
                verdict = False
            elif skeleton.certificate(screen.witness).g_bar(c) >= -TOL:
                verdict = True
            else:
                continue
            decided += 1
            if verdict != feasible:
                g_star, gap = milp_optimum(skeleton, c)
                assert abs(g_star) <= TOL + gap, (c, g_star, screen)
        assert decided >= len(reference.trace) // 2


class TestPipeline:
    def test_default_solve_screens_and_matches_reference(self):
        game = random_interval_game(10, seed=7)
        model = default_uncertainty(game.payoffs)
        tele = telemetry.Telemetry()
        with telemetry.use(tele):
            result = solve_cubis(game, model, num_segments=8, epsilon=1e-3)
        reference = solve_cubis(game, model, num_segments=8, epsilon=1e-3,
                                memoise=False)
        assert result.hull_screens > 0
        slack = theorem_slack(game, 1e-3, 8)
        assert abs(result.worst_case_value - reference.worst_case_value) <= slack

        screens = [s for s in tele.spans if s.name == "cubis.hull_screen"]
        assert len(screens) == result.hull_screens
        verdicts = {
            verdict: tele.metrics.counter(
                "repro_cubis_hull_screens_total", verdict=verdict
            ).value
            for verdict in ("infeasible", "feasible", "fallthrough")
        }
        assert sum(verdicts.values()) == result.hull_screens
        for verdict, count in verdicts.items():
            assert count == sum(
                s.attributes["verdict"] == verdict for s in screens
            )
        assert verdicts["fallthrough"] <= result.lp_solves

    def test_side_constraints_skip_the_screen(self):
        game = random_interval_game(6, seed=2)
        model = default_uncertainty(game.payoffs)
        cap = CoverageConstraints(np.ones((1, 6)), np.array([6.0]))
        tele = telemetry.Telemetry()
        with telemetry.use(tele):
            result = solve_cubis(game, model, num_segments=6, epsilon=1e-2,
                                 coverage_constraints=cap)
        assert result.hull_screens == 0
        assert result.lp_solves > 0
        assert not [s for s in tele.spans if s.name == "cubis.hull_screen"]

    def test_equality_witness_short_of_budget_falls_through(self):
        game = random_interval_game(8, seed=5)
        model = default_uncertainty(game.payoffs)
        result = solve_cubis(game, model, num_segments=8, epsilon=1e-2,
                             equality_resources=True)
        assert result.hull_screens == result.iterations
        assert result.lp_solves > 0
        assert result.strategy.sum() == pytest.approx(game.num_resources)
