"""Unit tests for the CUBIS MILP builder (repro.core.milp).

Validates the MILP against a direct evaluation of the piecewise-linearised
G: the solver's optimal objective must equal max over a fine grid of
strategies of G_bar(x, beta*(x, c)) on small games, and the solution must
satisfy all the structural invariants (fill order, v semantics, budget).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import telemetry
from repro.core.cubis import solve_cubis
from repro.core.dual import beta_star
from repro.core.milp import (
    CubisMilpSkeleton,
    StrategyCertificate,
    build_cubis_milp,
    step_grids,
)
from repro.experiments.quality import default_uncertainty
from repro.game.constraints import CoverageConstraints
from repro.game.generator import random_interval_game
from repro.solvers.milp_backend import solve_milp
from repro.solvers.piecewise import SegmentGrid


def build_small(c, k=5, equality=False):
    """A 2-target instance with hand-set grids."""
    grid = SegmentGrid(k)
    bp = grid.breakpoints
    rd = np.array([4.0, 6.0])
    pd = np.array([-5.0, -7.0])
    ud = np.outer(rd, bp) + np.outer(pd, 1 - bp)
    lo = np.exp(np.stack([-2.0 * bp + 0.5, -2.0 * bp + 1.0]))
    hi = np.exp(np.stack([-1.0 * bp + 1.5, -1.0 * bp + 2.0]))
    model = build_cubis_milp(ud, lo, hi, 1.0, c, grid, equality_resources=equality)
    return model, (rd, pd, lo, hi, grid)


def g_bar_direct(x, c, rd, pd, lo_grid, hi_grid, grid):
    """Direct evaluation of the piecewise-linearised G at strategy x."""
    ud_bp = np.outer(rd, grid.breakpoints) + np.outer(pd, 1 - grid.breakpoints)
    f1 = lo_grid * (ud_bp - c)
    f2 = hi_grid * (ud_bp - c)
    f1_x = grid.interpolate(f1, x)
    f2_x = grid.interpolate(f2, x)
    # f1 - f2 = (L - U)(U^d - c) = (U - L)(c - U^d), so the product variable
    # is v = max(0, f1 - f2) (Proposition 3's beta folded in).
    v = np.maximum(0.0, f1_x - f2_x)
    return float(f1_x.sum() - v.sum())


class TestBuildCubisMilp:
    def test_variable_counts(self):
        model, _ = build_small(c=0.0, k=5)
        t, k = 2, 5
        assert model.problem.num_variables == t * k + t + t + t * (k - 1)
        assert model.problem.num_integer == t + t * (k - 1)

    def test_single_segment_has_no_h(self):
        model, _ = build_small(c=0.0, k=1)
        assert model.problem.num_integer == 2  # only the q binaries

    def test_shape_validation(self):
        grid = SegmentGrid(4)
        with pytest.raises(ValueError, match="shape"):
            build_cubis_milp(np.zeros((2, 3)), np.ones((2, 5)), np.ones((2, 5)), 1.0, 0.0, grid)
        with pytest.raises(ValueError, match="match"):
            build_cubis_milp(np.zeros((2, 5)), np.ones((3, 5)), np.ones((3, 5)), 1.0, 0.0, grid)

    def test_solution_respects_budget(self):
        model, _ = build_small(c=-1.0)
        res = solve_milp(model.problem)
        assert res.optimal
        x = model.strategy_from_solution(res.x)
        assert x.sum() <= 1.0 + 1e-7

    def test_equality_budget(self):
        model, _ = build_small(c=-1.0, equality=True)
        res = solve_milp(model.problem)
        assert res.optimal
        x = model.strategy_from_solution(res.x)
        assert x.sum() == pytest.approx(1.0, abs=1e-7)

    def test_fill_order_respected(self):
        model, (rd, pd, lo, hi, grid) = build_small(c=-1.0)
        res = solve_milp(model.problem)
        xik = res.x[model.layout["x"]].reshape(2, grid.num_segments)
        assert grid.is_fill_ordered(xik, atol=1e-6)

    def test_v_equals_positive_part(self):
        """At the optimum v_i = max(0, (f2 - f1)(x_i)) (Proposition 3)."""
        model, (rd, pd, lo, hi, grid) = build_small(c=0.5)
        res = solve_milp(model.problem)
        x = model.strategy_from_solution(res.x)
        v = res.x[model.layout["v"]]
        ud_bp = np.outer(rd, grid.breakpoints) + np.outer(pd, 1 - grid.breakpoints)
        f1 = lo * (ud_bp - 0.5)
        f2 = hi * (ud_bp - 0.5)
        expected = np.maximum(0.0, grid.interpolate(f1, x) - grid.interpolate(f2, x))
        np.testing.assert_allclose(v, expected, atol=1e-5)

    def test_objective_matches_direct_evaluation(self):
        model, (rd, pd, lo, hi, grid) = build_small(c=-0.5)
        res = solve_milp(model.problem)
        x = model.strategy_from_solution(res.x)
        g_bar = model.g_bar_from_objective(res.objective)
        direct = g_bar_direct(x, -0.5, rd, pd, lo, hi, grid)
        assert g_bar == pytest.approx(direct, abs=1e-6)

    @pytest.mark.parametrize("c", [-3.0, -1.0, 0.0, 1.0, 2.5])
    def test_milp_optimum_beats_grid_search(self, c):
        """The MILP optimum must dominate G_bar at every grid strategy."""
        model, (rd, pd, lo, hi, grid) = build_small(c=c, k=5)
        res = solve_milp(model.problem)
        best = model.g_bar_from_objective(res.objective)
        for x1 in np.linspace(0, 1, 21):
            x = np.array([x1, min(1.0, 1.0 - x1)])
            if x.sum() > 1.0 + 1e-9:
                continue
            assert best >= g_bar_direct(x, c, rd, pd, lo, hi, grid) - 1e-6

    def test_milp_optimum_attained_by_its_strategy(self):
        """g_bar(x*) from the solver equals the direct evaluation at x* —
        i.e. the auxiliary variables encode exactly the PWL functions."""
        for c in (-2.0, 0.0, 1.5):
            model, (rd, pd, lo, hi, grid) = build_small(c=c, k=8)
            res = solve_milp(model.problem)
            x = model.strategy_from_solution(res.x)
            assert model.g_bar_from_objective(res.objective) == pytest.approx(
                g_bar_direct(x, c, rd, pd, lo, hi, grid), abs=1e-6
            )

    def test_backends_agree(self):
        model, _ = build_small(c=0.0, k=3)
        highs = solve_milp(model.problem, backend="highs")
        bnb = solve_milp(model.problem, backend="bnb")
        assert highs.objective == pytest.approx(bnb.objective, abs=1e-6)

    def test_metadata_fields(self):
        model, _ = build_small(c=1.25)
        assert model.c == 1.25
        assert model.grid.num_segments == 5
        assert np.isfinite(model.f1_constant)


def small_data(k=5):
    """The raw arrays behind :func:`build_small`."""
    grid = SegmentGrid(k)
    bp = grid.breakpoints
    rd = np.array([4.0, 6.0])
    pd = np.array([-5.0, -7.0])
    ud = np.outer(rd, bp) + np.outer(pd, 1 - bp)
    lo = np.exp(np.stack([-2.0 * bp + 0.5, -2.0 * bp + 1.0]))
    hi = np.exp(np.stack([-1.0 * bp + 1.5, -1.0 * bp + 2.0]))
    return ud, lo, hi, grid, rd, pd


def assert_models_identical(patched, fresh):
    """Bit-identical comparison of two CubisMilp instances."""
    a, b = patched.problem, fresh.problem
    np.testing.assert_array_equal(a.c, b.c)
    np.testing.assert_array_equal(a.b_ub, b.b_ub)
    np.testing.assert_array_equal(a.lb, b.lb)
    np.testing.assert_array_equal(a.ub, b.ub)
    np.testing.assert_array_equal(a.integrality, b.integrality)
    for mat_a, mat_b in [(a.A_ub, b.A_ub), (a.A_eq, b.A_eq)]:
        if mat_a is None or mat_b is None:
            assert mat_a is mat_b is None
            continue
        if hasattr(mat_a, "tocsr"):
            ca, cb = mat_a.tocsr(), mat_b.tocsr()
            np.testing.assert_array_equal(ca.indptr, cb.indptr)
            np.testing.assert_array_equal(ca.indices, cb.indices)
            np.testing.assert_array_equal(ca.data, cb.data)
        else:
            np.testing.assert_array_equal(np.asarray(mat_a), np.asarray(mat_b))
    if b.b_eq is not None or a.b_eq is not None:
        np.testing.assert_array_equal(a.b_eq, b.b_eq)
    assert patched.f1_constant == fresh.f1_constant
    assert patched.c == fresh.c


class TestCubisMilpSkeleton:
    """patch(c) must reproduce a from-scratch build bit for bit."""

    @pytest.mark.parametrize("c", [-3.0, -0.5, 0.0, 1.0, 2.5])
    def test_patch_matches_fresh_build(self, c):
        ud, lo, hi, grid, *_ = small_data()
        skeleton = CubisMilpSkeleton(ud, lo, hi, 1.0, grid)
        fresh = build_cubis_milp(ud, lo, hi, 1.0, c, grid)
        assert_models_identical(skeleton.patch(c), fresh)

    def test_patch_is_stateless(self):
        """Re-patching an earlier candidate leaves no residue from the
        candidates patched in between."""
        ud, lo, hi, grid, *_ = small_data()
        skeleton = CubisMilpSkeleton(ud, lo, hi, 1.0, grid)
        skeleton.patch(-2.0)
        skeleton.patch(3.0)
        again = skeleton.patch(0.75)
        assert_models_identical(again, build_cubis_milp(ud, lo, hi, 1.0, 0.75, grid))

    def test_patch_with_equality_budget(self):
        ud, lo, hi, grid, *_ = small_data()
        skeleton = CubisMilpSkeleton(ud, lo, hi, 1.0, grid, equality_resources=True)
        fresh = build_cubis_milp(ud, lo, hi, 1.0, -1.0, grid, equality_resources=True)
        assert_models_identical(skeleton.patch(-1.0), fresh)

    def test_patch_with_coverage_constraints(self):
        ud, lo, hi, grid, *_ = small_data()
        extra = CoverageConstraints(np.array([[1.0, 0.0]]), np.array([0.4]))
        skeleton = CubisMilpSkeleton(ud, lo, hi, 1.0, grid, coverage_constraints=extra)
        fresh = build_cubis_milp(
            ud, lo, hi, 1.0, 0.5, grid, coverage_constraints=extra
        )
        assert_models_identical(skeleton.patch(0.5), fresh)

    @pytest.mark.parametrize("c", [-2.0, 0.0, 1.5])
    def test_patched_solution_matches_fresh(self, c):
        ud, lo, hi, grid, *_ = small_data()
        skeleton = CubisMilpSkeleton(ud, lo, hi, 1.0, grid)
        res_patched = solve_milp(skeleton.patch(c).problem)
        res_fresh = solve_milp(build_cubis_milp(ud, lo, hi, 1.0, c, grid).problem)
        assert res_patched.optimal and res_fresh.optimal
        assert res_patched.objective == res_fresh.objective


def apply_patch(skeleton, model, patch):
    """Apply a SkeletonPatch in place, exactly as MilpSession does."""
    problem = model.problem
    slots = skeleton.entry_data_slots
    problem.A_ub.data[slots[patch.vals_index]] = patch.vals
    problem.b_ub[patch.rhs_index] = patch.rhs
    problem.c[patch.cost_index] = patch.cost
    problem.ub[patch.ub_index] = patch.ub
    return type(model)(
        problem=problem,
        layout=model.layout,
        grid=model.grid,
        f1_constant=patch.f1_constant,
        c=patch.c_new,
    )


class TestSkeletonDiff:
    """diff(c_old, c_new) applied in place must equal a fresh build bit
    for bit — the invariant the incremental MilpSession rests on."""

    @pytest.mark.parametrize("c_old,c_new", [
        (-3.0, 2.5), (0.0, 1e-9), (1.0, -1.0), (2.5, 2.5 + 1e-12),
    ])
    def test_in_place_patch_matches_fresh_build(self, c_old, c_new):
        ud, lo, hi, grid, *_ = small_data()
        skeleton = CubisMilpSkeleton(ud, lo, hi, 1.0, grid)
        model = skeleton.patch(c_old)
        patched = apply_patch(skeleton, model, skeleton.diff(c_old, c_new))
        assert_models_identical(patched, build_cubis_milp(ud, lo, hi, 1.0, c_new, grid))

    def test_identity_diff_is_empty(self):
        ud, lo, hi, grid, *_ = small_data()
        skeleton = CubisMilpSkeleton(ud, lo, hi, 1.0, grid)
        patch = skeleton.diff(0.75, 0.75)
        assert patch.num_updates == 0
        for arr in (patch.vals_index, patch.rhs_index, patch.cost_index, patch.ub_index):
            assert len(arr) == 0

    def test_diff_is_sparse(self):
        """The patch set is confined to the c-dependent entries — a
        strict subset of the model's coefficients."""
        ud, lo, hi, grid, *_ = small_data(k=8)
        skeleton = CubisMilpSkeleton(ud, lo, hi, 1.0, grid)
        patch = skeleton.diff(-5.0, 5.0)
        problem = skeleton.patch(0.0).problem
        total = (
            len(problem.A_ub.data) + len(problem.b_ub)
            + len(problem.c) + len(problem.ub)
        )
        assert 0 < patch.num_updates < total

    def test_chained_diffs_leave_no_residue(self):
        """A walk c0 -> c1 -> ... -> cn of in-place patches lands on the
        same bits as jumping straight to cn."""
        ud, lo, hi, grid, *_ = small_data()
        skeleton = CubisMilpSkeleton(ud, lo, hi, 1.0, grid)
        walk = [-2.0, 3.0, 0.75, -0.1, 0.75, 2.25]
        model = skeleton.patch(walk[0])
        for c_old, c_new in zip(walk, walk[1:]):
            model = apply_patch(skeleton, model, skeleton.diff(c_old, c_new))
        assert_models_identical(
            model, build_cubis_milp(ud, lo, hi, 1.0, walk[-1], grid)
        )

    @given(
        st.floats(-6.0, 6.0, allow_nan=False),
        st.floats(-6.0, 6.0, allow_nan=False),
        st.integers(1, 7),
    )
    @settings(max_examples=40, deadline=None)
    def test_patch_property_bit_identity(self, c_old, c_new, k):
        ud, lo, hi, grid, *_ = small_data(k)
        skeleton = CubisMilpSkeleton(ud, lo, hi, 1.0, grid)
        model = skeleton.patch(c_old)
        patched = apply_patch(skeleton, model, skeleton.diff(c_old, c_new))
        assert_models_identical(
            patched, build_cubis_milp(ud, lo, hi, 1.0, c_new, grid)
        )

    def test_entry_data_slots_is_inverse_permutation(self):
        ud, lo, hi, grid, *_ = small_data()
        skeleton = CubisMilpSkeleton(ud, lo, hi, 1.0, grid)
        slots = skeleton.entry_data_slots
        order = np.sort(slots)
        np.testing.assert_array_equal(order, np.arange(len(slots)))


class TestRebind:
    """rebind() views share one assembled structure across games; every
    tabulation and cross-game patch must still equal a fresh build bit
    for bit — the invariant the fleet's shape cache rests on."""

    def _sibling_data(self, k=5):
        ud, lo, hi, grid, *_ = small_data(k)
        rng = np.random.default_rng(7)
        ud2 = ud * rng.uniform(0.5, 1.5, size=ud.shape)
        lo2 = lo * rng.uniform(0.9, 1.1, size=lo.shape)
        hi2 = hi * rng.uniform(1.0, 1.2, size=hi.shape)
        return ud, lo, hi, ud2, lo2, hi2, grid

    def test_rebound_patch_matches_fresh_build(self):
        ud, lo, hi, ud2, lo2, hi2, grid = self._sibling_data()
        proto = CubisMilpSkeleton(ud, lo, hi, 1.0, grid)
        view = proto.rebind(ud2, lo2, hi2)
        for c in (-2.0, 0.0, 1.25):
            assert_models_identical(
                view.patch(c), build_cubis_milp(ud2, lo2, hi2, 1.0, c, grid)
            )

    def test_rebind_shares_structure_both_ways(self):
        ud, lo, hi, ud2, lo2, hi2, grid = self._sibling_data()
        proto = CubisMilpSkeleton(ud, lo, hi, 1.0, grid)
        view = proto.rebind(ud2, lo2, hi2)
        assert view.shares_structure(proto)
        assert proto.shares_structure(view)
        assert view.shares_structure(view)

    def test_independent_builds_do_not_share_structure(self):
        ud, lo, hi, grid, *_ = small_data()
        a = CubisMilpSkeleton(ud, lo, hi, 1.0, grid)
        b = CubisMilpSkeleton(ud, lo, hi, 1.0, grid)
        assert not a.shares_structure(b)

    def test_rebind_rejects_shape_mismatch(self):
        ud, lo, hi, grid, *_ = small_data()
        proto = CubisMilpSkeleton(ud, lo, hi, 1.0, grid)
        with pytest.raises(ValueError):
            proto.rebind(ud[:, :-1], lo[:, :-1], hi[:, :-1])

    def test_diff_from_requires_shared_structure(self):
        ud, lo, hi, grid, *_ = small_data()
        a = CubisMilpSkeleton(ud, lo, hi, 1.0, grid)
        b = CubisMilpSkeleton(ud, lo, hi, 1.0, grid)
        with pytest.raises(ValueError, match="structure-sharing"):
            b.diff_from(a, 0.0, 1.0)

    def test_cross_game_diff_matches_fresh_build(self):
        # Patch a model built from game A's tabulation at c_old into
        # game B's tabulation at c_new — the retarget fast path.
        ud, lo, hi, ud2, lo2, hi2, grid = self._sibling_data()
        proto = CubisMilpSkeleton(ud, lo, hi, 1.0, grid)
        view = proto.rebind(ud2, lo2, hi2)
        model = proto.patch(-1.0)
        patched = apply_patch(proto, model, view.diff_from(proto, -1.0, 0.5))
        assert_models_identical(
            patched, build_cubis_milp(ud2, lo2, hi2, 1.0, 0.5, grid)
        )

    @given(
        st.floats(-4.0, 4.0, allow_nan=False),
        st.floats(-4.0, 4.0, allow_nan=False),
        st.integers(1, 6),
        st.integers(0, 10**6),
    )
    @settings(max_examples=40, deadline=None)
    def test_cross_game_patch_property_bit_identity(self, c_old, c_new, k, seed):
        ud, lo, hi, grid, *_ = small_data(k)
        rng = np.random.default_rng(seed)
        ud2 = ud * rng.uniform(0.5, 1.5, size=ud.shape)
        lo2 = lo * rng.uniform(0.8, 1.2, size=lo.shape)
        hi2 = hi * rng.uniform(1.0, 1.3, size=hi.shape)
        proto = CubisMilpSkeleton(ud, lo, hi, 1.0, grid)
        view = proto.rebind(ud2, lo2, hi2)
        model = proto.patch(c_old)
        patched = apply_patch(proto, model, view.diff_from(proto, c_old, c_new))
        assert_models_identical(
            patched, build_cubis_milp(ud2, lo2, hi2, 1.0, c_new, grid)
        )

    def test_sibling_views_share_entry_data_slots(self):
        ud, lo, hi, ud2, lo2, hi2, grid = self._sibling_data()
        proto = CubisMilpSkeleton(ud, lo, hi, 1.0, grid)
        view = proto.rebind(ud2, lo2, hi2)
        assert view.entry_data_slots is proto.entry_data_slots


class TestStrategyCertificate:
    def certificate_for(self, x, k=5):
        ud, lo, hi, grid, rd, pd = small_data(k)
        skeleton = CubisMilpSkeleton(ud, lo, hi, 1.0, grid)
        return skeleton.certificate(np.asarray(x)), (rd, pd, lo, hi, grid)

    @pytest.mark.parametrize("c", [-3.0, -1.0, 0.0, 0.8, 2.5])
    def test_g_bar_matches_direct_evaluation(self, c):
        for x in ([0.0, 0.0], [0.3, 0.7], [0.55, 0.45], [1.0, 0.0]):
            cert, (rd, pd, lo, hi, grid) = self.certificate_for(x)
            assert cert.g_bar(c) == pytest.approx(
                g_bar_direct(np.asarray(x), c, rd, pd, lo, hi, grid), abs=1e-9
            )

    def test_g_bar_nonincreasing_in_c(self):
        cert, _ = self.certificate_for([0.4, 0.6])
        values = [cert.g_bar(c) for c in np.linspace(-4.0, 4.0, 41)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_guaranteed_level_is_a_crossing_point(self):
        cert, _ = self.certificate_for([0.4, 0.6])
        lo_c, hi_c = -5.0, 5.0
        level = cert.guaranteed_level(lo_c, hi_c)
        assert np.isfinite(level)
        assert cert.g_bar(level) >= 0.0
        if level < hi_c:
            assert cert.g_bar(level + 1e-9) < 0.0

    def test_guaranteed_level_neg_inf_when_lo_uncertified(self):
        cert, _ = self.certificate_for([0.0, 0.0])
        # Far above any achievable utility nothing certifies.
        assert cert.guaranteed_level(100.0, 200.0) == -float("inf")

    def test_guaranteed_level_clamps_to_hi(self):
        cert, _ = self.certificate_for([0.4, 0.6])
        # Far below the certified range the whole bracket is feasible.
        assert cert.guaranteed_level(-100.0, -50.0) == -50.0


def random_grids(t, k, seed):
    """Positive ``L <= U`` bands and a ``U^d`` grid of a ``t``-target game."""
    grid = SegmentGrid(k)
    rng = np.random.default_rng(seed)
    ud = rng.uniform(-8.0, 8.0, size=(t, k + 1))
    lo = rng.uniform(0.05, 1.0, size=(t, k + 1))
    hi = lo * rng.uniform(1.0, 3.0, size=(t, k + 1))
    return ud, lo, hi, grid


def interpolated_certificate(ud, lo, hi, grid, x):
    """The certificate vectors by four separate interpolate calls."""
    x = np.clip(np.asarray(x, dtype=np.float64), 0.0, 1.0)
    return [grid.interpolate(values, x) for values in (lo * ud, lo, hi * ud, hi)]


def cert_vectors(cert):
    return [cert.p1, cert.q1, cert.p2, cert.q2]


def assert_certificate_equals(cert, vectors):
    for got, want in zip(cert_vectors(cert), vectors):
        assert np.array_equal(got, want)


@st.composite
def grid_strategies(draw):
    """A game shape, its grids' seed and a strategy that mixes interior
    points with breakpoints, ``0`` and ``1``."""
    t = draw(st.integers(1, 6))
    k = draw(st.integers(1, 40))
    breakpoints = SegmentGrid(k).breakpoints
    coordinate = st.one_of(
        st.floats(0.0, 1.0, allow_nan=False),
        st.sampled_from([float(b) for b in breakpoints]),
        st.just(0.0),
        st.just(1.0),
    )
    x = np.array(draw(st.lists(coordinate, min_size=t, max_size=t)))
    return t, k, draw(st.integers(0, 10**6)), x


class TestTabulatedCertificate:
    """certificate() reads tabulated slopes; its vectors must be the bits
    of four SegmentGrid.interpolate calls, on every skeleton view."""

    @given(grid_strategies())
    def test_equals_four_interpolate_calls(self, case):
        t, k, seed, x = case
        ud, lo, hi, grid = random_grids(t, k, seed)
        skeleton = CubisMilpSkeleton(ud, lo, hi, 1.0, grid)
        assert_certificate_equals(
            skeleton.certificate(x), interpolated_certificate(ud, lo, hi, grid, x)
        )

    @pytest.mark.parametrize("k", [5, 10, 40])
    def test_endpoints_and_every_breakpoint(self, k):
        # K=10 is the library default; the sums over the segment axis
        # must match interpolate's bits at any K.
        ud, lo, hi, grid = random_grids(4, k, 11)
        skeleton = CubisMilpSkeleton(ud, lo, hi, 2.0, grid)
        for point in grid.breakpoints:
            x = np.full(4, point)
            assert_certificate_equals(
                skeleton.certificate(x), interpolated_certificate(ud, lo, hi, grid, x)
            )

    @given(grid_strategies())
    def test_rebind_view_matches_fresh_skeleton(self, case):
        t, k, seed, x = case
        ud, lo, hi, grid = random_grids(t, k, seed)
        ud2, lo2, hi2, _ = random_grids(t, k, seed + 1)
        proto = CubisMilpSkeleton(ud, lo, hi, 1.0, grid)
        before = cert_vectors(proto.certificate(x))
        view = proto.rebind(ud2, lo2, hi2)
        fresh = CubisMilpSkeleton(ud2, lo2, hi2, 1.0, grid)
        assert_certificate_equals(view.certificate(x), cert_vectors(fresh.certificate(x)))
        # The view's tables are its own: the prototype is unchanged.
        assert_certificate_equals(proto.certificate(x), before)


def bisection_level(cert, lo, hi, iterations=64):
    """The 64-step bisection guaranteed_level used to run: the reference
    the closed form must reproduce to within float noise."""
    if cert.g_bar(lo) < 0.0:
        return -float("inf")
    if cert.g_bar(hi) >= 0.0:
        return float(hi)
    feasible, infeasible = lo, hi
    for _ in range(iterations):
        mid = 0.5 * (feasible + infeasible)
        if cert.g_bar(mid) >= 0.0:
            feasible = mid
        else:
            infeasible = mid
    return feasible


def level_noise(cert, c, lo, hi):
    """How far apart two sound levels may lie: a few ulps, plus the width
    of the band around the root where float ``g_bar`` has no reliable
    sign (its rounding error over its smallest slope), plus the
    bisection's own resolution."""
    t = len(cert.p1)
    terms = np.maximum(
        np.abs(cert.p1) + abs(c) * cert.q1, np.abs(cert.p2) + abs(c) * cert.q2
    )
    slope = np.minimum(cert.q1, cert.q2).sum()
    eps = np.finfo(float).eps
    return (
        4.0 * np.spacing(abs(c))
        + 4.0 * (t + 1) * eps * terms.sum() / slope
        + (hi - lo) * 2.0**-60
    )


@st.composite
def level_cases(draw):
    """A certificate with ties (``q1 == q2``, some with identical lines)
    and an interval that may end exactly at one of its kinks."""
    t = draw(st.integers(1, 12))

    def vector(low, high):
        return np.array(
            draw(st.lists(st.floats(low, high), min_size=t, max_size=t))
        )

    def mask():
        return np.array(draw(st.lists(st.booleans(), min_size=t, max_size=t)))

    p1, p2 = vector(-5.0, 5.0), vector(-5.0, 5.0)
    q1, q2 = vector(0.05, 2.0), vector(0.05, 2.0)
    ties = mask()
    q2 = np.where(ties, q1, q2)
    p2 = np.where(ties & mask(), p1, p2)
    cert = StrategyCertificate(strategy=np.zeros(t), p1=p1, q1=q1, p2=p2, q2=q2)
    lo, hi = sorted(draw(st.lists(st.floats(-10.0, 10.0), min_size=2, max_size=2)))
    kinked = np.flatnonzero(q1 != q2)
    if kinked.size:
        j = draw(st.sampled_from([int(i) for i in kinked]))
        kink = (p2[j] - p1[j]) / (q2[j] - q1[j])
        end = draw(st.sampled_from(["none", "lo", "hi"]))
        if end == "lo" and kink <= hi:
            lo = kink
        elif end == "hi" and kink >= lo:
            hi = kink
    return cert, float(lo), float(hi)


class TestClosedFormLevel:
    """guaranteed_level solves G_bar's root in closed form; it must stay
    sound in float and agree with the bisection it replaced."""

    @given(level_cases())
    def test_sound_and_matches_bisection(self, case):
        cert, lo, hi = case
        level = cert.guaranteed_level(lo, hi)
        reference = bisection_level(cert, lo, hi)
        if reference == -float("inf") or reference == hi:
            assert level == reference
            return
        assert lo <= level <= hi
        assert cert.g_bar(level) >= 0.0
        assert abs(level - reference) <= level_noise(cert, reference, lo, hi)

    def test_real_certificates_within_a_few_ulps(self):
        rng = np.random.default_rng(5)
        for t in (20, 50, 100):
            game = random_interval_game(t, seed=t)
            grid = SegmentGrid(10)
            skeleton = CubisMilpSkeleton(
                *step_grids(game, default_uncertainty(game.payoffs), grid),
                game.num_resources, grid,
            )
            lo, hi = game.utility_range()
            for _ in range(20):
                x = np.minimum(rng.dirichlet(np.ones(t)) * game.num_resources, 1.0)
                cert = skeleton.certificate(x)
                level = cert.guaranteed_level(lo, hi)
                reference = bisection_level(cert, lo, hi)
                assert cert.g_bar(level) >= 0.0
                assert abs(level - reference) <= 8 * np.spacing(abs(reference))

    def test_all_ties_is_one_line(self):
        q = np.array([0.5, 1.0, 2.0])
        cert = StrategyCertificate(
            strategy=np.zeros(3), p1=np.array([1.0, -2.0, 3.0]), q1=q,
            p2=np.array([2.0, -3.0, 3.0]), q2=q,
        )
        # G(c) = (1 - 3 + 3) - 3.5 c, root 1 / 3.5.
        level = cert.guaranteed_level(-5.0, 5.0)
        assert cert.g_bar(level) >= 0.0
        assert level == pytest.approx(1.0 / 3.5, abs=4 * np.spacing(1.0))

    def test_kink_at_either_end(self):
        # Target 0's lines 1 - c and 1.5 - 2c cross at c = 0.5; target 1
        # is a tie, 2 - c.  So G(c) = 3.5 - 3c above the kink, G(0.5) = 2.
        cert = StrategyCertificate(
            strategy=np.zeros(2), p1=np.array([1.0, 2.0]), q1=np.array([1.0, 1.0]),
            p2=np.array([1.5, 2.0]), q2=np.array([2.0, 1.0]),
        )
        level = cert.guaranteed_level(0.5, 3.0)
        assert cert.g_bar(level) >= 0.0
        assert level == pytest.approx(3.5 / 3.0, abs=4 * np.spacing(1.0))
        assert cert.guaranteed_level(-1.0, 0.5) == 0.5
        assert cert.guaranteed_level(0.5, 0.5) == 0.5
        assert cert.guaranteed_level(2.0, 2.0) == -float("inf")

    @pytest.mark.parametrize(
        "lo, hi",
        [
            (5.0, -5.0),                 # empty: would return hi, outside it
            (-float("inf"), 5.0),        # would return -inf, "certifies nothing"
            (-5.0, float("nan")),        # would silently return lo
            (float("nan"), 5.0),
            (-5.0, float("inf")),
        ],
    )
    def test_bad_interval_rejected(self, lo, hi):
        game = random_interval_game(20, seed=3)
        grid = SegmentGrid(10)
        skeleton = CubisMilpSkeleton(
            *step_grids(game, default_uncertainty(game.payoffs), grid),
            game.num_resources, grid,
        )
        cert = skeleton.certificate(np.full(20, game.num_resources / 20))
        assert np.isfinite(cert.guaranteed_level(*game.utility_range()))
        with pytest.raises(ValueError, match="finite interval"):
            cert.guaranteed_level(lo, hi)


class TestCertificatePerStep:
    """A feasible step builds its certificate once: the screen that
    proved it pools it, and the binary search's level jump reuses it."""

    def solve_counting(self, monkeypatch, game, model, **options):
        built = []
        certificate = CubisMilpSkeleton.certificate

        def spy(skeleton, strategy):
            built.append(strategy)
            return certificate(skeleton, strategy)

        monkeypatch.setattr(CubisMilpSkeleton, "certificate", spy)
        tele = telemetry.Telemetry()
        with telemetry.use(tele):
            result = solve_cubis(game, model, **options)
        fallthrough = tele.metrics.counter(
            "repro_cubis_hull_screens_total", verdict="fallthrough"
        ).value
        return result, len(built), fallthrough

    def test_cold_solve(self, monkeypatch):
        game = random_interval_game(50, seed=0)
        model = default_uncertainty(game.payoffs)
        result, built, fallthrough = self.solve_counting(monkeypatch, game, model)
        feasible = sum(verdict for _, verdict in result.trace)
        # A hull screen that falls through has built its witness's
        # certificate too (this game has one, answered by the LP screen).
        assert fallthrough == 1
        assert built == feasible - result.cache_hits + fallthrough

    def test_warm_start_strategies(self, monkeypatch):
        game = random_interval_game(50, seed=0)
        model = default_uncertainty(game.payoffs)
        first = solve_cubis(game, model)
        result, built, fallthrough = self.solve_counting(
            monkeypatch, game, model, warm_start=first.as_warm_start()
        )
        feasible = sum(verdict for _, verdict in result.trace)
        assert built == 1 + feasible - result.cache_hits + fallthrough


class TestDriftPatch:
    """An interval drift at a fixed candidate: ``diff_from(base, c, c)``
    carries ``base``'s model at ``c`` to a rebind sibling with new bands,
    bit-identical to a fresh build on those bands."""

    def _bands(self, t=4, k=6, seed=3):
        grid = SegmentGrid(k)
        bp = grid.breakpoints
        rng = np.random.default_rng(seed)
        rd = rng.uniform(1.0, 6.0, size=t)
        pd = -rng.uniform(1.0, 6.0, size=t)
        ud = np.outer(rd, bp) + np.outer(pd, 1 - bp)
        slope = rng.uniform(0.5, 2.0, size=(t, 1))
        lo = np.exp(-slope * bp + rng.uniform(0.0, 0.5, size=(t, 1)))
        hi = np.exp(-0.5 * slope * bp + rng.uniform(0.6, 1.0, size=(t, 1)))
        return ud, lo, hi, grid

    def _shrunk(self, lo, hi, targets, amount=0.02):
        lo2, hi2 = lo.copy(), hi.copy()
        lo2[list(targets)] *= 1.0 + amount
        hi2[list(targets)] *= 1.0 - amount
        return lo2, hi2

    def test_drift_patch_matches_fresh_build(self):
        ud, lo, hi, grid = self._bands()
        proto = CubisMilpSkeleton(ud, lo, hi, 1.5, grid)
        lo2, hi2 = self._shrunk(lo, hi, range(len(ud)))
        sibling = proto.rebind(ud, lo2, hi2)
        for c in (-2.0, 0.0, 1.25):
            model = proto.patch(c)
            patched = apply_patch(proto, model, sibling.diff_from(proto, c, c))
            assert_models_identical(
                patched, build_cubis_milp(ud, lo2, hi2, 1.5, c, grid)
            )

    def test_no_drift_patch_is_empty(self):
        ud, lo, hi, grid = self._bands()
        proto = CubisMilpSkeleton(ud, lo, hi, 1.5, grid)
        sibling = proto.rebind(ud, lo.copy(), hi.copy())
        assert sibling.diff_from(proto, 0.5, 0.5).num_updates == 0

    @given(
        st.integers(2, 5),
        st.integers(1, 6),
        st.integers(0, 10**6),
        st.floats(-3.0, 3.0, allow_nan=False),
        st.floats(0.005, 0.2, allow_nan=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_drift_patch_property(self, t, k, seed, c, amount):
        """Any perturbed subset: the patch is bit-exact against a fresh
        build."""
        ud, lo, hi, grid = self._bands(t=t, k=k, seed=seed)
        rng = np.random.default_rng(seed + 1)
        subset = np.flatnonzero(rng.uniform(size=t) < 0.5)
        if subset.size == 0:
            subset = np.array([rng.integers(t)])
        proto = CubisMilpSkeleton(ud, lo, hi, 1.5, grid)
        lo2, hi2 = self._shrunk(lo, hi, subset, amount=amount)
        sibling = proto.rebind(ud, lo2, hi2)
        patched = apply_patch(proto, proto.patch(c), sibling.diff_from(proto, c, c))
        assert_models_identical(
            patched, build_cubis_milp(ud, lo2, hi2, 1.5, c, grid)
        )
