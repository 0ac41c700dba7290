"""The live HiGHS LP screen (repro.solvers.milp_backend.LiveLp).

Parity: a cold live solve is bit-identical to ``scipy.optimize.milp``
with presolve off, and a warm-basis chain over bisection-like candidates
gives the same statuses and objectives within float noise.  Presolve:
LP screens run without it on both paths, MILPs keep the HiGHS defaults.
Detection: a binding whose ``passModel`` lacks the array form counts as
absent, and its solves take the scipy path; the probe runs once, on the
first live solve, not at import.  Fault injection: a live
solve that raises or ends non-optimal is answered by the
``scipy.optimize.milp`` path with an unchanged verdict, and the next
screen runs cold.  Lifetime: the live model dies with the solve that
made it; no session or resolve handle keeps it reachable.
"""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.behavior.interval import BandScaledModel
from repro.core.cubis import solve_cubis
from repro.core.milp import CubisMilpSkeleton
from repro.experiments.quality import default_uncertainty
from repro.game.constraints import CoverageConstraints
from repro.game.generator import random_interval_game
from repro.resilience.certificate import certify_result
from repro.solvers import milp_backend
from repro.solvers.milp_backend import (
    LiveLp,
    _solve_highs,
    relax_integrality,
    solve_milp,
)
from repro.solvers.piecewise import SegmentGrid
from repro.solvers.resolve import resolve, start_resolve
from repro.solvers.session import MilpSession
from tests.test_imports import assert_ran, run_python

HIGHS = milp_backend.highs_binding()

pytestmark = pytest.mark.skipif(
    HIGHS is None, reason="scipy ships no HiGHS binding"
)

SOLVE = {"num_segments": 8, "epsilon": 1e-2}


# Side constraints skip the Lagrangian hull screen, so every step reaches
# the LP screen; this cap on total coverage never binds.
def lp_screened(num_targets):
    cap = CoverageConstraints(
        np.ones((1, num_targets)), np.array([float(num_targets)])
    )
    return {**SOLVE, "coverage_constraints": cap}


def random_skeleton(t, k, seed, *, equality=False, constrained=False):
    rng = np.random.default_rng(seed)
    grid = SegmentGrid(k)
    bp = grid.breakpoints
    reward = rng.uniform(1.0, 10.0, size=t)
    penalty = rng.uniform(-10.0, -1.0, size=t)
    ud = np.outer(reward, bp) + np.outer(penalty, 1 - bp)
    slope = rng.uniform(0.5, 3.0, size=(t, 1))
    lo = np.exp(-slope * bp + rng.uniform(0.0, 1.0, size=(t, 1)))
    hi = lo * rng.uniform(1.0, 3.0, size=(t, 1))
    constraints = None
    if constrained:
        constraints = CoverageConstraints(
            rng.integers(0, 2, size=(2, t)).astype(float), np.array([0.8, 1.2])
        )
    resources = 0.5 * t if equality else rng.uniform(0.5, t / 2)
    return CubisMilpSkeleton(
        ud, lo, hi, resources, grid,
        equality_resources=equality, coverage_constraints=constraints,
    )


def lp_screens(tele):
    return [r for r in tele.spans
            if r.name == "milp.solve" and r.attributes["kind"] == "lp:highs"]


@pytest.fixture
def scipy_calls(monkeypatch):
    """Counts calls into ``scipy.optimize.milp`` from the backend."""
    calls = []
    real = milp_backend.milp

    def counting(*args, **kwargs):
        calls.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(milp_backend, "milp", counting)
    return calls


class Binding:
    """Stands in for scipy's HiGHS binding: forwards every name to it,
    keeps a weak reference to each solver it makes, and can fail the
    ``fail_at``-th ``run`` across them by raising or by reporting a
    non-optimal model status.  With ``arrays`` set to ``"raise"`` or
    ``"error"``, ``passModel`` rejects a model given as arrays the way a
    binding without that overload would (``TypeError``) or with a
    ``kError`` status."""

    def __init__(self, fail_at=None, mode="raise", arrays=None):
        self.fail_at, self.mode, self.arrays = fail_at, mode, arrays
        self.runs, self.made = 0, []
        binding = self

        class Highs(HIGHS._Highs):
            def passModel(self, *args):
                if len(args) > 1 and binding.arrays == "raise":
                    raise TypeError("passModel(): incompatible function arguments")
                if len(args) > 1 and binding.arrays == "error":
                    return HIGHS.HighsStatus.kError
                return super().passModel(*args)

            def run(self):
                binding.runs += 1
                if binding.failing and binding.mode == "raise":
                    raise RuntimeError("injected live LP failure")
                return super().run()

            def getModelStatus(self):
                if binding.failing and binding.mode == "status":
                    return HIGHS.HighsModelStatus.kInfeasible
                return super().getModelStatus()

        self._highs_class = Highs

    @property
    def failing(self):
        return self.runs == self.fail_at

    def _Highs(self):
        highs = self._highs_class()
        self.made.append(weakref.ref(highs))
        return highs

    def __getattr__(self, name):
        return getattr(HIGHS, name)


class TestParity:
    @given(
        st.integers(2, 6),
        st.integers(1, 6),
        st.integers(0, 10**6),
        st.floats(-8.0, 8.0, allow_nan=False),
        st.booleans(),
        st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_cold_live_solve_is_bit_identical_to_scipy(
        self, t, k, seed, c, equality, constrained
    ):
        skeleton = random_skeleton(t, k, seed, equality=equality,
                                   constrained=constrained)
        problem = relax_integrality(skeleton.patch(c).problem)
        want = _solve_highs(problem)
        answered = LiveLp().solve(problem)
        if not want.optimal:
            return
        got, warm, iterations = answered
        assert not warm
        assert iterations >= 0
        assert got.status == want.status
        np.testing.assert_array_equal(got.x, want.x)
        assert got.objective == want.objective

    @pytest.mark.parametrize("t,k,seed", [(6, 5, 1), (12, 8, 2), (20, 10, 3)])
    def test_warm_chain_matches_scipy_along_a_bisection(self, t, k, seed):
        skeleton = random_skeleton(t, k, seed)
        session = MilpSession(skeleton)
        live = LiveLp()
        lo, hi = -10.0, 10.0
        warm_flags = []
        for _ in range(14):
            c = 0.5 * (lo + hi)
            model = session.prepare(c)
            problem = relax_integrality(model.problem)
            want = _solve_highs(problem)
            got, warm, _ = live.solve(problem)
            warm_flags.append(warm)
            assert got.status == want.status
            assert got.objective == pytest.approx(want.objective, rel=1e-9,
                                                  abs=1e-12)
            if model.g_bar_from_objective(want.objective) >= 0.0:
                lo = c
            else:
                hi = c
        assert warm_flags == [False] + [True] * 13

    def test_absent_binding_takes_the_scipy_path(
        self, monkeypatch, scipy_calls
    ):
        game = random_interval_game(6, seed=3)
        model = default_uncertainty(game.payoffs)
        live = solve_cubis(game, model, **SOLVE)
        assert live.lp_solves > 0
        assert len(scipy_calls) == live.milp_solves
        monkeypatch.setattr(milp_backend, "_HIGHS", None)
        result = solve_cubis(game, model, **SOLVE)
        assert len(scipy_calls) - live.milp_solves == (
            result.lp_solves + result.milp_solves
        )
        assert [f for _, f in result.trace] == [f for _, f in live.trace]
        assert result.worst_case_value == pytest.approx(
            live.worst_case_value, abs=1e-9
        )
        assert certify_result(game, model, result).valid


class TestPresolve:
    def test_lp_screens_run_presolve_off_and_milps_keep_defaults(
        self, monkeypatch, scipy_calls
    ):
        problem = random_skeleton(6, 4, 1).patch(0.0).problem
        assert problem.num_integer > 0
        monkeypatch.setattr(milp_backend, "_HIGHS", None)
        lp = solve_milp(relax_integrality(problem), live=LiveLp())
        mip = solve_milp(problem)
        assert lp.optimal and mip.optimal
        assert len(scipy_calls) == 2
        assert scipy_calls[0]["options"] == {"presolve": False}
        assert scipy_calls[1]["options"] is None

    def test_live_instance_runs_presolve_off(self):
        problem = relax_integrality(random_skeleton(6, 4, 1).patch(0.0).problem)
        live = LiveLp()
        assert live.solve(problem) is not None
        assert live._highs.getOptionValue("presolve")[1] == "off"


class TestArrayFormDetection:
    def test_binding_with_the_array_form_is_kept(self):
        binding = Binding()
        assert milp_backend._array_form(binding) is binding

    @pytest.mark.parametrize("arrays", ["raise", "error"])
    def test_binding_without_the_array_form_takes_the_scipy_path(
        self, monkeypatch, scipy_calls, arrays
    ):
        game = random_interval_game(8, seed=5)
        model = default_uncertainty(game.payoffs)
        ref = solve_cubis(game, model, **lp_screened(8))
        assert ref.lp_solves > 0 and len(scipy_calls) == ref.milp_solves
        scipy_calls.clear()

        detected = milp_backend._array_form(Binding(arrays=arrays))
        assert detected is None
        monkeypatch.setattr(milp_backend, "_HIGHS", detected)
        result = solve_cubis(game, model, **lp_screened(8))
        assert len(scipy_calls) == result.lp_solves + result.milp_solves
        presolve_off = [call["options"] == {"presolve": False} for call in scipy_calls]
        assert sum(presolve_off) == result.lp_solves
        # Warm live screens may end at another vertex of a degenerate
        # optimal face, so candidates agree within float noise.
        assert [f for _, f in result.trace] == [f for _, f in ref.trace]
        np.testing.assert_allclose(
            [c for c, _ in result.trace], [c for c, _ in ref.trace], atol=1e-9
        )
        assert result.lp_solves == ref.lp_solves
        assert result.milp_solves == ref.milp_solves
        np.testing.assert_allclose(result.strategy, ref.strategy, atol=1e-9)


class TestLazyDetection:
    def test_first_live_solve_probes_the_binding_once(self):
        proc = run_python("""
            import sys

            import numpy as np

            from repro.solvers import milp_backend

            assert "scipy.optimize" not in sys.modules
            assert milp_backend._HIGHS is milp_backend._UNPROBED

            probes = []
            real = milp_backend._array_form

            def counting(core):
                probes.append(core)
                return real(core)

            milp_backend._array_form = counting
            problem = milp_backend.MILPProblem(
                np.ones(2), A_ub=np.ones((1, 2)), b_ub=np.ones(1))
            assert "scipy.optimize" not in sys.modules
            for live in (milp_backend.LiveLp(), milp_backend.LiveLp()):
                result, warm, _ = live.solve(problem)
                assert result.optimal and result.objective == 0.0, result
            assert "scipy.optimize" in sys.modules

            from scipy.optimize._highspy import _core

            assert milp_backend._HIGHS is _core
            assert milp_backend.highs_binding() is _core
            assert probes == [_core], probes
            print("ok")
        """)
        assert_ran(proc)


class TestFaultInjection:
    @pytest.mark.parametrize("mode", ["raise", "status"])
    @pytest.mark.parametrize("fail_at", [1, 3])
    def test_failed_live_solve_falls_back_and_next_runs_cold(
        self, monkeypatch, scipy_calls, mode, fail_at
    ):
        game = random_interval_game(8, seed=5)
        model = default_uncertainty(game.payoffs)
        monkeypatch.setattr(milp_backend, "_HIGHS", Binding())
        ref_tele = telemetry.Telemetry()
        with telemetry.use(ref_tele):
            ref = solve_cubis(game, model, **lp_screened(8))
        assert ref.lp_solves > fail_at
        assert scipy_calls == []

        binding = Binding(fail_at=fail_at, mode=mode)
        monkeypatch.setattr(milp_backend, "_HIGHS", binding)
        tele = telemetry.Telemetry()
        with telemetry.use(tele):
            result = solve_cubis(game, model, **lp_screened(8))

        # The failed screen alone went to scipy, with the same verdict.
        assert len(scipy_calls) == 1
        assert result.trace == ref.trace
        assert result.lp_solves == ref.lp_solves
        assert result.milp_solves == ref.milp_solves
        np.testing.assert_allclose(result.strategy, ref.strategy, atol=1e-9)
        screens = lp_screens(tele)
        assert len(screens) == len(lp_screens(ref_tele)) == result.lp_solves
        assert all(s.attributes["status"] == "optimal" for s in screens)
        # Screens before the failure chain warm; the failed one carries no
        # live attributes; the basis is dropped, so the next runs cold.
        warm = [s.attributes.get("warm") for s in screens]
        assert warm[:fail_at - 1] == [i > 0 for i in range(fail_at - 1)]
        assert warm[fail_at - 1] is None
        assert "simplex_iterations" not in screens[fail_at - 1].attributes
        assert warm[fail_at] is False
        assert all(w is True for w in warm[fail_at + 1:])

    def test_live_model_dies_with_the_solve(self, monkeypatch):
        binding = Binding()
        monkeypatch.setattr(milp_backend, "_HIGHS", binding)
        game = random_interval_game(6, seed=4)
        model = default_uncertainty(game.payoffs)
        session = MilpSession(None)
        result = solve_cubis(game, model, session=session, **SOLVE)
        assert result.lp_solves > 0 and session.live
        gc.collect()
        assert binding.made and all(ref() is None for ref in binding.made)

        handle = start_resolve(game, model, **SOLVE)
        resolve(handle, BandScaledModel(model, 0.9))
        gc.collect()
        assert len(binding.made) >= 3
        assert all(ref() is None for ref in binding.made)
        assert handle.session.live

