"""Unit tests for repro.solvers.session (MilpSession)."""

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro import telemetry
from repro.core.milp import CubisMilpSkeleton, build_cubis_milp
from repro.solvers.milp_backend import solve_milp
from repro.solvers.session import MilpSession
from tests.test_core_milp import assert_models_identical, small_data


def make_skeleton(k=5):
    ud, lo, hi, grid, *_ = small_data(k)
    return CubisMilpSkeleton(ud, lo, hi, 1.0, grid), (ud, lo, hi, grid)


class TestMilpSession:
    def test_first_prepare_is_fresh_build(self):
        skeleton, _ = make_skeleton()
        session = MilpSession(skeleton)
        assert not session.live
        model = session.prepare(0.5)
        assert session.live
        assert session.fresh_builds == 1
        assert session.patches_applied == 0
        assert model.c == 0.5

    def test_patched_model_is_bit_identical_to_fresh(self):
        skeleton, (ud, lo, hi, grid) = make_skeleton()
        session = MilpSession(skeleton)
        session.prepare(-2.0)
        patched = session.prepare(1.25)
        assert session.patches_applied == 1
        assert_models_identical(
            patched, build_cubis_milp(ud, lo, hi, 1.0, 1.25, grid)
        )

    def test_long_walk_stays_bit_identical(self):
        skeleton, (ud, lo, hi, grid) = make_skeleton()
        session = MilpSession(skeleton)
        for c in [-3.0, 2.0, -0.5, 0.0, 0.7, -1.1, 2.9]:
            model = session.prepare(c)
            assert_models_identical(
                model, build_cubis_milp(ud, lo, hi, 1.0, c, grid)
            )
        assert session.fresh_builds == 1
        assert session.patches_applied == 6

    def test_same_candidate_is_noop(self):
        skeleton, _ = make_skeleton()
        session = MilpSession(skeleton)
        first = session.prepare(0.5)
        second = session.prepare(0.5)
        assert second is first
        assert session.patches_applied == 0
        assert session.last_patch_updates == 0

    def test_solve_requires_prepare(self):
        skeleton, _ = make_skeleton()
        with pytest.raises(RuntimeError, match="prepare"):
            MilpSession(skeleton).solve()

    @pytest.mark.parametrize("backend", ["highs", "bnb"])
    def test_session_solves_match_fresh_solves(self, backend):
        skeleton, (ud, lo, hi, grid) = make_skeleton()
        session = MilpSession(skeleton, backend=backend)
        for c in [-1.0, 0.5, 1.5]:
            session.prepare(c)
            got = session.solve()
            want = solve_milp(
                build_cubis_milp(ud, lo, hi, 1.0, c, grid).problem,
                backend=backend,
            )
            assert got.optimal and want.optimal
            assert got.objective == pytest.approx(want.objective, abs=1e-9)
        assert session.solves == 3

    def test_incumbent_carried_between_solves(self):
        """A solve keeps the live model; no MIP start is carried."""
        skeleton, _ = make_skeleton()
        session = MilpSession(skeleton, backend="bnb")
        session.prepare(0.0)
        first = session.solve()
        assert first.optimal
        assert session.live

    def test_invalidate_drops_model_and_counts_fallback(self):
        skeleton, _ = make_skeleton()
        session = MilpSession(skeleton)
        session.invalidate()  # nothing live yet: not a fallback
        assert session.fallbacks == 0
        session.prepare(0.5)
        session.invalidate()
        assert session.fallbacks == 1
        assert not session.live
        # Next prepare is a fresh build again, and correct.
        model = session.prepare(1.0)
        assert session.fresh_builds == 2
        assert model.c == 1.0

    def test_invalidate_drops_incumbent(self):
        skeleton, _ = make_skeleton()
        session = MilpSession(skeleton, backend="bnb")
        session.prepare(0.0)
        session.solve()
        session.invalidate()
        assert not session.live

    def test_prepare_emits_patch_spans(self):
        skeleton, _ = make_skeleton()
        session = MilpSession(skeleton)
        tele = telemetry.Telemetry()
        with telemetry.use(tele):
            session.prepare(0.0)
            session.prepare(1.0)
            session.prepare(1.0)
        spans = [s for s in tele.spans if s.name == "milp.patch"]
        assert [s.attributes["mode"] for s in spans] == [
            "fresh-build", "patch", "noop",
        ]
        assert spans[1].attributes["updates"] > 0

    def test_stats_roundtrip(self):
        """The lifetime counters after two prepares and a solve."""
        skeleton, _ = make_skeleton()
        session = MilpSession(skeleton)
        session.prepare(0.0)
        session.prepare(1.0)
        session.solve()
        assert (session.fresh_builds, session.patches_applied,
                session.solves, session.fallbacks) == (1, 1, 1, 0)


class TestRetarget:
    """``retarget`` points the session at another skeleton and drops the
    live model: no model crosses a skeleton boundary."""

    def test_retarget_chain_stays_bit_identical(self):
        skeleton, (ud, lo, hi, grid) = make_skeleton()
        session = MilpSession(skeleton)
        session.prepare(-1.0)
        for scale, c in [(1.5, 0.0), (0.5, 0.7), (2.0, -0.3)]:
            sibling = skeleton.rebind(ud * scale, lo, hi)
            session.retarget(sibling)
            assert not session.live
            model = session.prepare(c)
            assert_models_identical(
                model, build_cubis_milp(ud * scale, lo, hi, 1.0, c, grid)
            )
        assert session.fresh_builds == 4
        assert session.patches_applied == 0

    def test_retarget_structurally_different_drops_model(self):
        skeleton, _ = make_skeleton(k=5)
        other, _ = make_skeleton(k=7)
        session = MilpSession(skeleton)
        session.prepare(0.5)
        session.retarget(other)
        assert not session.live
        session.prepare(1.0)
        assert session.fresh_builds == 2

    def test_retarget_drops_incumbent_by_default(self):
        skeleton, (ud, lo, hi, _) = make_skeleton()
        sibling = skeleton.rebind(ud * 1.1, lo, hi)
        session = MilpSession(skeleton, backend="bnb")
        session.prepare(0.0)
        session.solve()
        assert session.live
        session.retarget(sibling)
        assert not session.live


class SessionModel(RuleBasedStateMachine):
    """Model-based check of :class:`MilpSession` against a plain model.

    One session on one skeleton, as inside a solve.  The model tracks
    only whether a live model exists, the candidate it was last prepared
    at, and the counters; every prepared model must equal a fresh build
    from an independently assembled skeleton of the same grids.
    """

    def __init__(self):
        super().__init__()
        skeleton, self.data = make_skeleton(5)
        self.session = MilpSession(skeleton)
        self.live = False
        self.last_c = None
        self.counts = dict.fromkeys(
            ("fresh_builds", "patches_applied", "solves", "fallbacks"), 0)

    @rule(c=st.sampled_from([-3.0, -1.0, 0.0, 0.5, 2.0])
          | st.floats(-4.0, 4.0, allow_nan=False))
    def prepare(self, c):
        self._prepare(c)

    @precondition(lambda self: self.last_c is not None)
    @rule()
    def prepare_same_candidate(self):
        self._prepare(self.last_c)

    def _prepare(self, c):
        model = self.session.prepare(c)
        if not self.live:
            self.counts["fresh_builds"] += 1
        elif c != self.last_c:
            self.counts["patches_applied"] += 1
        self.live, self.last_c = True, float(c)
        ud, lo, hi, grid = self.data
        fresh = CubisMilpSkeleton(ud, lo, hi, 1.0, grid).patch(c)
        live, want = model.problem, fresh.problem
        np.testing.assert_array_equal(live.A_ub.data, want.A_ub.data)
        np.testing.assert_array_equal(live.b_ub, want.b_ub)
        np.testing.assert_array_equal(live.c, want.c)
        np.testing.assert_array_equal(live.ub, want.ub)
        assert model.f1_constant == fresh.f1_constant

    @rule()
    def invalidate(self):
        self.session.invalidate()
        if self.live:
            self.counts["fallbacks"] += 1
        self.live, self.last_c = False, None

    @rule()
    def solve(self):
        if not self.live:
            with pytest.raises(RuntimeError, match="prepare"):
                self.session.solve()
            return
        assert self.session.solve().optimal
        self.counts["solves"] += 1

    @invariant()
    def counters_match_model(self):
        assert self.session.live == self.live
        assert {name: getattr(self.session, name) for name in self.counts} \
            == self.counts


# Cost-bound (rules rebuild skeletons and call HiGHS): explicit caps
# override the conftest profile.
TestSessionModel = SessionModel.TestCase
TestSessionModel.settings = settings(
    max_examples=30, stateful_step_count=25, deadline=None
)
