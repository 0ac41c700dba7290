"""Integration tests for the CUBIS solver.

The key checks:

* Table I reproduction (the paper's own numbers);
* optimality against exhaustive grid search on 2-target games;
* the Theorem-1 bracket: exact worst-case value vs ``[lb, ub]``;
* backend equivalence (HiGHS vs our branch-and-bound);
* quality improves (weakly) with finer K / epsilon.
"""

import collections
import sys
import time

import numpy as np
import pytest

from repro import telemetry
from repro.behavior import BandScaledModel
from repro.behavior.interval import IntervalSUQR
from repro.core.cubis import _CERTIFICATE_POOL_LIMIT, WarmStart, solve_cubis
from repro.core.milp import CubisMilpSkeleton, StrategyCertificate, step_grids
from repro.core.worst_case import evaluate_worst_case
from repro.experiments.quality import default_uncertainty
from repro.game.generator import random_interval_game, table1_game
from repro.resilience.policy import ResiliencePolicy
from repro.solvers.piecewise import SegmentGrid


class TestTable1:
    @pytest.fixture(scope="class")
    def result(self, ):
        game = table1_game()
        uncertainty = IntervalSUQR(
            game.payoffs, w1=(-6.0, -2.0), w2=(0.5, 1.0), w3=(0.4, 0.9)
        )
        return solve_cubis(game, uncertainty, num_segments=25, epsilon=1e-4)

    def test_robust_strategy_matches_paper(self, result):
        np.testing.assert_allclose(result.strategy, [0.46, 0.54], atol=0.02)

    def test_worst_case_value_matches_paper(self, result):
        assert result.worst_case_value == pytest.approx(-0.90, abs=0.05)

    def test_bracket_tight(self, result):
        assert result.upper_bound - result.lower_bound <= 1e-4 + 1e-12

    def test_strategy_feasible(self, result):
        game = table1_game()
        assert game.strategy_space.contains(result.strategy, atol=1e-6)


class TestOptimalityOnSmallGames:
    def brute_force(self, game, uncertainty, grid_points=401):
        """Exhaustive search over the 1-D strategy space of a 2-target,
        1-resource game."""
        best_x, best_v = None, -np.inf
        for a in np.linspace(0.0, 1.0, grid_points):
            x = np.array([a, 1.0 - a])
            v = evaluate_worst_case(game, uncertainty, x).value
            if v > best_v:
                best_v, best_x = v, x
        return best_x, best_v

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_brute_force(self, seed):
        game = random_interval_game(2, num_resources=1, payoff_halfwidth=0.8, seed=seed)
        uncertainty = IntervalSUQR(
            game.payoffs, w1=(-4.0, -2.0), w2=(0.6, 0.9), w3=(0.3, 0.6),
            convention="tight",
        )
        _, best_v = self.brute_force(game, uncertainty)
        result = solve_cubis(game, uncertainty, num_segments=30, epsilon=1e-4)
        # Theorem 1: within O(epsilon + 1/K) of the optimum.
        assert result.worst_case_value >= best_v - 0.05
        # And never above it (brute force is a true upper bound up to its
        # own grid resolution).
        assert result.worst_case_value <= best_v + 0.01

    def test_table1_brute_force_agreement(self):
        game = table1_game()
        uncertainty = IntervalSUQR(
            game.payoffs, w1=(-6.0, -2.0), w2=(0.5, 1.0), w3=(0.4, 0.9)
        )
        bx, bv = self.brute_force(game, uncertainty)
        result = solve_cubis(game, uncertainty, num_segments=30, epsilon=1e-4)
        assert result.worst_case_value == pytest.approx(bv, abs=0.03)
        np.testing.assert_allclose(result.strategy, bx, atol=0.03)


class TestBracketSemantics:
    def test_exact_value_consistent_with_bracket(self, small_interval_game, small_uncertainty):
        result = solve_cubis(
            small_interval_game, small_uncertainty, num_segments=20, epsilon=1e-3
        )
        # Lemma 2: the exact worst case of the returned strategy is at
        # least lb - O(1/K); Lemma 3 bounds the optimum by ub + O(1/K).
        slack = 0.5  # generous O(1/K) envelope for K=20
        assert result.worst_case_value >= result.lower_bound - slack
        assert result.worst_case_value <= result.upper_bound + slack

    def test_trace_is_monotone_feasibility(self, small_interval_game, small_uncertainty):
        result = solve_cubis(
            small_interval_game, small_uncertainty, num_segments=8, epsilon=0.05
        )
        feas = [c for c, ok in result.trace if ok]
        infeas = [c for c, ok in result.trace if not ok]
        if feas and infeas:
            assert max(feas) <= min(infeas) + 1e-9

    def test_iterations_recorded(self, small_interval_game, small_uncertainty):
        result = solve_cubis(
            small_interval_game, small_uncertainty, num_segments=8, epsilon=0.05
        )
        assert result.iterations == len(result.trace)
        assert result.solve_seconds > 0.0

    def test_solve_seconds_covers_grid_tabulation(
        self, small_interval_game, small_uncertainty, monkeypatch
    ):
        # The grids are tabulated before the search starts; the clock of
        # "the whole call" must still see them.
        tabulate = small_uncertainty.lower_on_grid

        def slow(points):
            time.sleep(0.05)
            return tabulate(points)

        monkeypatch.setattr(small_uncertainty, "lower_on_grid", slow)
        result = solve_cubis(
            small_interval_game, small_uncertainty, num_segments=4, epsilon=0.05
        )
        assert result.solve_seconds >= 0.05


class TestKnobs:
    def test_quality_improves_with_k(self, small_interval_game, small_uncertainty):
        coarse = solve_cubis(
            small_interval_game, small_uncertainty, num_segments=2, epsilon=1e-3
        )
        fine = solve_cubis(
            small_interval_game, small_uncertainty, num_segments=25, epsilon=1e-3
        )
        assert fine.worst_case_value >= coarse.worst_case_value - 0.02

    def test_epsilon_controls_bracket(self, small_interval_game, small_uncertainty):
        loose = solve_cubis(
            small_interval_game, small_uncertainty, num_segments=10, epsilon=0.5
        )
        tight = solve_cubis(
            small_interval_game, small_uncertainty, num_segments=10, epsilon=1e-3
        )
        assert tight.upper_bound - tight.lower_bound <= 1e-3 + 1e-12
        assert loose.upper_bound - loose.lower_bound <= 0.5 + 1e-12

    def test_invalid_epsilon(self, small_interval_game, small_uncertainty):
        for epsilon in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="epsilon"):
                solve_cubis(small_interval_game, small_uncertainty, epsilon=epsilon)

    def test_invalid_feasibility_tolerance(self, small_interval_game, small_uncertainty):
        for tolerance in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="feasibility_tolerance"):
                solve_cubis(small_interval_game, small_uncertainty,
                            feasibility_tolerance=tolerance)

    def test_target_mismatch(self, small_uncertainty):
        other = random_interval_game(7, seed=0)
        with pytest.raises(ValueError, match="targets"):
            solve_cubis(other, small_uncertainty)

    def test_equality_resources_mode(self, small_interval_game, small_uncertainty):
        result = solve_cubis(
            small_interval_game,
            small_uncertainty,
            num_segments=10,
            epsilon=0.01,
            equality_resources=True,
        )
        assert result.strategy.sum() == pytest.approx(
            small_interval_game.num_resources, abs=1e-6
        )


class TestBackends:
    def test_bnb_matches_highs(self, small_interval_game, small_uncertainty):
        a = solve_cubis(
            small_interval_game, small_uncertainty, num_segments=5, epsilon=0.05,
            backend="highs",
        )
        b = solve_cubis(
            small_interval_game, small_uncertainty, num_segments=5, epsilon=0.05,
            backend="bnb",
        )
        assert a.lower_bound == pytest.approx(b.lower_bound, abs=1e-9)
        assert a.worst_case_value == pytest.approx(b.worst_case_value, abs=0.05)


class TestRobustDominance:
    @pytest.mark.parametrize("seed", [3, 4])
    def test_beats_uniform_in_worst_case(self, seed):
        game = random_interval_game(6, payoff_halfwidth=0.5, seed=seed)
        uncertainty = IntervalSUQR(
            game.payoffs, w1=(-4.0, -2.0), w2=(0.6, 0.9), w3=(0.3, 0.6),
            convention="tight",
        )
        result = solve_cubis(game, uncertainty, num_segments=12, epsilon=0.01)
        uniform_v = evaluate_worst_case(
            game, uncertainty, game.strategy_space.uniform()
        ).value
        assert result.worst_case_value >= uniform_v - 0.05


class TestPerformanceLayer:
    """Memoisation, the LP-relaxation screen, and warm starts must change
    solver-call counts, never answers."""

    def solve(self, game, unc, **kw):
        kw.setdefault("num_segments", 8)
        kw.setdefault("epsilon", 0.01)
        return solve_cubis(game, unc, **kw)

    def test_memoised_matches_cold_value(self, small_interval_game, small_uncertainty):
        cold = self.solve(small_interval_game, small_uncertainty, memoise=False)
        memo = self.solve(small_interval_game, small_uncertainty, memoise=True)
        # Both brackets enclose the same approximated optimum.
        assert memo.lower_bound <= cold.upper_bound + 1e-9
        assert cold.lower_bound <= memo.upper_bound + 1e-9
        assert abs(memo.lower_bound - cold.lower_bound) <= memo.epsilon
        assert abs(memo.worst_case_value - cold.worst_case_value) <= 2 * memo.epsilon

    def test_cold_counters(self, small_interval_game, small_uncertainty):
        cold = self.solve(small_interval_game, small_uncertainty, memoise=False)
        assert cold.lp_solves == 0
        assert cold.cache_hits == 0
        assert cold.milp_solves == cold.oracle_calls == cold.iterations

    def test_memoised_counters(self, small_interval_game, small_uncertainty):
        cold = self.solve(small_interval_game, small_uncertainty, memoise=False)
        memo = self.solve(small_interval_game, small_uncertainty, memoise=True)
        # Every oracle step is accounted for by exactly one mechanism.
        mechanisms = (
            memo.milp_solves + memo.lp_solves + memo.cache_hits + memo.hull_screens
        )
        assert mechanisms >= memo.iterations
        assert memo.milp_solves < cold.milp_solves

    def test_warm_start_cuts_solver_calls(self, small_interval_game, small_uncertainty):
        first = self.solve(small_interval_game, small_uncertainty)
        warm = self.solve(
            small_interval_game, small_uncertainty,
            warm_start=first.as_warm_start(),
        )
        assert warm.lower_bound == pytest.approx(first.lower_bound, abs=first.epsilon)
        calls = lambda r: r.milp_solves + r.lp_solves  # noqa: E731
        assert calls(warm) + warm.cache_hits <= calls(first) + first.cache_hits
        assert warm.cache_hits > 0 or calls(warm) < calls(first)

    def test_warm_vs_cold_equal_answer(self, small_interval_game, small_uncertainty):
        """Warm starts may only shorten the path, never move the answer."""
        first = self.solve(small_interval_game, small_uncertainty, memoise=False)
        warm = self.solve(
            small_interval_game, small_uncertainty, memoise=False,
            warm_start=first.as_warm_start(),
        )
        assert warm.lower_bound >= first.lower_bound - 1e-9
        assert warm.upper_bound <= first.upper_bound + 1e-9
        assert abs(warm.worst_case_value - first.worst_case_value) <= 2 * first.epsilon

    def test_garbage_warm_start_ignored(self, small_interval_game, small_uncertainty):
        baseline = self.solve(small_interval_game, small_uncertainty)
        garbage = WarmStart(
            bracket=(float("nan"), float("inf")),
            strategies=(
                np.ones(7),              # wrong dimension
                np.full(4, 10.0),        # violates the budget
                np.array([-1.0, 0.0, 0.0, 0.0]),  # outside the box
            ),
        )
        result = self.solve(
            small_interval_game, small_uncertainty, warm_start=garbage
        )
        assert result.lower_bound == pytest.approx(
            baseline.lower_bound, abs=baseline.epsilon
        )
        assert result.converged

    def test_large_warm_start_respects_the_pool_cap(self, monkeypatch):
        """Warm-start strategies join the pool through its cap, so a pool
        check scans at most the cap however many arrive; the level guess
        still takes the best of all of them."""
        game = random_interval_game(8, payoff_halfwidth=0.5, seed=4)
        model = IntervalSUQR(
            game.payoffs, w1=(-4.0, -2.0), w2=(0.6, 0.9), w3=(0.3, 0.6),
            convention="tight",
        )
        options = {"num_segments": 8, "epsilon": 0.01}
        rng = np.random.default_rng(0)
        # The best strategy comes first, so the cap evicts it.
        strategies = (solve_cubis(game, model, **options).strategy,) + tuple(
            np.minimum(rng.dirichlet(np.ones(8)) * game.num_resources, 1.0)
            for _ in range(39)
        )
        scanned = collections.Counter()
        g_bar = StrategyCertificate.g_bar

        def spy(cert, c):
            if sys._getframe(1).f_code.co_name == "certificate_answer":
                scanned[c] += 1
            return g_bar(cert, c)

        monkeypatch.setattr(StrategyCertificate, "g_bar", spy)
        result = solve_cubis(
            game, model, warm_start=WarmStart(strategies=strategies), **options
        )
        assert scanned
        assert max(scanned.values()) <= _CERTIFICATE_POOL_LIMIT

        grid = SegmentGrid(8)
        skeleton = CubisMilpSkeleton(
            *step_grids(game, model, grid), game.num_resources, grid
        )
        lo, hi = game.utility_range()
        best = max(skeleton.certificate(s).guaranteed_level(lo, hi) for s in strategies)
        assert result.guess_probes == 1
        assert result.trace[2] == (best, True)

    @staticmethod
    def _spy_pool_scans(monkeypatch) -> collections.Counter:
        """Count ``g_bar`` evaluations made by the pool check, per ``c``."""
        scanned = collections.Counter()
        g_bar = StrategyCertificate.g_bar

        def spy(cert, c):
            if sys._getframe(1).f_code.co_name == "certificate_answer":
                scanned[c] += 1
            return g_bar(cert, c)

        monkeypatch.setattr(StrategyCertificate, "g_bar", spy)
        return scanned

    def test_cold_solve_scans_no_certificate(self, monkeypatch):
        """A solve's own certificates never join the pool: the lower
        bound jumps to the level each one proves, so none could answer a
        later step."""
        game = random_interval_game(30, seed=3)
        model = default_uncertainty(game.payoffs)
        scanned = self._spy_pool_scans(monkeypatch)
        result = solve_cubis(game, model, num_segments=10, epsilon=1e-3)
        assert result.iterations > 5
        assert not scanned
        assert result.cache_hits == 0

    def test_warm_solve_scans_only_its_warm_certificates(self, monkeypatch):
        game = random_interval_game(30, seed=3)
        model = default_uncertainty(game.payoffs)
        options = {"num_segments": 10, "epsilon": 1e-3}
        first = solve_cubis(game, model, **options)
        strategies = (first.strategy, game.strategy_space.uniform())
        scanned = self._spy_pool_scans(monkeypatch)
        warm = solve_cubis(
            game, BandScaledModel(model, 0.7),
            warm_start=WarmStart(strategies=strategies), **options,
        )
        assert warm.cache_hits > 0
        assert scanned
        assert max(scanned.values()) <= len(strategies)
        assert sum(scanned.values()) <= len(strategies) * warm.iterations

    def test_pool_answers_only_the_bottom_probe_and_the_level_guess(
        self, monkeypatch
    ):
        """Once those two probes lift the lower bound to the best level any
        warm certificate proves, no later candidate is theirs, so the
        pool is not rescanned; its miss counter counts only the probes
        that consulted it."""
        game = random_interval_game(30, seed=3)
        model = default_uncertainty(game.payoffs)
        options = {"num_segments": 10, "epsilon": 1e-3}
        first = solve_cubis(game, model, **options)
        strategies = (first.strategy, game.strategy_space.uniform())
        drifted = BandScaledModel(model, 0.7)
        grid = SegmentGrid(10)
        skeleton = CubisMilpSkeleton(
            *step_grids(game, drifted, grid), game.num_resources, grid
        )
        lo, hi = game.utility_range()
        level = max(
            skeleton.certificate(s).guaranteed_level(lo, hi) for s in strategies
        )
        scanned = self._spy_pool_scans(monkeypatch)
        tele = telemetry.Telemetry()
        with telemetry.use(tele):
            warm = solve_cubis(
                game, drifted, warm_start=WarmStart(strategies=strategies),
                **options,
            )
        assert warm.iterations > 5
        assert warm.cache_hits > 0
        assert scanned and set(scanned) <= {lo, level}
        counts = {m.name: m.value for m in tele.metrics if m.kind == "counter"}
        assert (counts["repro_cubis_cache_hits_total"]
                + counts.get("repro_cubis_cache_misses_total", 0)
                == len(scanned))

    def test_ladder_answers_through_the_screens_not_a_pool(self):
        """A named-backend ladder rung screens every step; its trace is
        the unscreened (memoise=False) ladder's.  Seed 2 is a game where
        a pooled in-solve certificate used to answer one step."""
        game = random_interval_game(25, seed=2)
        model = default_uncertainty(game.payoffs)
        options = dict(num_segments=10, epsilon=1e-3,
                       resilience=ResiliencePolicy())
        screened = solve_cubis(game, model, **options)
        reference = solve_cubis(game, model, memoise=False, **options)
        assert screened.cache_hits == 0
        assert screened.milp_solves == 0
        assert screened.trace == reference.trace

    def test_as_warm_start_round_trip(self, small_interval_game, small_uncertainty):
        result = self.solve(small_interval_game, small_uncertainty)
        ws = result.as_warm_start()
        assert ws.bracket == (result.lower_bound, result.upper_bound)
        np.testing.assert_array_equal(ws.strategies[0], result.strategy)

    def test_cross_game_warm_start_is_safe(self):
        """A warm start from a different game must not corrupt the result."""
        games = [random_interval_game(5, payoff_halfwidth=0.5, seed=s) for s in (11, 12)]
        uncs = [
            IntervalSUQR(g.payoffs, w1=(-4.0, -2.0), w2=(0.6, 0.9), w3=(0.3, 0.6),
                         convention="tight")
            for g in games
        ]
        cold = solve_cubis(games[1], uncs[1], num_segments=8, epsilon=0.01)
        carried = solve_cubis(games[0], uncs[0], num_segments=8, epsilon=0.01)
        warm = solve_cubis(
            games[1], uncs[1], num_segments=8, epsilon=0.01,
            warm_start=carried.as_warm_start(),
        )
        assert warm.lower_bound == pytest.approx(cold.lower_bound, abs=cold.epsilon)


class TestSessionLayer:
    """The incremental-session oracle may only change cost, never answers — and a mid-sequence backend failure must
    degrade to exactly one fresh-build retry per failing step."""

    def solve(self, game, unc, **kw):
        kw.setdefault("num_segments", 8)
        kw.setdefault("epsilon", 0.01)
        return solve_cubis(game, unc, **kw)

    def test_memoise_picks_the_pipeline(self, small_interval_game, small_uncertainty):
        memo = self.solve(small_interval_game, small_uncertainty, memoise=True)
        cold = self.solve(small_interval_game, small_uncertainty, memoise=False)
        assert memo.session_mode == "incremental"
        assert memo.session_patches > 0
        assert cold.session_mode == "fresh"
        assert cold.session_patches == 0
        # The explicit spellings of the two pipelines change nothing.
        spelled = self.solve(small_interval_game, small_uncertainty,
                             session="incremental")
        np.testing.assert_array_equal(spelled.strategy, memo.strategy)
        assert spelled.lower_bound == memo.lower_bound
        fresh = self.solve(small_interval_game, small_uncertainty,
                           memoise=False, session="fresh")
        np.testing.assert_array_equal(fresh.strategy, cold.strategy)
        assert fresh.lower_bound == cold.lower_bound

    def test_incremental_requires_milp_without_resilience(
        self, small_interval_game, small_uncertainty
    ):
        from repro.resilience import ResiliencePolicy

        with pytest.raises(ValueError, match="session='incremental'"):
            self.solve(small_interval_game, small_uncertainty,
                       session="incremental", oracle="dp")
        with pytest.raises(ValueError, match="session='incremental'"):
            self.solve(small_interval_game, small_uncertainty,
                       session="incremental", resilience=ResiliencePolicy())

    def test_invalid_session_and_speculation_rejected(
        self, small_interval_game, small_uncertainty
    ):
        for bad in ("sticky", "auto"):
            with pytest.raises(ValueError, match="session"):
                self.solve(small_interval_game, small_uncertainty, session=bad)
        with pytest.raises(ValueError, match="session='fresh' requires memoise=False"):
            self.solve(small_interval_game, small_uncertainty,
                       memoise=True, session="fresh")
        with pytest.raises(ValueError, match="session='incremental'"):
            self.solve(small_interval_game, small_uncertainty,
                       memoise=False, session="incremental")
        for bad in (0, -3, 2):
            with pytest.raises(ValueError, match="speculation"):
                self.solve(small_interval_game, small_uncertainty, speculation=bad)

    def test_session_object_rejected(self, small_interval_game, small_uncertainty):
        # A session lives only inside the solve that creates it; none can
        # be leased in from outside.
        from repro.solvers.session import MilpSession

        skeleton = CubisMilpSkeleton(
            *step_grids(small_interval_game, small_uncertainty, SegmentGrid(8)),
            small_interval_game.num_resources, SegmentGrid(8),
        )
        with pytest.raises(ValueError, match="session must be"):
            self.solve(small_interval_game, small_uncertainty,
                       session=MilpSession(skeleton))

    def test_bnb_session_matches_highs_session(
        self, small_interval_game, small_uncertainty
    ):
        highs = self.solve(small_interval_game, small_uncertainty,
                           session="incremental", backend="highs")
        bnb = self.solve(small_interval_game, small_uncertainty,
                         session="incremental", backend="bnb")
        assert bnb.lower_bound == pytest.approx(highs.lower_bound, abs=1e-6)
        assert bnb.session_mode == "incremental"


class TestSessionFailureSemantics:
    """A backend error mid-sequence must trigger a fresh-build fallback
    exactly once for that step, surface as a ``resilience.attempt``
    event, and leave the answer identical to an unfailing run.  Callable
    backends take the default pipeline (session, fallback) but skip the
    hull and LP screens, so every backend call is a MILP solve."""

    def _flaky_backend(self, fail_on_call=None):
        from repro.solvers.milp_backend import solve_milp

        calls = {"n": 0}

        def flaky(problem, **options):
            calls["n"] += 1
            if calls["n"] == fail_on_call:
                raise RuntimeError("injected backend failure")
            return solve_milp(problem, backend="highs", **options)

        return flaky, calls

    def test_fallback_exactly_once_and_answer_unchanged(
        self, small_interval_game, small_uncertainty
    ):
        from repro import telemetry

        steady, _ = self._flaky_backend()
        ref = solve_cubis(small_interval_game, small_uncertainty,
                          num_segments=8, epsilon=0.01, backend=steady)
        flaky, calls = self._flaky_backend(fail_on_call=4)
        counters = {
            "milp_solves": "repro_cubis_milp_solves_total",
            "lp_solves": "repro_cubis_lp_screens_total",
            "session_fallbacks": "repro_session_fallbacks_total",
        }
        tele = telemetry.Telemetry()
        with telemetry.use(tele):
            # A memoised solve first, so the counters enter the flaky
            # solve nonzero and only per-solve deltas can match.
            solve_cubis(small_interval_game, small_uncertainty,
                        num_segments=8, epsilon=0.01)
            before = {field: tele.metrics.counter(name).value
                      for field, name in counters.items()}
            assert before["milp_solves"] + before["lp_solves"] > 0
            result = solve_cubis(small_interval_game, small_uncertainty,
                                 num_segments=8, epsilon=0.01, backend=flaky)

        # Exactly one fallback: the failing step was re-solved from a
        # fresh build once, every other step stayed incremental.
        assert result.session_mode == "incremental"
        assert result.session_fallbacks == 1
        assert result.lp_solves == 0
        assert calls["n"] == result.milp_solves
        assert result.milp_solves == ref.milp_solves + 1
        for field, name in counters.items():
            delta = tele.metrics.counter(name).value - before[field]
            assert getattr(result, field) == delta, field
        np.testing.assert_array_equal(result.strategy, ref.strategy)
        assert result.lower_bound == ref.lower_bound
        assert result.upper_bound == ref.upper_bound

        attempts = [r for r in tele.spans if r.name == "resilience.attempt"]
        errors = [r for r in attempts if r.attributes["outcome"] == "error"]
        assert len(errors) == 1
        assert "injected backend failure" in errors[0].attributes["message"]
        fallback_counters = [m for m in tele.metrics
                             if m.name == "repro_session_fallbacks_total"]
        assert sum(m.value for m in fallback_counters) == 1

    def test_persistent_failure_propagates_like_non_session_path(
        self, small_interval_game, small_uncertainty
    ):
        def broken(problem, **options):
            raise RuntimeError("backend is down")

        with pytest.raises(RuntimeError, match="backend is down"):
            solve_cubis(small_interval_game, small_uncertainty,
                        num_segments=8, epsilon=0.01, backend=broken)
