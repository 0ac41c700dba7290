"""Tests for repro.solvers.fleet — shape cache, solve_fleet."""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.core.cubis import solve_cubis
from repro.experiments.quality import default_uncertainty
from repro.game.generator import random_interval_game
from repro.solvers.fleet import (
    SkeletonShapeCache,
    active_shape_cache,
    process_shape_cache,
    solve_fleet,
    use_shape_cache,
)
from tests.test_core_milp import assert_models_identical, small_data


def make_fleet(num_games=4, num_targets=5, seed=2016):
    games = [
        random_interval_game(num_targets, seed=seed + i)
        for i in range(num_games)
    ]
    models = [default_uncertainty(g.payoffs) for g in games]
    return games, models


SOLVE = {"num_segments": 5, "epsilon": 0.05}


def assert_results_identical(a, b):
    """Bit-identical comparison of two CubisResults."""
    np.testing.assert_array_equal(a.strategy, b.strategy)
    assert a.worst_case_value == b.worst_case_value
    assert a.lower_bound == b.lower_bound
    assert a.upper_bound == b.upper_bound
    assert a.iterations == b.iterations
    assert a.oracle_calls == b.oracle_calls
    assert a.converged == b.converged


class TestSkeletonShapeCache:
    def test_miss_then_hit(self):
        ud, lo, hi, grid, *_ = small_data()
        cache = SkeletonShapeCache()
        proto = cache.lease(ud, lo, hi, 1.0, grid)
        view = cache.lease(ud * 2, lo, hi, 1.0, grid)
        assert cache.stats() == {
            "shapes": 1, "capacity": 8, "hits": 1, "misses": 1, "evictions": 0,
        }
        assert view.shares_structure(proto)

    def test_leased_view_tabulates_like_fresh_build(self):
        ud, lo, hi, grid, *_ = small_data()
        cache = SkeletonShapeCache()
        cache.lease(ud, lo, hi, 1.0, grid)
        view = cache.lease(ud * 1.5, lo * 1.1, hi * 1.2, 1.0, grid)
        from repro.core.milp import build_cubis_milp

        assert_models_identical(
            view.patch(0.5),
            build_cubis_milp(ud * 1.5, lo * 1.1, hi * 1.2, 1.0, 0.5, grid),
        )

    def test_distinct_shapes_get_distinct_prototypes(self):
        ud, lo, hi, grid, *_ = small_data(k=5)
        ud7, lo7, hi7, grid7, *_ = small_data(k=7)
        cache = SkeletonShapeCache()
        a = cache.lease(ud, lo, hi, 1.0, grid)
        b = cache.lease(ud7, lo7, hi7, 1.0, grid7)
        assert not b.shares_structure(a)
        assert cache.stats()["misses"] == 2
        assert len(cache) == 2

    def test_resources_and_equality_key_the_shape(self):
        ud, lo, hi, grid, *_ = small_data()
        cache = SkeletonShapeCache()
        cache.lease(ud, lo, hi, 1.0, grid)
        cache.lease(ud, lo, hi, 2.0, grid)
        cache.lease(ud, lo, hi, 1.0, grid, equality_resources=True)
        assert cache.stats()["misses"] == 3

    def test_lru_eviction(self):
        ud, lo, hi, grid, *_ = small_data()
        cache = SkeletonShapeCache(capacity=2)
        cache.lease(ud, lo, hi, 1.0, grid)
        cache.lease(ud, lo, hi, 2.0, grid)
        cache.lease(ud, lo, hi, 3.0, grid)  # evicts R=1.0
        assert cache.stats()["evictions"] == 1
        cache.lease(ud, lo, hi, 1.0, grid)  # miss again
        assert cache.stats()["misses"] == 4
        assert cache.stats()["hits"] == 0

    def test_capacity_validation(self):
        with pytest.raises(ValueError, match="capacity"):
            SkeletonShapeCache(capacity=0)

    def test_telemetry_counters_ticked(self):
        ud, lo, hi, grid, *_ = small_data()
        tele = telemetry.Telemetry()
        cache = SkeletonShapeCache()
        with telemetry.use(tele):
            cache.lease(ud, lo, hi, 1.0, grid)
            cache.lease(ud * 2, lo, hi, 1.0, grid)
            cache.lease(ud * 3, lo, hi, 1.0, grid)
        hits = tele.metrics.counter("repro_skeleton_shape_hits_total")
        misses = tele.metrics.counter("repro_skeleton_shape_misses_total")
        assert hits.value == 2
        assert misses.value == 1


class TestUseShapeCache:
    def test_context_activation_and_reset(self):
        assert active_shape_cache() is None
        with use_shape_cache() as cache:
            assert active_shape_cache() is cache
            inner = SkeletonShapeCache(capacity=2)
            with use_shape_cache(inner):
                assert active_shape_cache() is inner
            assert active_shape_cache() is cache
        assert active_shape_cache() is None

    def test_threads_do_not_inherit_the_cache(self):
        seen = []
        with use_shape_cache():
            thread = threading.Thread(
                target=lambda: seen.append(active_shape_cache())
            )
            thread.start()
            thread.join()
        assert seen == [None]

    def test_process_cache_is_a_singleton(self):
        assert process_shape_cache() is process_shape_cache()

    def test_solve_cubis_leases_from_active_cache(self):
        games, models = make_fleet(3)
        cache = SkeletonShapeCache()
        with use_shape_cache(cache):
            results = [
                solve_cubis(g, m, **SOLVE) for g, m in zip(games, models)
            ]
        stats = cache.stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 2
        # Cached-structure solves equal fresh-structure solves bit for bit.
        for game, model, shared in zip(games, models, results):
            assert_results_identical(
                shared, solve_cubis(game, model, **SOLVE)
            )


class TestSolveFleetMilp:
    def test_without_continuation_matches_independent_solves(self):
        # The fleet leases every game's skeleton from one shape cache;
        # each independent solve assembles its own.
        games, models = make_fleet(4)
        fleet = solve_fleet(games, models, continuation=False, **SOLVE)
        for game, model, got in zip(games, models, fleet):
            want = solve_cubis(game, model, session="incremental", **SOLVE)
            assert_results_identical(got, want)
        assert fleet.shape_stats["hits"] == 3

    def test_share_axis_is_bit_identical(self):
        # Every fleet shares skeletons through its cache; leasing them
        # from a cache another fleet already populated changes only cost.
        games, models = make_fleet(4)
        warm = SkeletonShapeCache()
        solve_fleet(*make_fleet(4, seed=7), cache=warm, **SOLVE)
        fresh = solve_fleet(games, models, **SOLVE)
        leased = solve_fleet(games, models, cache=warm, **SOLVE)
        for a, b in zip(fresh, leased):
            assert_results_identical(a, b)
        assert fresh.shape_stats["hits"] == 3
        assert fresh.shape_stats["misses"] == 1
        assert leased.shape_stats["hits"] == 7
        assert leased.shape_stats["misses"] == 1

    def test_structure_is_assembled_once_per_shape(self, monkeypatch):
        import repro.core.cubis as cubis_mod
        from repro.core.milp import CubisMilpSkeleton

        patched = []
        original_patch = CubisMilpSkeleton.patch

        def patch_spy(self, c):
            patched.append(self)
            return original_patch(self, c)

        per_game = []
        original = cubis_mod.solve_cubis

        def solve_spy(*args, **kwargs):
            before = len(patched)
            result = original(*args, **kwargs)
            per_game.append((result, patched[before:]))
            return result

        monkeypatch.setattr(CubisMilpSkeleton, "patch", patch_spy)
        monkeypatch.setattr(cubis_mod, "solve_cubis", solve_spy)
        games, models = make_fleet(5)
        fleet = solve_fleet(games, models, **SOLVE)
        assert fleet.shape_stats["misses"] == 1
        assert fleet.shape_stats["hits"] == 4
        # Every game's solve patches a skeleton leased from the one
        # assembly, one fresh model per LP screen (a MILP fall-through
        # solves its LP screen's model), and nothing carries a model to
        # the next game.
        assert [r for r, _ in per_game] == list(fleet.results)
        proto = next(skeletons[0] for _, skeletons in per_game if skeletons)
        for result, skeletons in per_game:
            assert len(skeletons) == result.lp_solves
            for skeleton in skeletons:
                assert skeleton.shares_structure(proto)

    def test_mixed_shapes_in_one_fleet(self):
        games4, models4 = make_fleet(2, num_targets=4)
        games6, models6 = make_fleet(2, num_targets=6, seed=77)
        fleet = solve_fleet(
            games4 + games6, models4 + models6, **SOLVE
        )
        assert fleet.shape_stats["misses"] == 2
        assert fleet.shape_stats["hits"] == 2
        assert len(fleet) == 4

    def test_length_mismatch_rejected(self):
        games, models = make_fleet(2)
        with pytest.raises(ValueError, match="uncertainty models"):
            solve_fleet(games, models[:1], **SOLVE)

    @pytest.mark.parametrize("oracle", ["milp", "dp"])
    def test_empty_fleet_returns_empty_result(self, oracle):
        fleet = solve_fleet([], [], oracle=oracle, **SOLVE)
        assert len(fleet) == 0
        assert fleet.results == ()
        assert fleet.oracle == oracle

    def test_unknown_oracle_rejected(self):
        games, models = make_fleet(1)
        with pytest.raises(ValueError, match="oracle"):
            solve_fleet(games, models, oracle="cplex", **SOLVE)

    @pytest.mark.parametrize("owned", ["session", "warm_start"])
    def test_owned_kwargs_rejected(self, owned):
        games, models = make_fleet(1)
        with pytest.raises(TypeError, match=owned):
            solve_fleet(games, models, **{owned: None}, **SOLVE)

    def test_fleet_span_and_counters(self):
        games, models = make_fleet(3)
        tele = telemetry.Telemetry()
        with telemetry.use(tele):
            solve_fleet(games, models, **SOLVE)
        span = next(s for s in tele.spans if s.name == "fleet.solve")
        assert span.attributes["games"] == 3
        assert span.attributes["oracle"] == "milp"
        assert span.attributes["shape_hits"] == 2
        assert span.attributes["shape_misses"] == 1
        assert tele.metrics.counter(
            "repro_skeleton_shape_hits_total"
        ).value == 2

    def test_totals_sums_per_game_counters(self):
        games, models = make_fleet(2)
        fleet = solve_fleet(games, models, **SOLVE)
        totals = fleet.totals()
        assert totals["oracle_calls"] == sum(
            r.oracle_calls for r in fleet.results
        )
        assert totals["milp_solves"] == sum(
            r.milp_solves for r in fleet.results
        )
        assert totals["oracle_calls"] >= 1

    def test_continuation_converges_to_theorem_bound(self):
        # Continuation changes the probe schedule, not the guarantee:
        # every game's robust value still lands within Theorem 1 slack
        # of its independent solve.
        games, models = make_fleet(4)
        fleet = solve_fleet(games, models, continuation=True, **SOLVE)
        for game, model, got in zip(games, models, fleet):
            want = solve_cubis(game, model, **SOLVE)
            assert got.converged
            assert got.worst_case_value == pytest.approx(
                want.worst_case_value, abs=2 * SOLVE["epsilon"] + 1.0
            )


    def test_continuation_costs_no_more_calls_than_independent_solves(self):
        """Eight independent T=50 games: a neighbour's bracket and
        strategy are probed, never trusted, and a bracket the certified
        level has passed starts a gallop only then, so carrying them
        costs no oracle calls overall."""
        games, models = make_fleet(8, num_targets=50, seed=0)
        options = {"num_segments": 10, "epsilon": 1e-3}
        carried = solve_fleet(games, models, continuation=True, **options)
        independent = solve_fleet(games, models, continuation=False, **options)
        assert (carried.totals()["oracle_calls"]
                <= independent.totals()["oracle_calls"])


class TestSolveFleetDp:
    def test_matches_independent_dp_solves(self):
        games, models = make_fleet(3)
        fleet = solve_fleet(games, models, oracle="dp", **SOLVE)
        for game, model, got in zip(games, models, fleet):
            want = solve_cubis(game, model, oracle="dp", **SOLVE)
            assert_results_identical(got, want)

    def test_dp_metrics_absorbed_in_game_order(self):
        # Distinct sizes, so each cubis.solve span names its game.
        games = [
            random_interval_game(t, seed=2016 + t) for t in (6, 4, 5)
        ]
        models = [default_uncertainty(g.payoffs) for g in games]
        tele = telemetry.Telemetry()
        with telemetry.use(tele):
            fleet = solve_fleet(games, models, oracle="dp", **SOLVE)
        # Every oracle call is one grid hull screen; the kernel runs only
        # for fall-through steps plus one final re-solve per game.
        hull = tele.metrics.histogram("repro_oracle_seconds", kind="hull")
        assert hull.count == sum(r.oracle_calls for r in fleet.results)
        assert hull.count == sum(r.hull_screens for r in fleet.results)
        fallthrough = tele.metrics.counter(
            "repro_cubis_hull_screens_total", verdict="fallthrough"
        ).value
        dp = tele.metrics.histogram("repro_oracle_seconds", kind="dp")
        assert fallthrough <= dp.count <= fallthrough + len(games)
        # The fleet's counts are the per-game solves' own, game by game.
        solo_dp = 0
        for game, model, got in zip(games, models, fleet):
            alone = telemetry.Telemetry()
            with telemetry.use(alone):
                solve_cubis(game, model, oracle="dp", **SOLVE)
            solo = alone.metrics.histogram
            assert solo("repro_oracle_seconds", kind="hull").count == (
                got.oracle_calls
            )
            solo_dp += solo("repro_oracle_seconds", kind="dp").count
        assert dp.count == solo_dp
        # Each game is traced: one cubis.solve span per game, directly
        # under fleet.solve, in game order.
        root = next(s for s in tele.spans if s.name == "fleet.solve")
        solves = sorted(
            (s for s in tele.spans if s.name == "cubis.solve"),
            key=lambda s: s.span_id,
        )
        assert [s.parent_id for s in solves] == [root.span_id] * len(games)
        assert [s.attributes["targets"] for s in solves] == [
            g.num_targets for g in games
        ]

    def test_dp_failure_propagates(self):
        games, models = make_fleet(2)
        with pytest.raises(ValueError):
            solve_fleet(
                games, models, oracle="dp", num_segments=5, epsilon=-1.0
            )


class TestFleetPropertyBitIdentity:
    @given(st.integers(0, 10**6))
    @settings(max_examples=5, deadline=None)
    def test_share_and_session_lease_never_change_answers(self, seed):
        game = random_interval_game(4, seed=seed)
        model = default_uncertainty(game.payoffs)
        fleet = solve_fleet(
            [game, game], [model, model], continuation=False, **SOLVE
        )
        want = solve_cubis(game, model, session="incremental", **SOLVE)
        for got in fleet:
            assert_results_identical(got, want)
