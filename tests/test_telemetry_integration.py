"""End-to-end telemetry tests: the solve pipeline traced under a live
context, counter/result-field agreement, and parallel sweep merges."""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import telemetry
from repro.analysis.sweep import run_grid
from repro.behavior import BandScaledModel, estimated_drift_sequence
from repro.behavior.interval import IntervalSUQR
from repro.core.cubis import solve_cubis
from repro.experiments.quality import default_uncertainty
from repro.game.generator import random_interval_game, table1_game
from repro.solvers.resolve import resolve, start_resolve
from repro.telemetry import Telemetry


def _table1_inputs():
    game = table1_game()
    uncertainty = IntervalSUQR(
        game.payoffs, w1=(-6.0, -2.0), w2=(0.5, 1.0), w3=(0.4, 0.9)
    )
    return game, uncertainty


def _telemetry_trial(rng, trial_index, *, num_targets):
    """Module-level (picklable) sweep trial that solves a small game and
    records deterministic values into a custom histogram."""
    game = random_interval_game(num_targets, seed=rng)
    uncertainty = IntervalSUQR(
        game.payoffs, w1=(-4.0, -2.0), w2=(0.6, 0.9), w3=(0.3, 0.6)
    )
    result = solve_cubis(game, uncertainty, num_segments=6, epsilon=0.05)
    # Deterministic observations (not timings): bit-identical across any
    # workers setting.
    telemetry.histogram(
        "test_trial_values", buckets=(1.0, 2.0, 4.0)
    ).observe(trial_index)
    yield {"worst_case": result.worst_case_value,
           "oracle_calls": result.oracle_calls}


class TestSolveTracing:
    @pytest.fixture(scope="class")
    def traced(self):
        tele = Telemetry()
        game, uncertainty = _table1_inputs()
        with telemetry.use(tele):
            result = solve_cubis(game, uncertainty, num_segments=10,
                                 epsilon=1e-3)
        return tele, result

    def test_root_span_is_cubis_solve(self, traced):
        tele, result = traced
        roots = [r for r in tele.spans if r.parent_id is None]
        assert [r.name for r in roots] == ["cubis.solve"]
        root = roots[0]
        assert root.attributes["targets"] == 2
        assert root.attributes["iterations"] == result.iterations
        assert root.attributes["milp_solves"] == result.milp_solves
        assert root.attributes["worst_case_value"] == result.worst_case_value

    def test_step_spans_cover_every_oracle_call(self, traced):
        tele, result = traced
        steps = [r for r in tele.spans if r.name == "binary_search.step"]
        assert len(steps) == result.oracle_calls
        for step in steps:
            assert "c" in step.attributes
            assert isinstance(step.attributes["feasible"], bool)

    def test_oracle_spans_attribute_kind(self, traced):
        tele, _ = traced
        solves = [r for r in tele.spans
                  if r.name in ("milp.solve", "dp.solve")]
        assert solves
        for r in solves:
            kind = r.attributes["kind"]
            assert kind == "dp" or kind.split(":")[0] in ("milp", "lp")

    def test_oracle_seconds_histogram_recorded(self, traced):
        tele, _ = traced
        series = [m for m in tele.metrics
                  if m.name == "repro_oracle_seconds"]
        assert series
        solves = [r for r in tele.spans
                  if r.name in ("milp.solve", "dp.solve", "cubis.hull_screen")]
        assert sum(h.count for h in series) == len(solves)

    def test_counters_match_result_fields(self):
        # Fresh context: the registry holds exactly this solve's counts.
        tele = Telemetry()
        game, uncertainty = _table1_inputs()
        with telemetry.use(tele):
            result = solve_cubis(game, uncertainty, num_segments=10,
                                 epsilon=1e-3)
        counts = {m.name: m.value for m in tele.metrics
                  if m.kind == "counter"}
        assert counts["repro_cubis_milp_solves_total"] == result.milp_solves
        assert counts.get("repro_cubis_lp_screens_total", 0) == result.lp_solves
        assert counts.get("repro_cubis_cache_hits_total", 0) == result.cache_hits

    def test_result_fields_survive_disabled_telemetry(self):
        # The DISABLED fallback's registry is shared process-wide; each
        # solve counts on its own registry, so its fields are correct
        # without any context active.
        game, uncertainty = _table1_inputs()
        r1 = solve_cubis(game, uncertainty, num_segments=10, epsilon=1e-3)
        r2 = solve_cubis(game, uncertainty, num_segments=10, epsilon=1e-3)
        assert r1.milp_solves == r2.milp_solves
        assert r1.oracle_calls == r2.oracle_calls


class TestSearchPhases:
    """Every ``binary_search.step`` span names the phase that chose its
    candidate; only a warm start whose bracket the certified level has
    passed gallops."""

    @staticmethod
    def step_phases(tele) -> list:
        return [s.attributes["phase"] for s in tele.spans
                if s.name == "binary_search.step"]

    def test_shrink_resolve_gallops_and_cold_solve_does_not(self):
        game = random_interval_game(50, seed=0)
        truth = default_uncertainty(game.payoffs).midpoint_model()
        coverage = np.full((1, 50), game.num_resources / 50)
        estimate = estimated_drift_sequence(truth, coverage, [200], seed=0)[0]
        cold_tele, shrink_tele = Telemetry(), Telemetry()
        with telemetry.use(cold_tele):
            handle = start_resolve(
                game, estimate.model, num_segments=10, epsilon=1e-3
            )
        cold_calls = handle.result.iterations
        with telemetry.use(shrink_tele):
            outcome = resolve(handle, BandScaledModel(estimate.model, 0.8))
        assert outcome.drift.kind == "shrink"

        cold = self.step_phases(cold_tele)
        assert len(cold) == cold_calls
        assert "gallop" not in cold
        assert set(cold) <= {"endpoint", "bisect"}
        shrink = self.step_phases(shrink_tele)
        assert len(shrink) == outcome.result.iterations
        assert "gallop" in shrink
        assert shrink[:2] == ["endpoint", "endpoint"]
        assert set(shrink) <= {"endpoint", "guess", "gallop", "bisect"}


_COUNT_FIELDS = ("milp_solves", "lp_solves", "hull_screens", "cache_hits")


def _counts(result) -> tuple:
    return tuple(getattr(result, field) for field in _COUNT_FIELDS)


def _drifting_solves(seed: int) -> list:
    """A cold T=30 solve, then one warm-started from it on a narrower
    band, so every count field (cache hits included) is exercised."""
    game = random_interval_game(30, seed=seed)
    wide = default_uncertainty(game.payoffs)
    narrow = BandScaledModel(wide, 0.7)
    options = {"num_segments": 10, "epsilon": 1e-3}
    cold = solve_cubis(game, wide, **options)
    warm = solve_cubis(game, narrow, warm_start=cold.as_warm_start(), **options)
    return [cold, warm]


class TestPerSolveCounters:
    """A solve's count fields are its own work, whatever else runs, and
    the active registry receives exactly those counts."""

    def test_concurrent_solves_report_their_own_counts(self):
        seeds = range(4)
        sequential = {seed: [_counts(r) for r in _drifting_solves(seed)]
                      for seed in seeds}
        assert any(c[3] > 0 for runs in sequential.values() for c in runs)
        start = threading.Barrier(len(seeds))

        def run(seed):
            start.wait(timeout=60)
            return [[_counts(r) for r in _drifting_solves(seed)]
                    for _ in range(3)]

        # No telemetry context: every thread shares the DISABLED registry.
        # A short switch interval interleaves the solves step by step.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=len(seeds)) as pool:
                concurrent = dict(zip(seeds, pool.map(run, seeds, timeout=300)))
        finally:
            sys.setswitchinterval(interval)
        for seed in seeds:
            for repeat in concurrent[seed]:
                assert repeat == sequential[seed], seed

    def test_registry_totals_equal_result_sums_after_a_raise(
        self, small_interval_game, small_uncertainty
    ):
        from repro.solvers.milp_backend import solve_milp

        calls = {"n": 0}

        def failing_from_third_call(problem, **options):
            calls["n"] += 1
            if calls["n"] >= 3:
                raise RuntimeError("backend is down")
            return solve_milp(problem, backend="highs", **options)

        game, uncertainty = _table1_inputs()
        tele = Telemetry()
        results = []
        with telemetry.use(tele):
            results += _drifting_solves(0)
            with pytest.raises(RuntimeError, match="backend is down"):
                solve_cubis(small_interval_game, small_uncertainty,
                            num_segments=8, epsilon=0.01,
                            backend=failing_from_third_call)
            results.append(solve_cubis(game, uncertainty, num_segments=10,
                                       epsilon=1e-3))

        def total(name):
            return sum(m.value for m in tele.metrics if m.name == name)

        def summed(field):
            return sum(getattr(r, field) for r in results)

        # The raising solve reached the MILP on every backend call (a
        # callable backend skips the screens) and fell back once.
        assert total("repro_cubis_milp_solves_total") == (
            summed("milp_solves") + calls["n"]
        )
        assert total("repro_session_fallbacks_total") == 1
        assert total("repro_cubis_lp_screens_total") == summed("lp_solves")
        assert total("repro_cubis_hull_screens_total") == summed("hull_screens")
        assert total("repro_cubis_cache_hits_total") == summed("cache_hits")
        assert summed("cache_hits") > 0


class TestSweepMerging:
    GRID = [{"num_targets": 3}, {"num_targets": 4}]

    def _run(self, workers):
        tele = Telemetry()
        with telemetry.use(tele):
            table = run_grid(_telemetry_trial, self.GRID, num_trials=2,
                             seed=123, workers=workers)
        return tele, table

    @staticmethod
    def _skeleton(tele):
        """Span tree minus timings and the ``workers`` attribute (both
        legitimately vary across workers settings)."""
        return [
            (r.span_id, r.parent_id, r.name, r.depth, r.status,
             tuple(sorted((k, v) for k, v in r.attributes.items()
                          if k != "workers"
                          and (not isinstance(v, float) or k == "c"))))
            for r in tele.spans
        ]

    def test_serial_and_pooled_span_trees_identical(self):
        tele1, table1 = self._run(workers=1)
        tele4, table4 = self._run(workers=4)
        assert table1.rows == table4.rows
        assert self._skeleton(tele1) == self._skeleton(tele4)

    def test_trial_spans_nested_under_run_grid(self):
        tele, _ = self._run(workers=1)
        by_name = {}
        for r in tele.spans:
            by_name.setdefault(r.name, []).append(r)
        (grid,) = by_name["sweep.run_grid"]
        trials = by_name["sweep.trial"]
        assert len(trials) == 4  # 2 cells x 2 trials
        assert all(t.parent_id == grid.span_id for t in trials)
        assert [(t.attributes["cell"], t.attributes["trial"])
                for t in trials] == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_histogram_merge_bit_identical_across_workers(self):
        def hist_snapshot(tele):
            (h,) = [m for m in tele.metrics if m.name == "test_trial_values"]
            return h.snapshot()

        tele1, _ = self._run(workers=1)
        tele4, _ = self._run(workers=4)
        assert hist_snapshot(tele1) == hist_snapshot(tele4)

    def test_counters_merge_across_workers(self):
        # These small games resolve through the LP screen, so the LP
        # counter is the one guaranteed to move.
        tele1, _ = self._run(workers=1)
        tele4, _ = self._run(workers=4)
        def lp_total(tele):
            return sum(m.value for m in tele.metrics
                       if m.name == "repro_cubis_lp_screens_total")
        assert lp_total(tele1) == lp_total(tele4) > 0

    def test_disabled_context_skips_trial_capture(self):
        table = run_grid(_telemetry_trial, self.GRID, num_trials=1, seed=9)
        assert len(table.rows) == 2  # no context: results only, no spans


class TestResilienceEmission:
    def test_event_log_emits_through_telemetry(self):
        from repro.resilience.events import SolveEventLog, StepEvent

        tele = Telemetry()
        log = SolveEventLog()
        with telemetry.use(tele):
            log.record(StepEvent(step=1, c=0.5, rung=0, oracle="milp",
                                 backend="highs", attempt=1, outcome="ok",
                                 feasible=True, wall_seconds=0.01))
            log.record(StepEvent(step=1, c=0.5, rung=1, oracle="dp",
                                 backend=None, attempt=1, outcome="error",
                                 feasible=None, wall_seconds=0.02,
                                 message="boom"))
        attempts = [r for r in tele.spans if r.name == "resilience.attempt"]
        assert len(attempts) == 2
        assert attempts[0].attributes["outcome"] == "ok"
        assert attempts[1].attributes["message"] == "boom"
        counts = {tuple(m.labels): m.value for m in tele.metrics
                  if m.name == "repro_resilience_attempts_total"}
        assert counts[(("outcome", "ok"),)] == 1
        assert counts[(("outcome", "error"),)] == 1
        # The public API is unchanged: the log still holds the events.
        assert len(log) == 2 and len(log.failures()) == 1
