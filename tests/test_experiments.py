"""Smoke + semantics tests for the experiment drivers (tiny parameters).

Each experiment must run end-to-end, produce the schema its formatter
expects, and exhibit the qualitative shape claimed in DESIGN.md §2.
"""

import numpy as np
import pytest

from repro.experiments import (
    PAPER_REFERENCE,
    format_ablation,
    format_intervals,
    format_quality,
    format_runtime,
    format_table1,
    run_ablation_epsilon,
    run_ablation_k,
    run_intervals,
    run_quality,
    run_runtime,
    run_table1,
)


class TestTable1:
    """Table I pinned through the golden-fixture registry: the fixture
    carries the instance definition, the expected numbers, and their
    tolerances; this class only supplies the measurement and the paper
    cross-reference."""

    @pytest.fixture(scope="class")
    def fixture(self):
        from repro.verify import load_all_fixtures

        return next(f for f in load_all_fixtures() if f.name == "table1")

    @pytest.fixture(scope="class")
    def result(self, fixture):
        return run_table1(
            num_segments=fixture.solve["num_segments"],
            epsilon=fixture.solve["epsilon"],
        )

    def test_golden_fixture_pins_result(self, fixture, result):
        from repro.verify import check_fixture

        report = check_fixture(fixture, measured={
            "robust_strategy": list(result.robust_strategy),
            "robust_worst_case": result.robust_worst_case,
            "midpoint_strategy": list(result.midpoint_strategy),
            "midpoint_worst_case": result.midpoint_worst_case,
        })
        assert report.passed, report.summary()

    def test_golden_values_close_to_paper(self, fixture):
        """The pinned numbers themselves track the paper's Table I (the
        looser tolerances here are the documented reproduction gap; the
        fixture's own atol only guards against solver drift)."""
        expected = fixture.expected
        np.testing.assert_allclose(
            expected["robust_strategy"]["value"],
            PAPER_REFERENCE.robust_strategy, atol=0.02,
        )
        assert expected["robust_worst_case"]["value"] == pytest.approx(
            PAPER_REFERENCE.robust_worst_case, abs=0.05
        )
        np.testing.assert_allclose(
            expected["midpoint_strategy"]["value"],
            PAPER_REFERENCE.midpoint_strategy, atol=0.04,
        )
        assert expected["midpoint_worst_case"]["value"] == pytest.approx(
            PAPER_REFERENCE.midpoint_worst_case, abs=0.3
        )

    def test_robust_beats_midpoint(self, result):
        assert result.robust_worst_case > result.midpoint_worst_case + 0.5

    def test_formatter(self, result):
        out = format_table1(result)
        assert "Table I" in out and "robust" in out and "midpoint" in out


class TestQuality:
    @pytest.fixture(scope="class")
    def table(self):
        return run_quality(
            target_counts=(4, 6), num_trials=2, num_segments=8, epsilon=0.05,
            num_types=3, seed=7,
        )

    def test_record_count(self, table):
        assert len(table) == 2 * 2 * 5  # sizes * trials * algorithms

    def test_cubis_tops_midpoint_and_uniform(self, table):
        for size in (4, 6):
            sub = table.where(num_targets=size)
            means = {
                name: np.mean(sub.where(algorithm=name).column("worst_case"))
                for name in ("cubis", "midpoint", "uniform")
            }
            assert means["cubis"] >= means["midpoint"] - 0.05
            assert means["cubis"] >= means["uniform"] - 0.05

    def test_formatter(self, table):
        out = format_quality(table)
        assert "F1" in out and "cubis" in out


class TestRuntime:
    @pytest.fixture(scope="class")
    def table(self):
        return run_runtime(
            target_counts=(4,), num_trials=1, num_segments=6, epsilon=0.05,
            num_starts=3, seed=7,
        )

    def test_records(self, table):
        assert len(table) == 2
        assert set(table.column("algorithm").tolist()) == {"cubis", "multistart"}

    def test_times_positive(self, table):
        assert np.all(table.column("seconds") > 0)

    def test_formatter(self, table):
        out = format_runtime(table)
        assert "F2a" in out and "F2b" in out

    def test_game_and_solver_streams_decoupled(self, monkeypatch):
        """Regression: the trial used to feed one shared generator into
        both the game draw and the multistart solver, correlating the
        solver's starting points with the game's payoffs."""
        from repro.experiments import runtime as runtime_mod

        captured = {}
        real_game, real_exact = runtime_mod.random_interval_game, runtime_mod.solve_exact

        def fake_game(num_targets, seed=None):
            captured["game"] = seed
            return real_game(num_targets, seed=1)

        def fake_exact(game, uncertainty, num_starts, seed):
            captured["solver"] = seed
            return real_exact(game, uncertainty, num_starts=1, seed=0)

        monkeypatch.setattr(runtime_mod, "random_interval_game", fake_game)
        monkeypatch.setattr(runtime_mod, "solve_exact", fake_exact)
        rng = np.random.default_rng(5)
        list(
            runtime_mod._trial(
                rng, 0, num_targets=4, num_segments=6, epsilon=0.1, num_starts=3
            )
        )
        assert captured["game"] is not captured["solver"]
        # Spawned children, not the shared parent stream.
        assert captured["game"] is not rng and captured["solver"] is not rng


class TestIntervals:
    @pytest.fixture(scope="class")
    def table(self):
        return run_intervals(
            scales=(0.0, 1.0), num_targets=4, num_trials=2, num_segments=8,
            epsilon=0.05, seed=7,
        )

    def test_records(self, table):
        assert len(table) == 2 * 2 * 2

    def test_gap_grows_with_uncertainty(self, table):
        """The robust-vs-midpoint worst-case gap widens as boxes widen."""
        def gap(scale):
            sub = table.where(scale=scale)
            c = np.mean(sub.where(algorithm="cubis").column("worst_case"))
            m = np.mean(sub.where(algorithm="midpoint").column("worst_case"))
            return c - m

        assert gap(1.0) >= gap(0.0) - 0.1

    def test_formatter(self, table):
        out = format_intervals(table)
        assert "F3" in out and "gap" in out


class TestAblation:
    @pytest.fixture(scope="class")
    def table_k(self):
        return run_ablation_k(
            segment_counts=(2, 12), num_targets=3, num_trials=2, seed=7
        )

    def test_gap_shrinks_with_k(self, table_k):
        means = table_k.group_mean("num_segments", "gap")
        assert means[12] <= means[2] + 0.02

    def test_measured_below_certified(self, table_k):
        for row in table_k.rows:
            assert row["gap"] <= row["certified"] + 1e-6

    def test_epsilon_sweep(self):
        table = run_ablation_epsilon(
            epsilons=(0.5, 0.01), num_targets=3, num_segments=12, num_trials=1, seed=7
        )
        means = table.group_mean("epsilon", "gap")
        assert means[0.01] <= means[0.5] + 0.02

    def test_formatter(self, table_k):
        out = format_ablation(table_k, "num_segments")
        assert "F4" in out and "certified" in out


class TestLandscape:
    @pytest.fixture(scope="class")
    def table(self):
        from repro.experiments import run_landscape

        return run_landscape(
            num_targets=5, num_trials=1, num_segments=8, epsilon=0.05,
            num_types=3, seed=7,
        )

    def test_record_count(self, table):
        from repro.experiments.landscape import LANDSCAPE_ALGORITHMS

        assert len(table) == len(LANDSCAPE_ALGORITHMS)

    def test_cubis_tops_worst_case(self, table):
        worst = {row["algorithm"]: row["worst_case"] for row in table.rows}
        for name, value in worst.items():
            if name in ("cubis", "maximin"):
                continue
            assert worst["cubis"] >= value - 0.25, name

    def test_formatter(self, table):
        from repro.experiments import format_landscape

        out = format_landscape(table)
        assert "F5" in out and "cubis" in out and "sse" in out
