"""Tests for the verify battery, differential checker, and CLI gate."""

import json

import numpy as np
import pytest

from repro import telemetry
from repro.cli import main
from repro.verify import (
    battery_instances,
    check_interval_monotonicity,
    check_shrink_pointwise,
    differential_check,
    run_paths,
    scaled_uncertainty,
    verify_instance,
)
from tests import fixtures_games


@pytest.fixture(scope="module")
def table1_pair():
    game = fixtures_games.canonical_table1()
    return game, fixtures_games.table1_suqr(game)


class TestRunPaths:
    def test_all_paths_complete_and_agree(self, table1_pair):
        game, uncertainty = table1_pair
        outcomes = run_paths(game, uncertainty, num_segments=8)
        assert [o.name for o in outcomes] == [
            "milp-highs", "milp-bnb", "milp-reference", "milp-fleet",
            "milp-resolve", "dp", "exact",
        ]
        for o in outcomes:
            assert o.error is None
            assert np.isfinite(o.value)
            assert o.reported_value == pytest.approx(o.value, abs=1e-6)
            # Certified piecewise level never exceeds the exact value by
            # more than interpolation noise (it is an underestimate).
            assert o.certified_level <= o.value + 1e-6

    def test_unknown_path_rejected(self, table1_pair):
        game, uncertainty = table1_pair
        with pytest.raises(ValueError, match="unknown solver paths"):
            run_paths(game, uncertainty, paths=("cplex",))

    def test_crash_fault_recorded_not_raised(self, table1_pair):
        game, uncertainty = table1_pair
        outcomes = run_paths(
            game,
            uncertainty,
            paths=("milp-highs",),
            inject_faults=0.9,
            fault_seed=1,
            fault_modes=("error",),
        )
        injected = next(o for o in outcomes if o.name == "milp-injected")
        assert injected.error is not None
        assert injected.strategy is None
        assert np.isnan(injected.value)


class TestDifferentialCheck:
    def test_clean_instance_passes(self, table1_pair):
        game, uncertainty = table1_pair
        checks = differential_check(
            game, uncertainty, num_segments=8, seed=123,
            paths=("milp-highs", "dp"),
        )
        assert all(c.passed for c in checks)
        names = [c.name for c in checks]
        assert "differential.path.milp-highs" in names
        assert "differential.milp-highs-vs-dp" in names

    def test_pairwise_context_reports_offending_pair(self, table1_pair):
        game, uncertainty = table1_pair
        checks = differential_check(
            game, uncertainty, num_segments=8, seed=99,
            paths=("milp-highs", "dp"),
        )
        pairwise = next(
            c for c in checks if c.name == "differential.milp-highs-vs-dp"
        )
        assert pairwise.context["seed"] == 99
        assert pairwise.context["pair"] == ["milp-highs", "dp"]
        assert set(pairwise.context["values"]) == {"milp-highs", "dp"}
        assert set(pairwise.context["slacks"]) == {"milp-highs", "dp"}
        assert pairwise.measured is not None and pairwise.bound is not None

    def test_injected_crash_fails_the_battery(self, table1_pair):
        game, uncertainty = table1_pair
        checks = differential_check(
            game, uncertainty, num_segments=8,
            paths=("milp-highs",),
            inject_faults=0.9, fault_seed=1, fault_modes=("error",),
        )
        failing = [c for c in checks if not c.passed]
        assert failing
        assert failing[0].name == "differential.path.milp-injected"
        assert "crashed" in failing[0].detail


class TestTheoremEdges:
    def test_scaled_uncertainty_requires_interval_suqr(self, table1_pair):
        game, _ = table1_pair
        with pytest.raises(TypeError, match="IntervalSUQR"):
            scaled_uncertainty(object(), 0.5)

    def test_monotonicity_needs_two_scales(self, table1_pair):
        game, uncertainty = table1_pair
        with pytest.raises(ValueError, match="two scales"):
            check_interval_monotonicity(game, uncertainty, scales=(1.0,))

    def test_scaled_uncertainty_shrinks_boxes(self, table1_pair):
        _, uncertainty = table1_pair
        narrow = scaled_uncertainty(uncertainty, 0.0)
        for box in narrow.weight_boxes:
            assert box.halfwidth == pytest.approx(0.0)


class TestShrinkPointwise:
    @pytest.fixture(scope="class")
    def solved(self, table1_pair):
        from repro.core.cubis import solve_cubis

        game, uncertainty = table1_pair
        result = solve_cubis(game, uncertainty, num_segments=8, epsilon=1e-2)
        return game, uncertainty, result.strategy

    def test_passes_at_a_solved_strategy(self, solved):
        game, uncertainty, x = solved
        check = check_shrink_pointwise(game, uncertainty, x)
        assert check.name == "theorem.shrink_pointwise"
        assert check.passed, check.detail
        values = check.context["values"]
        assert check.context["factors"] == [1.0, 0.9, 0.5]
        # The bands really narrow: the worst case strictly rises.
        assert values[0] < values[1] < values[2]

    def test_round_trips_as_a_conformance_report(self, solved):
        from repro.verify import ConformanceReport

        game, uncertainty, x = solved
        report = ConformanceReport(
            instance="table1",
            checks=(check_shrink_pointwise(game, uncertainty, x),),
        )
        assert report.round_trips()
        clone = ConformanceReport.from_dict(
            json.loads(json.dumps(report.to_dict()))
        )
        assert clone == report
        assert clone.passed

    def test_fails_on_a_hand_widened_shrink(self, solved):
        game, uncertainty, x = solved
        # The last "shrink" scales the bands by 1.1: a widening.
        check = check_shrink_pointwise(
            game, uncertainty, x, factors=(1.0, 0.9, 1.1)
        )
        assert not check.passed
        assert check.measured > check.bound

    def test_needs_two_scales(self, solved):
        game, uncertainty, x = solved
        with pytest.raises(ValueError, match="two band scales"):
            check_shrink_pointwise(game, uncertainty, x, factors=(1.0,))


class TestVerifyInstance:
    def test_table1_fast_report(self, table1_pair):
        instance = battery_instances(seeds=0)[0]
        report = verify_instance(instance, num_segments=8, fast=True)
        assert report.instance == "table1"
        assert report.passed, report.summary()
        names = {c.name for c in report.checks}
        assert "theorem.beta_elimination" in names
        assert "theorem.value_point" in names
        assert "theorem.segment_bound" in names
        assert "theorem.shrink_pointwise" in names
        # fast mode skips the monotonicity sweep
        assert "theorem.interval_monotonicity" not in names
        assert report.metadata["theorem_slack"] > 0
        assert report.round_trips()

    def test_roster_shape(self):
        roster = battery_instances(seeds=2, num_targets=4)
        assert [i.label for i in roster] == [
            "table1", "random-T4-seed0", "random-T4-seed1",
        ]
        assert roster[1].seed == 0


class TestVerifyCli:
    def run_cli(self, tmp_path, *extra):
        report_path = tmp_path / "verify.jsonl"
        argv = [
            "--no-manifest", "verify",
            "--seeds", "0", "--fast", "--segments", "8", "--no-golden",
            "--report", str(report_path),
            *extra,
        ]
        return main(argv), report_path

    def test_clean_run_exits_zero_and_writes_jsonl(self, tmp_path, capsys):
        code, report_path = self.run_cli(tmp_path)
        assert code == 0
        out = capsys.readouterr().out
        assert "table1: PASS" in out
        data = telemetry.read_jsonl(report_path)
        assert len(data["conformance"]) == 1
        record = data["conformance"][0]
        assert record["instance"] == "table1"
        assert record["passed"] is True
        assert record["checks"]
        # spans from the battery's solves ride along in the same artefact
        # (the cli.verify root span is still open at write time)
        assert any(s["name"] == "binary_search.step" for s in data["spans"])

    def test_injected_fault_exits_nonzero(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc_info:
            self.run_cli(tmp_path, "--inject-faults", "0.5")
        message = str(exc_info.value.code)
        assert "FAIL" in message
        assert "milp-injected" in message

    def test_jsonl_report_round_trips_through_loader(self, tmp_path, capsys):
        from repro.verify import ConformanceReport

        _, report_path = self.run_cli(tmp_path)
        data = telemetry.read_jsonl(report_path)
        report = ConformanceReport.from_dict(data["conformance"][0])
        assert report.passed
        assert report.round_trips()


class TestRegenerateCli:
    def test_regenerate_rewrites_fixture(self, tmp_path, capsys, monkeypatch):
        import repro.verify.golden as golden_mod

        src = {
            "schema_version": 1,
            "name": "mini",
            "description": "regeneration smoke fixture",
            "instance": {"kind": "table1"},
            "uncertainty": {
                "kind": "suqr",
                "w1": [-6.0, -2.0], "w2": [0.5, 1.0], "w3": [0.4, 0.9],
            },
            "solve": {"num_segments": 5, "epsilon": 0.01},
            "expected": {"robust_worst_case": {"value": -0.95, "atol": 0.2}},
            "provenance": {},
        }
        path = tmp_path / "mini.json"
        path.write_text(json.dumps(src))
        monkeypatch.setattr(
            golden_mod, "measure_fixture",
            lambda fixture: {"robust_worst_case": -0.91},
        )
        code = main([
            "--no-manifest", "verify", "--regenerate",
            "--golden-dir", str(tmp_path),
        ])
        assert code == 0
        updated = json.loads(path.read_text())
        assert updated["expected"]["robust_worst_case"]["value"] == -0.91
        assert updated["provenance"]["git_sha"]
