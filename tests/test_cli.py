"""Tests for the CLI experiment runner."""

import json

import pytest

from repro.cli import build_parser, main
from repro.telemetry import read_jsonl


class TestParser:
    def test_table1_defaults(self):
        args = build_parser().parse_args(["table1"])
        assert args.experiment == "table1"
        assert args.segments == 25 and args.epsilon == 1e-4

    def test_quality_custom(self):
        args = build_parser().parse_args(
            ["quality", "--targets", "4", "8", "--trials", "2", "--seed", "9"]
        )
        assert args.targets == [4, 8]
        assert args.trials == 2 and args.seed == 9

    def test_runtime_args(self):
        args = build_parser().parse_args(["runtime", "--starts", "5"])
        assert args.starts == 5

    def test_intervals_scales(self):
        args = build_parser().parse_args(["intervals", "--scales", "0", "1.5"])
        assert args.scales == [0.0, 1.5]

    def test_ablation_args(self):
        args = build_parser().parse_args(["ablation", "--segments", "2", "4"])
        assert args.segments == [2, 4]

    def test_missing_experiment_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_experiment_errors(self):
        for name in ("bogus", "bench"):
            with pytest.raises(SystemExit):
                build_parser().parse_args([name])

    def test_workers_flag_on_experiments(self):
        for sub in ("quality", "runtime", "intervals", "ablation", "landscape"):
            args = build_parser().parse_args([sub, "--workers", "3"])
            assert args.workers == 3, sub
            assert build_parser().parse_args([sub]).workers is None


class TestMain:
    def test_table1_runs(self, capsys):
        code = main(["table1", "--segments", "10", "--epsilon", "0.01"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Table I" in out and "robust" in out

    def test_quality_runs_small(self, capsys):
        code = main(
            ["quality", "--targets", "4", "--trials", "1", "--segments", "6",
             "--epsilon", "0.1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "F1" in out and "cubis" in out

    def test_intervals_runs_small(self, capsys):
        code = main(["intervals", "--scales", "0", "1", "--targets", "4", "--trials", "1"])
        assert code == 0
        assert "F3" in capsys.readouterr().out


class TestNewSubcommands:
    def test_landscape_parser(self):
        args = build_parser().parse_args(["landscape", "--types", "4"])
        assert args.types == 4

    def test_calibrate_parser(self):
        args = build_parser().parse_args(["calibrate", "--grid-points", "101"])
        assert args.grid_points == 101

    def test_calibrate_runs(self, capsys):
        code = main(["calibrate", "--grid-points", "101"])
        assert code == 0
        out = capsys.readouterr().out
        assert "calibration" in out and "0.46" in out

    def test_report_parser(self):
        args = build_parser().parse_args(["report", "--full", "--output", "r.md"])
        assert args.full and args.output == "r.md"


class TestSolveSubcommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["solve"])
        assert args.targets == 8 and not args.table1
        assert args.segments == 10 and args.epsilon == 1e-3
        assert not args.resilience and not args.certify
        assert args.inject_faults == 0.0 and args.retries == 1

    def test_parser_fault_flags(self):
        args = build_parser().parse_args(
            ["solve", "--table1", "--inject-faults", "0.5", "--fault-seed",
             "7", "--retries", "3", "--certify", "--events"]
        )
        assert args.table1 and args.inject_faults == 0.5
        assert args.fault_seed == 7 and args.retries == 3
        assert args.certify and args.events

    def test_plain_solve_runs(self, capsys):
        code = main(["solve", "--targets", "4", "--segments", "6",
                     "--epsilon", "0.01"])
        assert code == 0
        out = capsys.readouterr().out
        assert "worst-case value" in out and "converged" in out

    def test_faulty_certified_solve_runs(self, capsys):
        code = main(
            ["solve", "--targets", "4", "--segments", "6", "--epsilon",
             "0.01", "--inject-faults", "0.5", "--certify", "--events"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ladder" in out and "injected faults" in out
        assert "certificate: VALID" in out and "events" in out

    def test_resilience_flag_without_faults(self, capsys):
        code = main(
            ["solve", "--table1", "--segments", "6", "--epsilon", "0.01",
             "--resilience"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "degraded          False" in out and "ladder" in out


class TestTelemetryFlags:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["solve"])
        assert args.manifest == "RUN_manifest.json"
        assert not args.no_manifest and not args.no_telemetry
        assert args.telemetry is None

    def test_top_level_flags_precede_subcommand(self):
        args = build_parser().parse_args(
            ["--no-manifest", "--no-telemetry", "--manifest", "m.json",
             "solve", "--telemetry", "t.jsonl"]
        )
        assert args.no_manifest and args.no_telemetry
        assert args.manifest == "m.json" and args.telemetry == "t.jsonl"

    def test_solve_writes_telemetry_jsonl(self, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        code = main(
            ["--manifest", str(tmp_path / "m.json"),
             "solve", "--table1", "--segments", "6", "--epsilon", "0.01",
             "--telemetry", str(trace)]
        )
        assert code == 0
        data = read_jsonl(trace)
        assert data["meta"]["format_version"] == 1
        roots = [s for s in data["spans"] if s["parent_id"] is None]
        assert [s["name"] for s in roots] == ["cli.solve"]
        names = {s["name"] for s in data["spans"]}
        assert {"cubis.solve", "binary_search.step"} <= names
        assert any(m["name"] == "repro_oracle_seconds"
                   for m in data["metrics"])

    def test_manifest_written(self, capsys, tmp_path):
        path = tmp_path / "RUN_manifest.json"
        code = main(
            ["--manifest", str(path),
             "solve", "--table1", "--segments", "6", "--epsilon", "0.01"]
        )
        assert code == 0
        manifest = json.loads(path.read_text())
        assert manifest["command"] == "solve"
        assert manifest["status"] == "ok"
        assert manifest["seed"] == 2016
        assert manifest["telemetry_enabled"] is True
        assert manifest["spans"]["total_spans"] > 0
        assert len(manifest["spans"]["slowest"]) <= 10
        assert manifest["config"]["segments"] == 6

    def test_no_manifest_suppresses(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(["--no-manifest", "solve", "--table1", "--segments", "6",
                     "--epsilon", "0.01"])
        assert code == 0
        assert not (tmp_path / "RUN_manifest.json").exists()

    def test_no_telemetry_skips_spans_keeps_manifest(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        code = main(
            ["--no-telemetry", "--manifest", str(path),
             "solve", "--table1", "--segments", "6", "--epsilon", "0.01"]
        )
        assert code == 0
        manifest = json.loads(path.read_text())
        assert manifest["telemetry_enabled"] is False
        assert manifest["spans"]["total_spans"] == 0
        # Metrics survive without tracing (counters are always live).
        assert any(m["name"] == "repro_oracle_seconds"
                   for m in manifest["metrics"])

    def test_no_telemetry_skips_jsonl(self, capsys, tmp_path):
        trace = tmp_path / "t.jsonl"
        code = main(
            ["--no-telemetry", "--manifest", str(tmp_path / "m.json"),
             "solve", "--table1", "--segments", "6", "--epsilon", "0.01",
             "--telemetry", str(trace)]
        )
        assert code == 0
        assert not trace.exists()

    def test_manifest_written_on_failure(self, capsys, tmp_path):
        # A command that runs and fails must still leave a manifest
        # behind (status "error") for triage.
        path = tmp_path / "m.json"
        with pytest.raises(ValueError, match="num_segments"):
            main(["--manifest", str(path),
                  "solve", "--table1", "--segments", "0"])
        manifest = json.loads(path.read_text())
        assert manifest["status"] == "error"
        assert manifest["command"] == "solve"


class TestSweepSubcommand:
    SMOKE = ["sweep", "smoke", "--targets", "3", "3", "--trials", "1"]

    def test_parser_defaults(self):
        args = build_parser().parse_args(["sweep", "smoke"])
        assert args.driver == "smoke"
        assert args.trials == 2 and args.seed == 2016
        assert args.on_error == "raise" and args.fleet is False

    def test_parser_rejects_unknown_driver(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "bogus"])

    def test_smoke_sweep_writes_canonical_json(self, capsys, tmp_path):
        out = tmp_path / "table.json"
        code = main(["--no-manifest", *self.SMOKE, "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload["rows"]) == 2 and payload["failures"] == []
        assert "2 rows" in capsys.readouterr().out

    def test_workers_and_fleet_match_serial_bytes(self, capsys, tmp_path):
        """The canonical table is byte-identical across execution modes:
        serial, process pool, and shared skeleton shapes."""
        outputs = []
        for mode in ([], ["--workers", "2"], ["--fleet"]):
            out = tmp_path / f"table{len(outputs)}.json"
            assert main(["--no-manifest", *self.SMOKE, *mode,
                         "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


class TestTraceSubcommand:
    @pytest.fixture(scope="class")
    def trace_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("trace") / "solve.jsonl"
        code = main(["--no-manifest", "solve", "--targets", "5",
                     "--segments", "6", "--epsilon", "0.05",
                     "--telemetry", str(path)])
        assert code == 0
        return str(path)

    def test_parser_accepts_actions(self):
        for action in ("report", "critical-path", "flamegraph", "diff"):
            args = build_parser().parse_args(["trace", action, "t.jsonl"])
            assert args.action == action
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace", "bogus", "t.jsonl"])

    def test_report(self, capsys, trace_path):
        assert main(["--no-manifest", "trace", "report", trace_path]) == 0
        out = capsys.readouterr().out
        assert "cli.solve" in out
        assert "wall self" in out

    def test_critical_path_accounts_for_root(self, capsys, trace_path):
        assert main(
            ["--no-manifest", "trace", "critical-path", trace_path]) == 0
        out = capsys.readouterr().out
        assert "cli.solve" in out
        assert "= path total" in out

    def test_flamegraph_to_file(self, capsys, tmp_path, trace_path):
        out_file = tmp_path / "flame.txt"
        assert main(["--no-manifest", "trace", "flamegraph", trace_path,
                     "--out", str(out_file)]) == 0
        lines = out_file.read_text().splitlines()
        assert lines
        for line in lines:
            stack, value = line.rsplit(" ", 1)
            assert int(value) > 0
            assert stack.split(";")[0] == "cli.solve"

    def test_diff_requires_two_paths(self, trace_path):
        with pytest.raises(SystemExit, match="exactly two"):
            main(["--no-manifest", "trace", "diff", trace_path])
        with pytest.raises(SystemExit, match="exactly one"):
            main(["--no-manifest", "trace", "report", trace_path, trace_path])

    def test_diff_two_runs(self, capsys, tmp_path, trace_path):
        other = tmp_path / "other.jsonl"
        assert main(["--no-manifest", "solve", "--targets", "5",
                     "--segments", "6", "--epsilon", "0.05", "--seed", "5",
                     "--telemetry", str(other)]) == 0
        assert main(["--no-manifest", "trace", "diff", trace_path,
                     str(other)]) == 0
        out = capsys.readouterr().out
        assert "diff:" in out and "delta" in out


class TestServeFlag:
    def test_parser_semantics(self):
        for cmd in (["sweep", "smoke"], ["solve"], ["verify"]):
            assert build_parser().parse_args(cmd).serve is None, cmd
            assert build_parser().parse_args(cmd + ["--serve"]).serve == 0
            assert build_parser().parse_args(
                cmd + ["--serve", "8123"]).serve == 8123

    def test_solve_with_serve_announces_url(self, capsys):
        code = main(["--no-manifest", "solve", "--targets", "4",
                     "--segments", "6", "--epsilon", "0.1", "--serve"])
        assert code == 0
        err = capsys.readouterr().err
        assert "obs server listening on http://127.0.0.1:" in err
