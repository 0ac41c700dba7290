"""The perfbench regression gate (``benchmarks/perfbench_gate.py``).

Ratios may not regress beyond the gate's factor in the direction
``BENCHMARK.json`` names, a zero baseline stays pinned at zero, a
missing gated metric fails, and timings never enter the comparison.
"""

import json

from benchmarks import perfbench_gate as gate

BETTER = gate.directions()
UNITS = {
    metric["name"]: metric["unit"]
    for metric in json.loads(gate.BENCHMARK.read_text())["per_layer"]
}
BASELINE = json.loads(gate.BASELINE.read_text())

LOWER = "cubis.oracle_calls_per_solve"
HIGHER = "resolve.bracket_reuse_ratio"
PINNED = "milp_backend.milp_calls"
REFERENCE = {LOWER: 12.0, HIGHER: 0.8, PINNED: 0.0}


def _write_runs(directory, **overrides):
    """One saved result line per baselined workload, reading exactly the
    baseline values plus ``overrides`` (workload -> {metric: value})."""
    for workload, reference in BASELINE.items():
        values = {**reference, **overrides.get(workload, {})}
        metrics = {name: {"value": value, "unit": UNITS[name]}
                   for name, value in values.items()}
        result = {"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}
        (directory / f"perf_{workload}.json").write_text(json.dumps(result))


class TestPerfbenchGate:
    def test_identical_run_passes(self, tmp_path):
        _write_runs(tmp_path)
        assert gate.gate(tmp_path) == []

    def test_count_regression_detected(self):
        run = dict(REFERENCE, **{LOWER: 12.0 * 1.3})
        problems = gate.check(run, REFERENCE, BETTER)
        assert len(problems) == 1 and problems[0].startswith(LOWER)

    def test_ratio_regression_detected(self):
        run = dict(REFERENCE, **{HIGHER: 0.8 / 1.3})
        problems = gate.check(run, REFERENCE, BETTER)
        assert len(problems) == 1 and problems[0].startswith(HIGHER)

    def test_within_factor_passes(self):
        run = dict(REFERENCE, **{LOWER: 12.0 * 1.2, HIGHER: 0.8 / 1.2})
        assert gate.check(run, REFERENCE, BETTER) == []

    def test_zero_baseline_stays_pinned(self):
        run = dict(REFERENCE, **{PINNED: 1.0})
        problems = gate.check(run, REFERENCE, BETTER)
        assert len(problems) == 1 and problems[0].startswith(PINNED)

    def test_missing_gated_metric_fails(self):
        run = {LOWER: 12.0, PINNED: 0.0}
        problems = gate.check(run, REFERENCE, BETTER)
        assert problems == [f"{HIGHER}: missing from the run (baseline 0.8)"]

    def test_wall_clock_never_compared(self, tmp_path):
        # The committed baseline holds no timing, and a run whose every
        # timing is a thousand times slower still passes.
        gated = {name for reference in BASELINE.values() for name in reference}
        assert gated <= set(BETTER)
        assert all(UNITS[name] not in ("s", "ms") for name in gated)
        slow = {name: 1e3 for name, unit in UNITS.items() if unit in ("s", "ms")}
        _write_runs(tmp_path, **{workload: slow for workload in BASELINE})
        assert gate.gate(tmp_path) == []

    def test_main_exit_code_flips_on_doctored_run(self, tmp_path, monkeypatch,
                                                   capsys):
        monkeypatch.chdir(tmp_path)
        _write_runs(tmp_path)
        assert gate.main() == 0
        reference = BASELINE["drift_loop"][LOWER]
        _write_runs(tmp_path, drift_loop={LOWER: reference * 1.26})
        assert gate.main() == 1
        out = capsys.readouterr().out
        assert f"REGRESSION drift_loop: {LOWER}" in out
