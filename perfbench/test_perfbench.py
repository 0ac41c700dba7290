"""Tests of the benchmark itself, on tiny inputs.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int, tmp_path: Path, cwd: Path = ROOT,
         seconds: float = 2.0):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", str(seconds),
         "--trace", str(trace), "--size", "tiny", "--out", str(tmp_path)],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    cache: dict = {}

    def get(workload: str, trace: int) -> dict:
        key = (workload, trace)
        if key not in cache:
            done = _run(workload, trace, tmp_path_factory.mktemp("out"))
            assert done.returncode == 0, done.stderr[-3000:]
            lines = done.stdout.strip().splitlines()
            cache[key] = {"record": json.loads(lines[-2]),
                          "result": json.loads(lines[-1])}
        return cache[key]

    return get


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_declared_metric_is_emitted_with_its_unit(results, workload, trace):
    result = results(workload, trace)["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], float)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_no_operation_fails(results, workload, trace):
    out = results(workload, trace)
    result = out["result"]
    assert result["failed"] == 0, out["record"]["failures"]
    assert result["correct"] is True
    assert result["attempted"] >= 1
    if trace:
        assert result["metrics"]["bench.fail_frac"]["value"] == 0.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_never_zero(results, workload):
    for name, metric in results(workload, 0)["result"]["metrics"].items():
        assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_self_times_telescope_to_wall_time(results, workload):
    metrics = {k: v["value"] for k, v in results(workload, 1)["result"]["metrics"].items()}
    layers = sum(v for k, v in metrics.items() if k.startswith("self_s."))
    assert metrics["trace.wall_s"] > 0
    assert layers == pytest.approx(metrics["trace.wall_s"], rel=1e-9, abs=1e-9)
    assert metrics["trace.telescope_error_s"] < 1e-6


def test_fleet_dp_makes_no_milp_backend_calls(results):
    metrics = results("fleet_dp", 1)["result"]["metrics"]
    assert metrics["milp_backend.lp_calls"]["value"] == 0
    assert metrics["milp_backend.milp_calls"]["value"] == 0
    assert metrics["dp.calls"]["value"] > 0


@pytest.mark.parametrize("workload", ["solve_batch", "drift_loop"])
def test_lp_screen_decides_every_step(results, workload):
    metrics = results(workload, 1)["result"]["metrics"]
    assert metrics["milp_backend.milp_calls"]["value"] == 0
    assert metrics["milp_backend.lp_calls"]["value"] > 0


def test_service_mix_runs_the_ladder_and_the_read_path(results):
    metrics = {k: v["value"] for k, v in
               results("service_mix", 1)["result"]["metrics"].items()}
    assert metrics["resilience.attempts_per_solve"] > 0
    assert metrics["service.cache_hit_ratio"] + metrics["service.coalesced_ratio"] > 0
    assert metrics["self_s.service"] > 0


def test_run_record_identifies_inputs_and_config(results):
    first = results("solve_batch", 0)["record"]
    second = results("solve_batch", 1)["record"]
    assert first["seed"] == 3
    assert first["input_hash"] == second["input_hash"]
    assert first["source_hash"] == second["source_hash"]
    for key in ("config_hash", "git_sha"):
        assert key in first


def test_probes_change_timing_only():
    """A solve through the probes returns exactly what it returns without
    them, and uninstalling restores every original."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import numpy as np
    import repro.core.cubis as cubis
    import tracing
    from repro.experiments.quality import default_uncertainty
    from repro.game.generator import random_interval_game

    game = random_interval_game(10, seed=5)
    model = default_uncertainty(game.payoffs)
    original = cubis.solve_milp
    plain = cubis.solve_cubis(game, model, num_segments=5, epsilon=1e-2)
    tracer = tracing.Tracer()
    tracing.install_probes(tracer)
    try:
        root = tracer.begin("bench.test", "bench")
        traced = cubis.solve_cubis(game, model, num_segments=5, epsilon=1e-2)
        tracer.end(root)
    finally:
        tracer.uninstall()
    assert cubis.solve_milp is original
    assert np.array_equal(plain.strategy, traced.strategy)
    assert plain.worst_case_value == traced.worst_case_value
    assert tracer.counts["cubis.solves"] == 1
    own = tracer.self_times(root)
    assert sum(own.values()) == pytest.approx(root.end - root.start, rel=1e-9)


def test_exits_nonzero_without_the_program(tmp_path):
    """With only BENCHMARK.json and the benchmark's files, the run must
    fail fast and print no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run("solve_batch", 0, tmp_path / "out", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
