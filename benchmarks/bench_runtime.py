"""Benchmark + reproduction of Experiment F2 (runtime scaling).

Times CUBIS and the fmincon-style multi-start comparator across game
sizes (the parametrised benchmarks are the runtime figure itself), and
prints the measured-time + quality series.

Expected shape: CUBIS wall-clock grows mildly in T; the multi-start
comparator's quality collapses (local optima) even where its time looks
competitive at small T, and its time grows faster with T.

Run:  pytest benchmarks/bench_runtime.py --benchmark-only
"""

import pathlib

import numpy as np
import pytest

from repro.core.cubis import solve_cubis
from repro.core.exact import solve_exact
from repro.experiments.perf import (
    compare_bench,
    format_bench,
    run_bench_runtime,
    write_bench_json,
)
from repro.experiments.quality import default_uncertainty
from repro.experiments.runtime import format_runtime, run_runtime
from repro.game.generator import random_interval_game

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def _instance(num_targets: int):
    game = random_interval_game(num_targets, seed=100 + num_targets)
    return game, default_uncertainty(game.payoffs)


@pytest.mark.parametrize("num_targets", [5, 10, 20, 40])
def test_f2_cubis(benchmark, num_targets):
    game, uncertainty = _instance(num_targets)
    result = benchmark(solve_cubis, game, uncertainty, num_segments=10, epsilon=0.01)
    assert np.isfinite(result.worst_case_value)


@pytest.mark.parametrize("memoise", [False, True], ids=["cold", "memoised"])
def test_f2_memoisation(benchmark, memoise):
    """Cold (rebuild + full MILP per step) vs memoised (patched skeleton +
    LP screen) on the same instance — the per-solve half of the tentpole."""
    game, uncertainty = _instance(20)
    result = benchmark(
        solve_cubis, game, uncertainty,
        num_segments=10, epsilon=0.01, memoise=memoise,
    )
    assert np.isfinite(result.worst_case_value)


def test_f2_bench_runtime_json(benchmark, report):
    """Emit BENCH_runtime.json (repo root) and assert the deterministic
    wins: fewer full MILP solves on the warm path, the incremental
    session actually patching, parallel == serial.

    The configuration matches the ``repro bench`` CLI defaults so the
    emitted file is byte-compatible with the committed reference the CI
    regression gate compares against.
    """
    payload = run_bench_runtime(
        num_targets=50, num_segments=10, epsilon=1e-2,
        num_games=6, seed=2016, workers=2,
    )
    write_bench_json(payload, REPO_ROOT / "BENCH_runtime.json")

    # Give the benchmark fixture something cheap but real to time.
    game, uncertainty = _instance(10)
    benchmark(solve_cubis, game, uncertainty, num_segments=5, epsilon=0.1)

    report("f2_bench_runtime", format_bench(payload))

    # Count-based assertions only — wall-clock ratios are hardware noise,
    # solver-call counts are not.
    assert payload["warm"]["milp_solves"] < payload["cold"]["milp_solves"]
    assert payload["cold"]["milp_solves"] == payload["cold"]["oracle_calls"]
    assert payload["parallel"]["identical_to_serial"]
    # Session pass: every game ran incrementally, live models were
    # patched (not rebuilt) between steps, and no full MILP solve beyond
    # the cold count was needed.
    session = payload["session"]
    assert all(g["session_mode"] == "incremental" for g in session["per_game"])
    assert all(g["session_mode"] == "fresh" for g in payload["cold"]["per_game"])
    assert all(g["backend"] == "highs" for g in session["per_game"])
    assert session["session_patches"] > 0
    assert session["milp_solves"] <= payload["cold"]["milp_solves"]
    # A payload can never regress against itself.
    assert compare_bench(payload, payload, max_regression=1.25) == []


@pytest.mark.parametrize("num_targets", [5, 10, 20])
def test_f2_multistart(benchmark, num_targets):
    game, uncertainty = _instance(num_targets)
    result = benchmark(solve_exact, game, uncertainty, num_starts=8, seed=0)
    assert np.isfinite(result.worst_case_value)


def test_f2_report(benchmark, report):
    table = run_runtime(
        target_counts=(5, 10, 20),
        num_trials=2,
        num_segments=10,
        epsilon=0.01,
        num_starts=8,
        seed=2016,
    )
    # Give the benchmark fixture something cheap but real to time.
    game, uncertainty = _instance(10)
    benchmark(solve_cubis, game, uncertainty, num_segments=5, epsilon=0.1)

    report("f2_runtime", format_runtime(table))

    # Shape assertion: CUBIS quality never falls below multi-start by more
    # than the approximation envelope.
    for size in (5, 10, 20):
        sub = table.where(num_targets=size)
        cubis_q = np.mean(sub.where(algorithm="cubis").column("worst_case"))
        ms_q = np.mean(sub.where(algorithm="multistart").column("worst_case"))
        assert cubis_q >= ms_q - 0.1
