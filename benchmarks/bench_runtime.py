"""Benchmark + reproduction of Experiment F2 (runtime scaling).

Times CUBIS and the fmincon-style multi-start comparator across game
sizes (the parametrised benchmarks are the runtime figure itself), and
prints the measured-time + quality series.

Expected shape: CUBIS wall-clock grows mildly in T; the multi-start
comparator's quality collapses (local optima) even where its time looks
competitive at small T, and its time grows faster with T.

Run:  pytest benchmarks/bench_runtime.py --benchmark-only
"""

import numpy as np
import pytest

from repro.core.cubis import solve_cubis
from repro.core.exact import solve_exact
from repro.experiments.quality import default_uncertainty
from repro.experiments.runtime import format_runtime, run_runtime
from repro.game.generator import random_interval_game


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
