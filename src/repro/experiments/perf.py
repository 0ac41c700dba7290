"""Benchmark harness for the performance layer — emits ``BENCH_runtime.json``.

Five measurements, one JSON payload:

* **cold** — every game solved with ``memoise=False`` and
  ``session="fresh"`` (rebuild each MILP, no certificates, no LP screen,
  no incremental patching): the baseline the paper-era pipeline ran.
* **warm** — the same games with ``memoise=True`` and each solve
  warm-started from its predecessor (``CubisResult.as_warm_start``): the
  production path.  The headline number is ``speedup = cold / warm``
  wall-clock on the solves themselves.
* **session** — the same games with ``memoise=True`` and
  ``session="incremental"``, *without* cross-game warm-start chaining,
  isolating the incremental-session contribution
  (``speedup_session = cold / session``).
* **fleet** — the same games solved through
  :func:`repro.solvers.fleet.solve_fleet`: one MILP skeleton structure
  assembled per shape and leased to every game, one incremental session
  retargeted across the fleet, and δ-continuation warm starts chaining
  the binary-search brackets (``speedup_fleet = cold / fleet``).  This
  is the batched production path; its per-game rows report ``0.0``
  wall-clock because the shared substrate makes per-game attribution
  meaningless — the section total carries the measured time.
* **resolve** — the online drift loop (:mod:`repro.solvers.resolve`):
  one standing solve on the first game, incremental re-solves after a 1%
  interval shrink and five chained ~10% shrinks, and a full reset (a
  fresh standing solve, the cold re-entry cost).  The headline is
  ``speedup_resolve``: the median over the five 10%-shrunk instances of
  ``cold solve time / incremental re-solve time`` on the same post-drift
  intervals — the warm-bracket + sparse-patch payoff, measured with a
  spike-robust estimator.
* **parallel** — a small :func:`repro.analysis.sweep.run_grid` executed
  serially and with a process pool, asserting the two tables are
  bit-identical at the same root seed (the determinism guarantee of
  docs/PERFORMANCE.md, checked on every benchmark run).

Each per-game row records the ``backend`` and the ``session_mode`` the
solve actually ran with, so a saved payload documents its own
configuration.  :func:`compare_bench` diffs a fresh payload against a
saved reference over the *hardware-independent* metrics only (solve
counts and speedup ratios, never raw seconds) — the regression gate run
by CI's benchmark-smoke job via
``python -m repro bench --compare BENCH_runtime.json``.

``python -m repro bench`` drives this module from the command line; the
CI benchmark-smoke job runs a reduced configuration and uploads the JSON.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro import telemetry
from repro.analysis.sweep import run_grid
from repro.core.cubis import solve_cubis
from repro.experiments.quality import default_uncertainty
from repro.game.generator import random_interval_game
from repro.solvers.fleet import solve_fleet
from repro.utils.rng import spawn_generators

__all__ = [
    "append_bench_history",
    "compare_bench",
    "run_bench_runtime",
    "write_bench_json",
    "format_bench",
]


def _solve_stats(result, seconds: float, *, backend: str) -> dict:
    return {
        "wall_clock_seconds": seconds,
        "oracle_calls": result.oracle_calls,
        "milp_solves": result.milp_solves,
        "lp_solves": result.lp_solves,
        "cache_hits": result.cache_hits,
        "session_patches": result.session_patches,
        "lower_bound": result.lower_bound,
        "worst_case": result.worst_case_value,
        "backend": backend,
        "session_mode": result.session_mode,
    }


def _bench_trial(
    rng, trial_index: int, *, num_targets: int, num_segments: int,
    epsilon: float, backend: str = "highs",
):
    """One sweep cell for the parallel-equality check.

    Module-level (picklable) so ``run_grid`` can ship it to pool workers;
    yields only deterministic columns — no timings — because the check
    asserts bit-identical serial and parallel tables.
    """
    game = random_interval_game(num_targets, seed=rng)
    result = solve_cubis(
        game, default_uncertainty(game.payoffs),
        num_segments=num_segments, epsilon=epsilon, backend=backend,
    )
    yield {
        "lower_bound": result.lower_bound,
        "upper_bound": result.upper_bound,
        "worst_case": result.worst_case_value,
        "oracle_calls": result.oracle_calls,
        "milp_solves": result.milp_solves,
    }


def run_bench_runtime(
    *,
    num_targets: int = 50,
    num_segments: int = 10,
    epsilon: float = 1e-2,
    num_games: int = 6,
    seed: int = 2016,
    workers: int = 4,
    warm_start: bool = True,
    backend: str = "highs",
) -> dict:
    """Measure cold vs warm vs incremental-session solve time and check
    parallel determinism.

    Returns the ``BENCH_runtime.json`` payload as a dict.  ``warm_start=False``
    keeps memoisation on in the warm pass but drops the cross-game
    warm-start chaining (isolating the two contributions).
    """
    games = [
        random_interval_game(num_targets, seed=rng)
        for rng in spawn_generators(seed, num_games)
    ]
    models = [default_uncertainty(g.payoffs) for g in games]
    common = {"num_segments": num_segments, "epsilon": epsilon, "backend": backend}

    cold_games = []
    t0 = time.perf_counter()
    with telemetry.span("bench.cold_pass", games=num_games):
        for game, uncertainty in zip(games, models):
            t1 = time.perf_counter()
            result = solve_cubis(
                game, uncertainty, memoise=False, session="fresh", **common
            )
            cold_games.append(
                _solve_stats(result, time.perf_counter() - t1, backend=backend)
            )
    cold_total = time.perf_counter() - t0

    warm_games = []
    carry = None
    t0 = time.perf_counter()
    with telemetry.span("bench.warm_pass", games=num_games, warm_start=warm_start):
        for game, uncertainty in zip(games, models):
            t1 = time.perf_counter()
            result = solve_cubis(
                game, uncertainty, memoise=True, warm_start=carry, **common
            )
            warm_games.append(
                _solve_stats(result, time.perf_counter() - t1, backend=backend)
            )
            if warm_start:
                carry = result.as_warm_start()
    warm_total = time.perf_counter() - t0

    # Session pass: incremental MILP sessions, no cross-game chaining, so
    # speedup_session isolates the session optimisation against the same
    # cold baseline.
    session_games = []
    t0 = time.perf_counter()
    with telemetry.span("bench.session_pass", games=num_games):
        for game, uncertainty in zip(games, models):
            t1 = time.perf_counter()
            result = solve_cubis(
                game, uncertainty, memoise=True, session="incremental",
                **common,
            )
            session_games.append(
                _solve_stats(result, time.perf_counter() - t1, backend=backend)
            )
    session_total = time.perf_counter() - t0

    # Fleet pass: the whole chain through solve_fleet — shared skeleton
    # structure, one leased session, δ-continuation — the batched path
    # the fleet=True sweeps run on.
    t0 = time.perf_counter()
    with telemetry.span("bench.fleet_pass", games=num_games):
        fleet_result = solve_fleet(
            games, models, oracle="milp", backend=backend,
            continuation=True,
            num_segments=num_segments, epsilon=epsilon,
        )
    fleet_total = time.perf_counter() - t0
    # solve_fleet(oracle="milp") solves its games one at a time, so each
    # result's own clock is its share of the chain.
    fleet_games = [
        _solve_stats(result, result.solve_seconds, backend=backend)
        for result in fleet_result
    ]

    # Resolve pass: the online drift loop.  A standing solve of the first
    # game, re-entered after a 1% shrink, then a 10% shrink, then reset
    # cold.  The cold baseline for the headline ratio solves the *same*
    # 10%-shrunk instance from scratch (memoise off, fresh session) —
    # apples to apples on the post-drift intervals.
    from repro.behavior.interval import BandScaledModel
    from repro.solvers.resolve import resolve as resolve_step
    from repro.solvers.resolve import start_resolve

    game0, model0 = games[0], models[0]
    # One 1% step, then five chained ~10% shrinks (0.9^k of the original
    # band).  A single incremental re-solve takes milliseconds — far too
    # small a denominator for a stable cross-machine ratio — so the
    # headline aggregates: ``speedup_resolve`` is the summed cold solve
    # time of the five 10%-shrunk instances over the summed incremental
    # re-solve time of the *same* instances, apples to apples on each
    # post-drift interval set.
    drifts = [("shrink_1pct", 0.99)] + [
        (f"shrink_10pct_{chr(ord('a') + k)}", round(0.9 ** (k + 1), 12))
        for k in range(5)
    ]
    with telemetry.span("bench.resolve_pass", drifts=len(drifts)):
        t0 = time.perf_counter()
        handle = start_resolve(
            game0, model0, num_segments=num_segments, epsilon=epsilon,
            backend=backend,
        )
        resolve_start_seconds = time.perf_counter() - t0

        resolve_steps = []
        for label, factor in drifts:
            drifted = BandScaledModel(model0, factor)
            t1 = time.perf_counter()
            outcome = resolve_step(handle, drifted)
            seconds = time.perf_counter() - t1
            resolve_steps.append({
                "label": label,
                "factor": factor,
                "wall_clock_seconds": seconds,
                "drift": outcome.drift.kind,
                "bracket_reused": outcome.bracket_reused,
                "warm_hit": outcome.warm_hit,
                "session_patches": outcome.session_patches,
                "guess_probes": outcome.result.guess_probes,
                "oracle_calls": outcome.result.oracle_calls,
                "milp_solves": outcome.result.milp_solves,
                "lp_solves": outcome.result.lp_solves,
                "cache_hits": outcome.result.cache_hits,
                "lower_bound": outcome.result.lower_bound,
                "worst_case": outcome.result.worst_case_value,
            })

        # Cold baseline: every 10%-step instance solved from scratch
        # (memoise off, fresh session); each step keeps its own time so
        # the headline can take a per-instance ratio.
        cold_step_seconds = []
        cold_final = None
        for label, factor in drifts[1:]:
            drifted = BandScaledModel(model0, factor)
            t1 = time.perf_counter()
            cold_final = solve_cubis(
                game0, drifted, memoise=False, session="fresh", **common
            )
            cold_step_seconds.append(time.perf_counter() - t1)
        resolve_cold_seconds = sum(cold_step_seconds)

        # Full reset: drop the standing machinery and start over — the
        # price a drift too large to be worth re-entering would pay.
        final_drifted = BandScaledModel(model0, drifts[-1][1])
        t1 = time.perf_counter()
        start_resolve(
            game0, final_drifted, num_segments=num_segments,
            epsilon=epsilon, backend=backend,
        )
        resolve_reset_seconds = time.perf_counter() - t1

    ten_pct_steps = [
        s for s in resolve_steps if s["label"].startswith("shrink_10pct")
    ]
    resolve_ten_pct_seconds = sum(
        s["wall_clock_seconds"] for s in ten_pct_steps
    )
    # Median of the per-instance ratios: a single spiky step (GC pause,
    # noisy-neighbour scheduling) cannot move the headline the way it
    # moves a ratio of sums, which keeps the CI regression gate stable.
    step_ratios = sorted(
        cold / step["wall_clock_seconds"]
        for cold, step in zip(cold_step_seconds, ten_pct_steps)
        if step["wall_clock_seconds"] > 0
    )
    resolve_speedup = (
        step_ratios[len(step_ratios) // 2] if step_ratios else float("inf")
    )
    resolve_section = {
        "wall_clock_seconds": sum(s["wall_clock_seconds"] for s in resolve_steps),
        "oracle_calls": sum(s["oracle_calls"] for s in resolve_steps),
        "milp_solves": sum(s["milp_solves"] for s in resolve_steps),
        "lp_solves": sum(s["lp_solves"] for s in resolve_steps),
        "start_seconds": resolve_start_seconds,
        "cold_seconds": resolve_cold_seconds,
        "ten_pct_seconds": resolve_ten_pct_seconds,
        "reset_seconds": resolve_reset_seconds,
        "value_gap": abs(
            resolve_steps[-1]["worst_case"] - cold_final.worst_case_value
        ),
        "steps": resolve_steps,
        "handle_stats": handle.stats(),
    }

    # Parallel determinism check: a reduced grid (the full T would make the
    # smoke run slow) solved serially and through the pool must agree on
    # every deterministic column, byte for byte.
    check_grid = [
        {"num_targets": t, **common}
        for t in sorted({min(num_targets, 10), min(num_targets, 20)})
    ]
    serial = run_grid(_bench_trial, check_grid, num_trials=2, seed=seed)
    pooled = run_grid(_bench_trial, check_grid, num_trials=2, seed=seed, workers=workers)
    identical = serial.rows == pooled.rows

    def totals(per_game: list[dict]) -> dict:
        keys = (
            "wall_clock_seconds", "oracle_calls", "milp_solves", "lp_solves",
            "cache_hits", "session_patches",
        )
        out = {k: sum(g[k] for g in per_game) for k in keys}
        calls = out["oracle_calls"]
        # No oracle calls means a hit rate is undefined, not zero — report
        # an explicit null instead of the misleading 0.0 a bare division
        # guard would produce.
        out["cache_hit_rate"] = out["cache_hits"] / calls if calls else None
        return out

    cold = totals(cold_games)
    warm = totals(warm_games)
    session = totals(session_games)
    fleet = totals(fleet_games)
    # The section's wall clock is the one solve_fleet measured around the
    # whole chain, so it also counts the fleet's own bookkeeping.
    fleet["wall_clock_seconds"] = fleet_result.solve_seconds
    # Where the time went, from the active telemetry context: a per-name
    # rollup plus the slowest individual spans (None under
    # ``--no-telemetry``).  Completed spans only — the surrounding
    # ``cli.bench`` root span is still open at this point.
    tele = telemetry.current()
    spans_summary = telemetry.summarize_spans(tele.spans) if tele.enabled else None
    return {
        "benchmark": "bench_runtime",
        "config": {
            "num_targets": num_targets,
            "num_segments": num_segments,
            "epsilon": epsilon,
            "num_games": num_games,
            "seed": seed,
            "workers": workers,
            "warm_start": warm_start,
            "backend": backend,
        },
        "cold": {**cold, "per_game": cold_games},
        "warm": {**warm, "per_game": warm_games},
        "session": {**session, "per_game": session_games},
        "fleet": {
            **fleet,
            "per_game": fleet_games,
            "shape_stats": fleet_result.shape_stats,
            "session_stats": fleet_result.session_stats,
        },
        "resolve": resolve_section,
        "speedup": (
            cold["wall_clock_seconds"] / warm["wall_clock_seconds"]
            if warm["wall_clock_seconds"] > 0
            else float("inf")
        ),
        "speedup_session": (
            cold["wall_clock_seconds"] / session["wall_clock_seconds"]
            if session["wall_clock_seconds"] > 0
            else float("inf")
        ),
        "speedup_fleet": (
            cold["wall_clock_seconds"] / fleet["wall_clock_seconds"]
            if fleet["wall_clock_seconds"] > 0
            else float("inf")
        ),
        "speedup_resolve": resolve_speedup,
        "cold_wall_clock_seconds": cold_total,
        "warm_wall_clock_seconds": warm_total,
        "session_wall_clock_seconds": session_total,
        "fleet_wall_clock_seconds": fleet_total,
        "parallel": {
            "workers": workers,
            "cells": len(serial.rows),
            "identical_to_serial": identical,
        },
        "spans": spans_summary,
    }


def write_bench_json(payload: dict, path) -> Path:
    """Write the benchmark payload as pretty-printed JSON; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def append_bench_history(payload: dict, path) -> Path:
    """Append one compact summary line to the perf-trajectory JSONL.

    Where ``BENCH_runtime.json`` holds the full payload of *one* run,
    the history file accumulates a single line per run — git SHA, date,
    the speedup ratios, the hardware-independent counts, and the top
    span names by wall *self*-time from the live telemetry context — so
    a regression is visible as a trend across commits, not just against
    one committed reference.  Each line carries ``config_hash``, the
    canonical hash of the run's ``config``, so runs of one configuration
    (a reduced CI config vs the reference one) can be told apart and
    compared only with each other.  Returns the path.
    """
    from repro.obs.traces import Trace, self_time_by_name
    from repro.store.hashing import hash_config
    from repro.telemetry.manifest import git_sha

    tele = telemetry.current()
    top_spans = []
    if tele.enabled and len(tele.spans):
        trace = Trace(path="", spans=tele.spans)
        top_spans = [
            {
                "name": stat.name,
                "count": stat.count,
                "wall_self_seconds": round(stat.wall_self, 6),
                "cpu_self_seconds": round(stat.cpu_self, 6),
            }
            for stat in self_time_by_name(trace)[:5]
        ]
    config = dict(payload.get("config", {}))
    record = {
        "git_sha": git_sha(),
        "created_unix": time.time(),
        "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "config": config,
        "config_hash": hash_config(config),
        "speedup": payload.get("speedup"),
        "speedup_session": payload.get("speedup_session"),
        "speedup_fleet": payload.get("speedup_fleet"),
        "speedup_resolve": payload.get("speedup_resolve"),
        "counts": {
            section: {
                key: payload[section][key]
                for key in ("oracle_calls", "milp_solves", "lp_solves")
                if key in payload.get(section, {})
            }
            for section in ("cold", "warm", "session", "fleet", "resolve")
            if section in payload
        },
        "top_spans_by_self_time": top_spans,
    }
    path = Path(path)
    with path.open("a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    return path


_COMPARE_COUNT_KEYS = ("oracle_calls", "milp_solves", "lp_solves")
_COMPARE_SPEEDUP_KEYS = (
    "speedup", "speedup_session", "speedup_fleet", "speedup_resolve",
)


def compare_bench(payload: dict, reference: dict, *, max_regression: float = 1.25) -> list[str]:
    """Diff a fresh benchmark payload against a saved reference payload.

    Only hardware-independent metrics enter the comparison — solve
    *counts* per pass (which must not grow beyond
    ``reference * max_regression``) and the speedup *ratios* (which must
    not fall below ``reference / max_regression``); raw wall-clock
    seconds are never compared, so the gate is stable across machines.
    Sections or keys absent from either payload are skipped, which lets
    an old reference file gate a newer payload (and vice versa) without
    erroring.

    Returns a list of human-readable regression descriptions; an empty
    list means the payload is within tolerance.
    """
    if max_regression < 1.0:
        raise ValueError(f"max_regression must be >= 1.0, got {max_regression}")
    problems: list[str] = []
    for section in ("cold", "warm", "session", "fleet", "resolve"):
        cur, ref = payload.get(section), reference.get(section)
        if not isinstance(cur, dict) or not isinstance(ref, dict):
            continue
        for key in _COMPARE_COUNT_KEYS:
            if key not in cur or key not in ref:
                continue
            limit = ref[key] * max_regression
            if cur[key] > limit:
                problems.append(
                    f"{section}.{key}: {cur[key]} exceeds reference "
                    f"{ref[key]} x {max_regression:g} = {limit:g}"
                )
    for key in _COMPARE_SPEEDUP_KEYS:
        cur, ref = payload.get(key), reference.get(key)
        if cur is None or ref is None:
            continue
        floor = ref / max_regression
        if cur < floor:
            problems.append(
                f"{key}: {cur:.2f}x below reference {ref:.2f}x / "
                f"{max_regression:g} = {floor:.2f}x"
            )
    return problems


def format_bench(payload: dict) -> str:
    """Human-readable one-screen summary of a benchmark payload."""
    cold, warm, par = payload["cold"], payload["warm"], payload["parallel"]
    cfg = payload["config"]
    hit_rate = warm["cache_hit_rate"]
    hit_pct = f"({100 * hit_rate:.0f}%)" if hit_rate is not None else "(n/a)"
    lines = [
        f"bench_runtime: T={cfg['num_targets']} K={cfg['num_segments']} "
        f"eps={cfg['epsilon']} games={cfg['num_games']} seed={cfg['seed']}",
        f"  cold : {cold['wall_clock_seconds']:.2f}s  "
        f"oracle={cold['oracle_calls']}  milp={cold['milp_solves']}",
        f"  warm : {warm['wall_clock_seconds']:.2f}s  "
        f"oracle={warm['oracle_calls']}  milp={warm['milp_solves']}  "
        f"lp={warm['lp_solves']}  hits={warm['cache_hits']} "
        f"{hit_pct}",
        f"  speedup: {payload['speedup']:.2f}x",
    ]
    session = payload.get("session")
    if session is not None:
        lines.insert(
            3,
            f"  sess : {session['wall_clock_seconds']:.2f}s  "
            f"oracle={session['oracle_calls']}  milp={session['milp_solves']}  "
            f"patches={session['session_patches']}",
        )
        lines.append(f"  speedup_session: {payload['speedup_session']:.2f}x")
    fleet = payload.get("fleet")
    if fleet is not None:
        shape = fleet.get("shape_stats", {})
        lines.insert(
            4 if session is not None else 3,
            f"  fleet: {fleet['wall_clock_seconds']:.2f}s  "
            f"oracle={fleet['oracle_calls']}  milp={fleet['milp_solves']}  "
            f"patches={fleet['session_patches']}  "
            f"shape hits={shape.get('hits', 0)}/"
            f"misses={shape.get('misses', 0)}",
        )
        lines.append(f"  speedup_fleet: {payload['speedup_fleet']:.2f}x")
    resolve = payload.get("resolve")
    if resolve is not None:
        final = resolve["steps"][-1]
        lines.append(
            f"  rsolv: {resolve['wall_clock_seconds']:.3f}s over "
            f"{len(resolve['steps'])} drifts  "
            f"(10% shrinks: {resolve['ten_pct_seconds']:.3f}s vs cold "
            f"{resolve['cold_seconds']:.3f}s, milp={final['milp_solves']}, "
            f"patches={final['session_patches']})"
        )
        lines.append(f"  speedup_resolve: {payload['speedup_resolve']:.2f}x")
    lines.append(
        f"  parallel (workers={par['workers']}, {par['cells']} cells): "
        + ("identical to serial" if par["identical_to_serial"] else "MISMATCH"),
    )
    if payload.get("spans"):
        top = payload["spans"]["by_name"][:3]
        lines.append(
            "  spans: "
            + ", ".join(
                f"{a['name']} x{a['count']} ({a['total_seconds']:.2f}s)"
                for a in top
            )
        )
    return "\n".join(lines)
