"""Command-line experiment runner: ``python -m repro <experiment>``.

Regenerates any of the reproduction's tables/figures from the shell
without writing code::

    python -m repro table1
    python -m repro quality --targets 5 10 20 --trials 3
    python -m repro runtime --targets 5 10
    python -m repro intervals --scales 0 0.5 1.0
    python -m repro ablation --segments 2 8 32
    python -m repro all          # everything, at quick settings

Each command prints the same table its benchmark counterpart produces.

``sweep`` runs any experiment grid through ``run_grid`` and can write
the result table as canonical JSON, byte-identical across ``--workers``
settings::

    python -m repro sweep smoke --workers 2 --out table.json

``solve`` runs one CUBIS solve through the fault-tolerant pipeline::

    python -m repro solve --targets 8 --resilience --certify
    python -m repro solve --table1 --inject-faults 0.5 --certify

``--resilience`` routes every oracle step through the highs -> bnb -> dp
fallback ladder, ``--certify`` validates the machine-checkable solution
certificate, and ``--inject-faults RATE`` exercises the ladder with
seeded solver failures (see docs/RESILIENCE.md).

Every invocation runs under a telemetry context (docs/OBSERVABILITY.md):
``--telemetry out.jsonl`` (on ``solve``, ``sweep`` and ``serve``) dumps
the span tree and metrics as JSONL, and a run manifest (git SHA, seed,
config, aggregate metrics, slowest spans) is written at the end of every
run — ``--manifest PATH`` moves it, ``--no-manifest`` suppresses it,
``--no-telemetry`` disables span recording entirely (both are top-level
flags: ``repro --no-manifest table1``).

``--serve [PORT]`` (on ``sweep``, ``solve``, ``verify``)
serves live ``/healthz``, ``/metrics``, and ``/progress`` over HTTP
while the command runs, and ``trace`` analyses any ``--telemetry``
JSONL after the fact::

    python -m repro sweep smoke --serve 8765 --telemetry sweep.jsonl
    python -m repro trace report sweep.jsonl
    python -m repro trace critical-path sweep.jsonl
    python -m repro trace flamegraph sweep.jsonl --out flame.txt
    python -m repro trace diff before.jsonl after.jsonl
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import time

from repro.experiments import (
    calibrate_table1,
    format_ablation,
    format_landscape,
    format_intervals,
    format_quality,
    format_runtime,
    format_table1,
    run_ablation_epsilon,
    run_ablation_k,
    run_intervals,
    run_landscape,
    run_quality,
    run_runtime,
    run_table1,
)

__all__ = ["build_parser", "main"]


def _add_workers(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="fan trials out over N worker processes (results are "
             "bit-identical to a serial run at the same seed)",
    )


def _add_serve(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--serve", type=int, nargs="?", const=0, default=None,
        metavar="PORT",
        help="serve live /healthz, /metrics, and /progress over HTTP "
             "while the command runs (bare --serve binds an ephemeral "
             "port, printed to stderr; docs/OBSERVABILITY.md)",
    )


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the CUBIS paper's experiments (see EXPERIMENTS.md).",
    )
    parser.add_argument(
        "--manifest", type=str, default="RUN_manifest.json", metavar="PATH",
        help="where to write the run manifest (default: RUN_manifest.json)",
    )
    parser.add_argument(
        "--no-manifest", action="store_true",
        help="do not write a run manifest",
    )
    parser.add_argument(
        "--no-telemetry", action="store_true",
        help="disable span recording (metrics and the manifest remain)",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)

    t1 = sub.add_parser("table1", help="T1: the Table I worked example")
    t1.add_argument("--segments", type=int, default=25, help="piecewise segments K")
    t1.add_argument("--epsilon", type=float, default=1e-4, help="binary-search tolerance")

    q = sub.add_parser("quality", help="F1: worst-case quality vs #targets")
    q.add_argument("--targets", type=int, nargs="+", default=[5, 10, 20])
    q.add_argument("--trials", type=int, default=3)
    q.add_argument("--segments", type=int, default=10)
    q.add_argument("--epsilon", type=float, default=0.01)
    q.add_argument("--seed", type=int, default=2016)
    _add_workers(q)

    r = sub.add_parser("runtime", help="F2: runtime scaling vs #targets")
    r.add_argument("--targets", type=int, nargs="+", default=[5, 10, 20])
    r.add_argument("--trials", type=int, default=2)
    r.add_argument("--starts", type=int, default=8, help="multi-start comparator starts")
    r.add_argument("--seed", type=int, default=2016)
    _add_workers(r)

    i = sub.add_parser("intervals", help="F3: robustness value vs uncertainty level")
    i.add_argument("--scales", type=float, nargs="+", default=[0.0, 0.25, 0.5, 1.0, 1.5])
    i.add_argument("--targets", type=int, default=10)
    i.add_argument("--trials", type=int, default=3)
    i.add_argument("--seed", type=int, default=2016)
    _add_workers(i)

    a = sub.add_parser("ablation", help="F4: the O(epsilon + 1/K) bound, measured")
    a.add_argument("--segments", type=int, nargs="+", default=[2, 4, 8, 16, 32])
    a.add_argument("--epsilons", type=float, nargs="+", default=[0.5, 0.1, 0.02, 0.004])
    a.add_argument("--targets", type=int, default=5)
    a.add_argument("--trials", type=int, default=2)
    a.add_argument("--seed", type=int, default=2016)
    _add_workers(a)

    l = sub.add_parser("landscape", help="F5: all nine solution concepts, one table")
    l.add_argument("--targets", type=int, default=10)
    l.add_argument("--trials", type=int, default=3)
    l.add_argument("--types", type=int, default=6)
    l.add_argument("--seed", type=int, default=2016)
    _add_workers(l)

    sw = sub.add_parser(
        "sweep",
        help="run an experiment sweep and optionally write its table "
             "as canonical JSON",
    )
    sw.add_argument(
        "driver",
        choices=["smoke", "quality", "runtime", "intervals",
                 "ablation-k", "ablation-epsilon", "landscape"],
        help="which experiment's grid to run ('smoke' is a tiny fully "
             "deterministic grid for infrastructure checks)",
    )
    sw.add_argument("--targets", type=int, nargs="+", default=None,
                    help="target counts (quality/runtime/smoke: the swept "
                         "sizes; others: the fixed game size)")
    sw.add_argument("--trials", type=int, default=2)
    sw.add_argument("--seed", type=int, default=2016)
    _add_workers(sw)
    sw.add_argument("--on-error", type=str, default="raise",
                    choices=["raise", "record"],
                    help="raise on the first failing cell, or record "
                         "failures and keep the siblings")
    sw.add_argument("--out", type=str, default=None, metavar="FILE",
                    help="write the result table as canonical JSON "
                         "(byte-comparable across --workers runs)")
    sw.add_argument("--telemetry", type=str, default=None, metavar="PATH",
                    help="write the sweep's merged span tree and metrics "
                         "as JSONL (feeds `repro trace`)")
    _add_serve(sw)

    c = sub.add_parser(
        "calibrate",
        help="re-run the Table I defender-payoff calibration (DESIGN.md §2)",
    )
    c.add_argument("--grid-points", type=int, default=251)

    rep = sub.add_parser(
        "report", help="regenerate the full experimental report as markdown"
    )
    rep.add_argument("--full", action="store_true", help="full (slow) settings")
    rep.add_argument("--output", type=str, default=None, help="write to a file")

    s = sub.add_parser(
        "solve", help="one CUBIS solve through the fault-tolerant pipeline"
    )
    s.add_argument("--targets", type=int, default=8, help="random-game size T")
    s.add_argument("--table1", action="store_true",
                   help="solve the paper's Table I game instead of a random one")
    s.add_argument("--segments", type=int, default=10, help="piecewise segments K")
    s.add_argument("--epsilon", type=float, default=1e-3,
                   help="binary-search tolerance")
    s.add_argument("--seed", type=int, default=2016, help="game seed")
    s.add_argument("--resilience", action="store_true",
                   help="use the highs -> bnb -> dp fallback ladder")
    s.add_argument("--certify", action="store_true",
                   help="validate and print the solution certificate")
    s.add_argument("--inject-faults", type=float, default=0.0, metavar="RATE",
                   help="inject seeded MILP faults at this rate "
                        "(implies --resilience)")
    s.add_argument("--fault-seed", type=int, default=0,
                   help="seed of the injected fault schedule")
    s.add_argument("--retries", type=int, default=1,
                   help="extra attempts per ladder rung")
    s.add_argument("--events", action="store_true",
                   help="print the per-attempt event summary")
    s.add_argument("--telemetry", type=str, default=None, metavar="PATH",
                   help="write the solve's span tree and metrics as JSONL")
    _add_serve(s)

    v = sub.add_parser(
        "verify",
        help="run the conformance battery (docs/VERIFICATION.md); "
             "exits nonzero on any violation",
    )
    v.add_argument("--seeds", type=int, default=3,
                   help="number of random seeded instances (besides Table I)")
    v.add_argument("--targets", type=int, default=5,
                   help="targets per random instance")
    v.add_argument("--segments", type=int, default=10, help="piecewise segments K")
    v.add_argument("--epsilon", type=float, default=1e-3,
                   help="binary-search tolerance")
    v.add_argument("--fast", action="store_true",
                   help="CI smoke settings: skip the monotonicity sweep, "
                        "fewer comparator multistarts")
    v.add_argument("--paths", type=str, nargs="+", default=None,
                   metavar="PATH",
                   help="solver paths to cross-check "
                        "(default: milp-highs milp-bnb milp-reference "
                        "milp-fleet milp-resolve dp exact)")
    v.add_argument("--inject-faults", type=float, default=0.0, metavar="RATE",
                   help="corrupt the MILP path with seeded faults at this "
                        "rate (the battery must then FAIL — self-test)")
    v.add_argument("--fault-seed", type=int, default=0,
                   help="seed of the injected fault schedule")
    v.add_argument("--report", type=str, default="VERIFY_report.jsonl",
                   metavar="PATH",
                   help="JSONL conformance report (spans + metrics + verdicts)")
    v.add_argument("--golden-dir", type=str, default=None, metavar="DIR",
                   help="golden fixture directory (default: tests/golden)")
    v.add_argument("--no-golden", action="store_true",
                   help="skip the golden-fixture comparisons")
    v.add_argument("--regenerate", action="store_true",
                   help="recompute and rewrite the golden fixtures instead "
                        "of checking them (refuses on unexplained drift)")
    v.add_argument("--reason", type=str, default=None,
                   help="why regenerated values are allowed to drift "
                        "(recorded in fixture provenance)")
    _add_serve(v)

    tr = sub.add_parser(
        "trace",
        help="analyse a telemetry JSONL trace: per-name self-time report, "
             "critical path, collapsed-stack flamegraph, or a diff of two "
             "traces (docs/OBSERVABILITY.md)",
    )
    tr.add_argument(
        "action",
        choices=["report", "critical-path", "flamegraph", "diff"],
        help="report: totals + top span names by self-time; "
             "critical-path: the root-to-leaf chain accounting for the "
             "run's wall time; flamegraph: collapsed-stack lines "
             "(flamegraph.pl / speedscope); diff: top span-level deltas "
             "between two traces",
    )
    tr.add_argument("paths", type=str, nargs="+", metavar="TRACE",
                    help="telemetry JSONL file(s) — one for "
                         "report/critical-path/flamegraph, two "
                         "(before after) for diff")
    tr.add_argument("--top", type=int, default=15, metavar="N",
                    help="rows to show in report/diff output")
    tr.add_argument("--out", type=str, default=None, metavar="FILE",
                    help="write flamegraph lines to FILE instead of stdout")

    srv = sub.add_parser(
        "serve",
        help="run the solve-as-a-service daemon: POST /v1/solve with "
             "request coalescing, per-tenant quotas, and a bounded queue "
             "(docs/SERVICE.md)",
    )
    srv.add_argument("--host", type=str, default="127.0.0.1",
                     help="bind address (default: loopback only)")
    srv.add_argument("--port", type=int, default=0, metavar="PORT",
                     help="TCP port; 0 binds an ephemeral port, printed "
                          "on stdout at startup")
    srv.add_argument("--workers", type=int, default=2, metavar="N",
                     help="solver worker threads draining the queue")
    srv.add_argument("--queue-depth", type=int, default=16, metavar="N",
                     help="bounded request-queue depth; a full queue "
                          "answers 429 + Retry-After")
    srv.add_argument("--quota-rate", type=float, default=None, metavar="R",
                     help="per-tenant token-bucket refill rate in "
                          "requests/second (default: quotas disabled)")
    srv.add_argument("--quota-burst", type=int, default=8, metavar="N",
                     help="per-tenant token-bucket burst capacity")
    srv.add_argument("--cache-size", type=int, default=64, metavar="N",
                     help="response-cache entries (also bounds the "
                          "warm-start bank)")
    srv.add_argument("--request-timeout", type=float, default=None,
                     metavar="SECONDS",
                     help="soft per-request wall-clock budget; overruns "
                          "answer 503 and are not cached")
    srv.add_argument("--inject-faults", type=float, default=0.0,
                     metavar="RATE",
                     help="chaos switch: wrap every MILP rung with the "
                          "fault injector at this failure rate (testing)")
    srv.add_argument("--fault-seed", type=int, default=0, metavar="SEED",
                     help="fault-injector RNG seed")
    srv.add_argument("--telemetry", type=str, default=None, metavar="PATH",
                     help="write the service's telemetry JSONL here on "
                          "shutdown")

    sub.add_parser("all", help="run every experiment at quick settings")
    return parser


def _run_table1(args) -> str:
    return format_table1(run_table1(num_segments=args.segments, epsilon=args.epsilon))


def _run_quality(args) -> str:
    table = run_quality(
        target_counts=tuple(args.targets),
        num_trials=args.trials,
        num_segments=args.segments,
        epsilon=args.epsilon,
        seed=args.seed,
        workers=args.workers,
    )
    return format_quality(table)


def _run_runtime(args) -> str:
    table = run_runtime(
        target_counts=tuple(args.targets),
        num_trials=args.trials,
        num_starts=args.starts,
        seed=args.seed,
        workers=args.workers,
    )
    return format_runtime(table)


def _run_intervals(args) -> str:
    table = run_intervals(
        scales=tuple(args.scales),
        num_targets=args.targets,
        num_trials=args.trials,
        seed=args.seed,
        workers=args.workers,
    )
    return format_intervals(table)


def _run_ablation(args) -> str:
    k_table = run_ablation_k(
        segment_counts=tuple(args.segments),
        num_targets=args.targets,
        num_trials=args.trials,
        seed=args.seed,
        workers=args.workers,
    )
    e_table = run_ablation_epsilon(
        epsilons=tuple(args.epsilons),
        num_targets=args.targets,
        num_trials=args.trials,
        seed=args.seed,
        workers=args.workers,
    )
    return (
        format_ablation(k_table, "num_segments")
        + "\n\n"
        + format_ablation(e_table, "epsilon")
    )


def _run_landscape(args) -> str:
    table = run_landscape(
        num_targets=args.targets,
        num_trials=args.trials,
        num_types=args.types,
        seed=args.seed,
        workers=args.workers,
    )
    return format_landscape(table)


def _table_json(table) -> str:
    """Canonical JSON for a result table: sorted keys, fixed layout —
    the byte-comparable artifact the serial/pooled identity checks
    diff."""
    import json

    return json.dumps(table.to_dict(), sort_keys=True, indent=2) + "\n"


def _run_sweep(args) -> str:
    import pathlib

    from repro.experiments.smoke import run_smoke

    first = (args.targets or [None])[0]
    drivers = {
        "smoke": (run_smoke, {"target_counts": tuple(args.targets or (3, 4))}),
        "quality": (run_quality,
                    {"target_counts": tuple(args.targets or (5, 10, 20))}),
        "runtime": (run_runtime,
                    {"target_counts": tuple(args.targets or (5, 10, 20))}),
        "intervals": (run_intervals, {"num_targets": first or 10}),
        "ablation-k": (run_ablation_k, {"num_targets": first or 5}),
        "ablation-epsilon": (run_ablation_epsilon, {"num_targets": first or 5}),
        "landscape": (run_landscape, {"num_targets": first or 6}),
    }
    driver, kwargs = drivers[args.driver]
    table = driver(
        num_trials=args.trials,
        seed=args.seed,
        workers=args.workers,
        on_error=args.on_error,
        **kwargs,
    )
    lines = [
        f"sweep {args.driver}: {len(table.rows)} rows, "
        f"{len(table.failures)} failed cells"
    ]
    for failure in table.failures:
        lines.append(
            f"  cell {failure.cell_index} trial {failure.trial_index}: "
            f"{failure.error_type}: {failure.error_message}"
        )
    if args.out:
        pathlib.Path(args.out).write_text(_table_json(table))
        lines.append(f"table written to {args.out}")
    return "\n".join(lines)


def _run_calibrate(args) -> str:
    best = calibrate_table1(grid_points=args.grid_points)
    lines = [
        "Table I defender-payoff calibration (best candidate):",
        f"  R^d = {best.defender_reward}, P^d = {best.defender_penalty}",
        f"  robust:   x1 = {best.robust_x1:.3f} (paper 0.46), "
        f"value = {best.robust_value:.3f} (paper -0.90)",
        f"  midpoint: x1 = {best.midpoint_x1:.3f} (paper 0.34), "
        f"value = {best.midpoint_value:.3f} (paper -2.26)",
        f"  score = {best.score:.4f}",
    ]
    return "\n".join(lines)


def _run_report(args) -> str:
    from repro.experiments.report import FULL, QUICK, generate_report

    text = generate_report(FULL if args.full else QUICK)
    if args.output:
        import pathlib

        pathlib.Path(args.output).write_text(text)
        return f"report written to {args.output}"
    return text


def _run_solve(args) -> str:
    import numpy as np

    from repro.core.cubis import solve_cubis
    from repro.experiments.quality import default_uncertainty
    from repro.game.generator import random_interval_game, table1_game
    from repro.resilience import (
        FaultInjector,
        ResiliencePolicy,
        certify_result,
        injected_policy,
    )

    if args.table1:
        game = table1_game()
    else:
        game = random_interval_game(args.targets, seed=args.seed)
    uncertainty = default_uncertainty(game.payoffs)

    policy = None
    injector = None
    if args.resilience or args.inject_faults != 0.0:
        policy = ResiliencePolicy(max_retries=args.retries)
        if args.inject_faults != 0.0:
            injector = FaultInjector(args.inject_faults, seed=args.fault_seed)
            policy = injected_policy(injector, policy)

    result = solve_cubis(
        game,
        uncertainty,
        num_segments=args.segments,
        epsilon=args.epsilon,
        resilience=policy,
    )

    with np.printoptions(precision=4, suppress=True):
        lines = [
            f"strategy          {result.strategy}",
            f"worst-case value  {result.worst_case_value:.6f}",
            f"bracket           [{result.lower_bound:.6f}, {result.upper_bound:.6f}]"
            f"  (gap {result.upper_bound - result.lower_bound:.2g})",
            f"iterations        {result.iterations}"
            f"  ({result.solve_seconds:.3f}s)",
            f"converged         {result.converged}",
            f"session           {result.session_mode}",
        ]
    if result.resilience is not None:
        rep = result.resilience
        used = ", ".join(
            f"{label}={count}"
            for label, count in zip(rep.rung_labels, rep.rung_counts)
        )
        lines.append(f"degraded          {rep.degraded}")
        lines.append(f"ladder            {used}"
                     f"  ({rep.failed_attempts} failed attempts)")
    if injector is not None:
        lines.append(
            f"injected faults   {injector.faults}/{injector.calls} MILP calls"
        )
    if args.events and result.resilience is not None:
        by_outcome: dict[str, int] = {}
        for event in result.resilience.events:
            by_outcome[event.outcome] = by_outcome.get(event.outcome, 0) + 1
        lines.append("events            " + ", ".join(
            f"{k}={v}" for k, v in sorted(by_outcome.items())
        ))
    if args.certify:
        certificate = certify_result(game, uncertainty, result)
        lines.append(certificate.summary())
        if not certificate.valid:
            # Certification is a gate: fail the process so CI catches it.
            raise SystemExit("\n".join(lines))
    return "\n".join(lines)


def _run_verify(args) -> str:
    from repro import telemetry
    from repro.verify import (
        DEFAULT_PATHS,
        load_all_fixtures,
        regenerate_fixture,
        run_battery,
        save_fixture,
    )

    if args.regenerate:
        fixtures = load_all_fixtures(args.golden_dir)
        if not fixtures:
            return "no golden fixtures found — nothing to regenerate"
        lines = []
        for fixture in fixtures:
            # GoldenDriftError propagates: unexplained drift must not be
            # silently re-pinned (pass --reason to accept it).
            updated = regenerate_fixture(fixture, reason=args.reason)
            path = save_fixture(updated)
            drifted = updated.provenance.get("drifted_keys", [])
            note = f" (drifted: {', '.join(drifted)})" if drifted else ""
            lines.append(f"regenerated {updated.name} -> {path}{note}")
        return "\n".join(lines)

    tele = telemetry.current()
    paths = tuple(args.paths) if args.paths else DEFAULT_PATHS
    reports = run_battery(
        seeds=args.seeds,
        num_targets=args.targets,
        num_segments=args.segments,
        epsilon=args.epsilon,
        paths=paths,
        fast=args.fast,
        inject_faults=args.inject_faults,
        fault_seed=args.fault_seed,
        golden_dir=args.golden_dir,
        include_golden=not args.no_golden,
    )
    for report in reports:
        tele.counter(
            "verify_checks_total", instance=report.instance
        ).inc(len(report.checks))
        tele.counter(
            "verify_failures_total", instance=report.instance
        ).inc(len(report.failures()))
    if args.report:
        telemetry.write_jsonl(
            tele, args.report, extra_records=[r.to_dict() for r in reports]
        )

    total = sum(len(r.checks) for r in reports)
    failed = sum(len(r.failures()) for r in reports)
    lines = [r.summary() for r in reports]
    lines.append(
        f"battery: {len(reports)} instances, {total - failed}/{total} checks passed"
        + (f"; report -> {args.report}" if args.report else "")
    )
    output = "\n".join(lines)
    if failed:
        # Conformance is a gate: fail the process so CI catches it.
        raise SystemExit(output)
    return output


def _run_trace(args) -> str:
    import pathlib

    from repro.obs import traces

    if args.action == "diff":
        if len(args.paths) != 2:
            raise SystemExit(
                "trace diff takes exactly two trace files (before after), "
                f"got {len(args.paths)}"
            )
        before = traces.load_trace(args.paths[0])
        after = traces.load_trace(args.paths[1])
        return (
            f"diff: {args.paths[0]} -> {args.paths[1]}\n"
            + traces.format_diff(traces.diff_traces(before, after),
                                 top=args.top)
        )
    if len(args.paths) != 1:
        raise SystemExit(
            f"trace {args.action} takes exactly one trace file, "
            f"got {len(args.paths)}"
        )
    trace = traces.load_trace(args.paths[0])
    if args.action == "report":
        return traces.format_report(trace, top=args.top)
    if args.action == "critical-path":
        return traces.format_critical_path(traces.critical_path(trace))
    lines = traces.flamegraph_lines(trace)
    if args.out:
        pathlib.Path(args.out).write_text("\n".join(lines) + "\n")
        return f"flamegraph ({len(lines)} stacks) written to {args.out}"
    return "\n".join(lines)


def _run_serve(args) -> str:
    """Run the solve daemon until SIGTERM/SIGINT, then drain and report.

    The engine shares the CLI's telemetry context, so ``--telemetry``
    captures ``service.request`` events and worker solve spans, and the
    run manifest summarises the service counters; under
    ``--no-telemetry`` the ``/metrics`` endpoint answers 503 (no
    registry attached) while internal counters keep working.
    """
    import signal
    import threading

    from repro import telemetry
    from repro.obs import ProgressBoard, use_board
    from repro.service import SolveEngine
    from repro.service.daemon import ServiceDaemon

    tele = telemetry.current()
    injector = None
    if args.inject_faults > 0:
        from repro.resilience.faults import FaultInjector

        injector = FaultInjector(args.inject_faults, seed=args.fault_seed)
    engine = SolveEngine(
        workers=args.workers,
        queue_depth=args.queue_depth,
        quota_rate=args.quota_rate,
        quota_burst=args.quota_burst,
        cache_size=args.cache_size,
        request_timeout=args.request_timeout,
        fault_injector=injector,
        telemetry=tele,
    )
    registry = None if args.no_telemetry else tele.metrics
    board = ProgressBoard()
    stop = threading.Event()

    def _on_signal(signum, frame) -> None:
        stop.set()

    previous = {
        sig: signal.signal(sig, _on_signal)
        for sig in (signal.SIGTERM, signal.SIGINT)
    }
    try:
        with use_board(board), ServiceDaemon(
            engine, port=args.port, host=args.host,
            registry=registry, board=board,
        ) as daemon:
            print(f"solve service listening on {daemon.url}", flush=True)
            while not stop.wait(0.5):
                pass
            print("shutdown signal received, draining...",
                  file=sys.stderr, flush=True)
        # the context exit ran daemon.stop(): listener closed, queue
        # drained, workers joined — safe to report final counters.
        metrics = tele.metrics
        summary = {
            "requests": sum(
                c.value for c in metrics
                if c.name == "repro_service_requests_total"),
            "solves": metrics.counter("repro_service_solves_total").value,
            "coalesced": metrics.counter(
                "repro_service_coalesced_total").value,
            "cache_hits": metrics.counter(
                "repro_service_cache_hits_total").value,
            "rejected": sum(
                c.value for c in metrics
                if c.name == "repro_service_rejected_total"),
            "errors": metrics.counter("repro_service_errors_total").value,
        }
        return "service stopped: " + ", ".join(
            f"{name}={int(value)}" for name, value in summary.items())
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)


def _run_all() -> str:
    parser = build_parser()
    sections = []
    for cmd, runner in (
        (["table1"], _run_table1),
        (["quality", "--targets", "5", "10", "--trials", "2"], _run_quality),
        (["runtime", "--targets", "5", "10", "--trials", "1"], _run_runtime),
        (["intervals", "--scales", "0", "0.5", "1.0", "--trials", "2"], _run_intervals),
        (["ablation", "--segments", "2", "8", "32", "--trials", "1"], _run_ablation),
        (["landscape", "--targets", "6", "--trials", "1", "--types", "4"], _run_landscape),
    ):
        sections.append(runner(parser.parse_args(cmd)))
    return "\n\n".join(sections)


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code.

    The command runs inside a ``cli.<experiment>`` root span of a fresh
    telemetry context; on the way out the context is flushed to the
    ``--telemetry`` JSONL file (``solve`` only) and summarised into the
    run manifest — even when the command fails, so a crashed run still
    leaves its config, metrics, and slowest spans behind for triage.
    """
    from repro import telemetry

    args = build_parser().parse_args(argv)
    runners = {
        "table1": _run_table1,
        "quality": _run_quality,
        "runtime": _run_runtime,
        "intervals": _run_intervals,
        "ablation": _run_ablation,
        "landscape": _run_landscape,
        "sweep": _run_sweep,
        "calibrate": _run_calibrate,
        "report": _run_report,
        "solve": _run_solve,
        "verify": _run_verify,
        "trace": _run_trace,
        "serve": _run_serve,
    }
    tele = telemetry.DISABLED if args.no_telemetry else telemetry.Telemetry()
    t0 = time.perf_counter()
    status = "ok"
    with telemetry.use(tele), contextlib.ExitStack() as stack:
        if getattr(args, "serve", None) is not None:
            # Live ops plane: /healthz, /metrics (this run's registry),
            # /progress (heartbeats from run_grid/solve_fleet/solve_cubis).
            from repro.obs import ProgressBoard, use_board
            from repro.obs.server import ObsServer

            board = ProgressBoard()
            # Under --no-telemetry there is no meaningful registry to
            # scrape; /metrics answers 503 (the documented behaviour,
            # shared with the solve daemon via ObsRoutes).
            registry = None if args.no_telemetry else tele.metrics
            server = stack.enter_context(
                ObsServer(registry=registry, board=board, port=args.serve)
            )
            stack.enter_context(use_board(board))
            print(f"obs server listening on {server.url}",
                  file=sys.stderr, flush=True)
        try:
            with tele.span(f"cli.{args.experiment}"):
                if args.experiment == "all":
                    output = _run_all()
                else:
                    output = runners[args.experiment](args)
        except BaseException:
            status = "error"
            raise
        finally:
            telemetry_path = getattr(args, "telemetry", None)
            if telemetry_path and tele.enabled:
                telemetry.write_jsonl(tele, telemetry_path)
            if not args.no_manifest:
                manifest = telemetry.build_manifest(
                    command=args.experiment,
                    config=vars(args),
                    telemetry=tele,
                    seed=getattr(args, "seed", None),
                    status=status,
                    wall_clock_seconds=time.perf_counter() - t0,
                )
                telemetry.write_manifest(manifest, args.manifest)
    print(output)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
