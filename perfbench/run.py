"""Benchmark driver for the CUBIS reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload solve_batch --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing patched.
``--trace 1`` runs the workload twice on identical inputs, first
untraced and then with span probes on every layer (see ``tracing.py``),
each for half of ``--seconds``, and reports the per-layer metrics plus
the tracing overhead and the strongest-alternative references.

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it is
the run record (seed, input hash, config hash, source hash, git SHA,
sample counts).  Both, and the spans of a traced run, are also written
under ``perfbench/out/``.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Setup is repeated this many times per run and its median reported.
SETUP_REPEATS = 3
#: Seconds between calibration kernel runs inside the timed region.
CALIBRATION_INTERVAL_S = 1.0
#: Median calibration kernel time on the reference machine (2-core
#: Intel Xeon VM, Python 3.11, scipy HiGHS) at its usual speed.
CALIBRATION_REF_S = 0.034

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "p50_ms": "ms",
    "tail_ms": "ms",
    "throughput_per_s": "1/s",
    "worst_case_mean": "norm_utility",
}

#: Layers whose self times partition a traced workload's wall time.
LAYERS = ("bench", "cubis", "binary_search", "milp_backend", "highs", "session",
          "milp", "dp", "fleet", "behavior", "resolve", "service", "resilience")

PER_LAYER_UNITS = {
    "milp_backend.lp_calls": "count",
    "milp_backend.lp_ms": "ms",
    "milp_backend.lp_busy_s": "s",
    "milp_backend.milp_calls": "count",
    "milp_backend.milp_busy_s": "s",
    "milp_backend.scipy_share": "ratio",
    "milp_backend.lp_ms.t50": "ms",
    "milp_backend.lp_ms.t100": "ms",
    "milp_backend.lp_ms.t200": "ms",
    "session.prepare_calls": "count",
    "session.prepare_busy_s": "s",
    "session.fresh_builds": "count",
    "milp.skeleton_builds": "count",
    "milp.skeleton_build_s": "s",
    "milp.drift_patch_s": "s",
    "cubis.oracle_calls_per_solve": "count",
    "cubis.cert_hit_ratio": "ratio",
    "cubis.self_s": "s",
    "binary_search.steps": "count",
    "binary_search.self_s": "s",
    "behavior.grid_s": "s",
    "resolve.bracket_reuse_ratio": "ratio",
    "resolve.warm_hit_ratio": "ratio",
    "resolve.calls_per_step.shrink": "count",
    "resolve.calls_per_step.mixed": "count",
    "resolve.classify_s": "s",
    "resolve.vs_warm_ratio": "ratio",
    "dp.calls": "count",
    "dp.busy_s": "s",
    "dp.ms_per_call": "ms",
    "dp.cells_computed": "count",
    "fleet.dp_rounds": "count",
    "fleet.shape_hit_ratio": "ratio",
    "fleet.vs_sequential_ratio": "ratio",
    "service.canonicalize_ms": "ms",
    "service.admit_ms": "ms",
    "service.queue_wait_ms.p50": "ms",
    "service.queue_wait_ms.tail": "ms",
    "service.solve_ms": "ms",
    "service.encode_ms": "ms",
    "service.cache_hit_ratio": "ratio",
    "service.coalesced_ratio": "ratio",
    "service.rejected": "count",
    "resilience.attempts_per_solve": "count",
    "resilience.fallbacks": "count",
    "telemetry.overhead_frac": "ratio",
    "bench.gen_lag_ms": "ms",
    "bench.fail_frac": "ratio",
    "bench.slowdown": "ratio",
    "trace.wall_s": "s",
    "trace.telescope_error_s": "s",
    **{f"self_s.{layer}": "s" for layer in LAYERS},
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input sizes; 'tiny' is for the benchmark's tests")
    parser.add_argument("--out", type=Path, default=OUT,
                        help="directory for the run record and spans")
    return parser.parse_args(argv)


# --------------------------------------------------------------------------- #
# helpers                                                                     #
# --------------------------------------------------------------------------- #


def _ms(seconds: float) -> float:
    return seconds * 1e3


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _quantile(values, q: float) -> float:
    """The smallest sample at or above the ``q`` quantile (no
    interpolation, so refused requests stay infinite)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return float(ordered[min(len(ordered) - 1, math.ceil(q * len(ordered)) - 1)])


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def source_hash() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def pin_to_one_cpu() -> None:
    """Keep this process, and every thread it starts from now on, on one
    CPU (the lowest it may use)."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Calibration:
    """A fixed kernel that touches none of the program under test: one
    HiGHS LP through ``scipy.optimize.linprog``, a pure-Python loop and
    a numpy sort, the same mix of work the solver does.

    The machine the benchmark was tuned on is shared, and its speed
    drifts by up to a third, over seconds and for minutes at a time; the
    kernel slows down with it (measured there, interleaved with solves:
    the ratio of a CUBIS solve to the kernel varied by 3.5% where the
    solve alone varied by 18%).  The workload loops call :meth:`tick`
    between operations, which runs the kernel about once a second.  For
    the workloads whose time tracks the kernel, end-to-end timings are
    reported at the reference speed: multiplied by
    ``CALIBRATION_REF_S / median kernel time``.  The host slows one CPU
    at a time, so the kernel only tracks work on the CPU it ran on: the
    single-threaded loops run both on the main thread, and the threaded
    DP fleet and the open-loop service pin the process to one CPU, on
    which their threads take turns.  The kernel is timed in its thread's
    CPU time, which slows with the machine (the host takes no CPU time
    from the process; it runs it slower) but not with waiting for the
    workers, so the service can calibrate while the engine is busy.  The
    open-loop service runs the kernel before each request instead of
    once a second and scales each latency by the kernels around it
    (``Workload.per_request_speed``).
    """

    def __init__(self) -> None:
        import numpy as np
        import scipy.sparse as sparse

        rng = np.random.default_rng(0)
        size = 400
        self._a = sparse.random(size, size, density=0.02, random_state=1,
                                format="csr") + sparse.eye(size)
        self._b = np.ones(size)
        self._c = -np.abs(rng.standard_normal(size))
        self._sortable = rng.standard_normal(20000)
        self._last = -math.inf
        self.times: list[float] = []

    def sample(self) -> float:
        """Run the kernel once; return its time."""
        import numpy as np
        from scipy.optimize import linprog

        # CPU time of this thread: a kernel that shares its CPU with busy
        # workers is not charged for the time it waits for them.
        t0 = time.thread_time()
        linprog(self._c, A_ub=self._a, b_ub=self._b, bounds=(0, 1),
                method="highs")
        total = 0
        for i in range(30000):
            total += i % 7
        np.sort(self._sortable)
        self.times.append(time.thread_time() - t0)
        self._last = time.perf_counter()
        return self.times[-1]

    def tick(self) -> None:
        """Run the kernel if a calibration interval has passed."""
        if time.perf_counter() - self._last >= CALIBRATION_INTERVAL_S:
            self.sample()

    @property
    def slowdown(self) -> float:
        """How much slower than the reference the machine ran."""
        return _median(self.times) / CALIBRATION_REF_S


# --------------------------------------------------------------------------- #
# metric assembly                                                             #
# --------------------------------------------------------------------------- #


def end_to_end(workload, state, ops, setup_s, rss,
               slowdown: float) -> tuple[dict, dict]:
    q = workload.config["tail_q"]
    latencies = workload.latencies(ops)
    tail = _quantile(latencies, q)
    raw = {
        "p50_ms": _ms(_median(latencies)),
        "tail_ms": _ms(tail),
        "throughput_per_s": workload.throughput(state, ops),
    }
    # Only the workloads whose time the calibration kernel tracks are
    # scaled to the reference machine speed (see Calibration).
    scale = slowdown if workload.speed_normalised else 1.0
    values = {
        "setup_s": setup_s,
        "peak_rss_mb": rss,
        "p50_ms": raw["p50_ms"] / scale,
        "tail_ms": raw["tail_ms"] / scale,
        "throughput_per_s": raw["throughput_per_s"] * scale,
        "worst_case_mean": workload.quality(state, ops),
    }
    if workload.per_request_speed:
        # Each latency at the speed the kernel measured around that
        # request (``kernel_s``, see ServiceMix).
        scaled = [lat * CALIBRATION_REF_S / op.extra["kernel_s"]
                  for lat, op in zip(latencies, ops)]
        values["p50_ms"] = _ms(_median(scaled))
        values["tail_ms"] = _ms(_quantile(scaled, q))
    detail = {
        "raw": raw,
        "slowdown": slowdown,
        "speed_normalised": workload.speed_normalised,
        "per_request_speed": workload.per_request_speed,
        "tail_percentile": q * 100,
        "samples": len(latencies),
        "samples_beyond_tail": int(sum(v > tail for v in latencies)),
    }
    return values, detail


def per_layer(workload, tracer, root, ops_a, ops_b, references, lags) -> dict:
    counts, samples = tracer.counts, tracer.samples
    spans = tracer.finished()

    def busy(*names):
        return sum(s.end - s.start for s in spans if s.name in names)

    def n(name):
        return sum(1 for s in spans if s.name == name)

    layer_self = tracer.layer_self_times(root)
    wall = root.end - root.start
    lp_s = tracer.durations("milp_backend.lp")
    milp_s = tracer.durations("milp_backend.milp")
    solve_milp_s = sum(lp_s) + sum(milp_s)
    submits = counts["service.submits"]
    steps = counts["resolve.steps"]
    values = {
        "milp_backend.lp_calls": len(lp_s),
        "milp_backend.lp_ms": _ms(_ratio(sum(lp_s), len(lp_s))),
        "milp_backend.lp_busy_s": sum(lp_s),
        "milp_backend.milp_calls": len(milp_s),
        "milp_backend.milp_busy_s": sum(milp_s),
        "milp_backend.scipy_share": _ratio(busy("highs.milp"), solve_milp_s),
        "session.prepare_calls": counts["session.prepare_calls"],
        "session.prepare_busy_s": busy("session.prepare"),
        "session.fresh_builds": counts["session.fresh_builds"],
        "milp.skeleton_builds": n("milp.skeleton_build"),
        "milp.skeleton_build_s": busy("milp.skeleton_build"),
        "milp.drift_patch_s": busy("milp.diff_from"),
        "cubis.oracle_calls_per_solve": _ratio(counts["cubis.oracle_calls"],
                                               counts["cubis.solves"]),
        "cubis.cert_hit_ratio": _ratio(counts["cubis.cache_hits"],
                                       counts["cubis.oracle_calls"]),
        "cubis.self_s": layer_self.get("cubis", 0.0),
        "binary_search.steps": counts["binary_search.steps"],
        "binary_search.self_s": layer_self.get("binary_search", 0.0),
        "behavior.grid_s": busy("behavior.lower_on_grid", "behavior.upper_on_grid"),
        "resolve.bracket_reuse_ratio": _ratio(counts["resolve.bracket_reuses"], steps),
        "resolve.warm_hit_ratio": _ratio(counts["resolve.warm_hits"], steps),
        "resolve.calls_per_step.shrink": _ratio(counts["resolve.calls.shrink"],
                                                counts["resolve.steps.shrink"]),
        "resolve.calls_per_step.mixed": _ratio(counts["resolve.calls.mixed"],
                                               counts["resolve.steps.mixed"]),
        "resolve.classify_s": busy("resolve.classify"),
        "resolve.vs_warm_ratio": references.get("resolve.vs_warm_ratio", 0.0),
        "dp.calls": counts["dp.calls"],
        "dp.busy_s": busy("dp.kernel", "dp.batch"),
        "dp.ms_per_call": _ms(_ratio(busy("dp.kernel", "dp.batch"), counts["dp.calls"])),
        "dp.cells_computed": counts["dp.cells_computed"],
        "fleet.dp_rounds": counts["fleet.dp_rounds"],
        "fleet.shape_hit_ratio": _ratio(counts["fleet.shape_hits"],
                                        counts["fleet.shape_leases"]),
        "fleet.vs_sequential_ratio": references.get("fleet.vs_sequential_ratio", 0.0),
        "service.cache_hit_ratio": _ratio(counts["service.cache_hits"], submits),
        "service.coalesced_ratio": _ratio(counts["service.coalesced"], submits),
        "service.rejected": sum(bool(op.extra.get("rejected")) for op in ops_b),
        "resilience.attempts_per_solve": _ratio(counts["resilience.attempts"],
                                                counts["resilience.solves"]),
        "resilience.fallbacks": counts["resilience.fallbacks"],
        "bench.gen_lag_ms": _ms(max(lags, default=0.0)),
        "trace.wall_s": wall,
        "trace.telescope_error_s": abs(wall - sum(layer_self.values())),
    }
    for size in (50, 100, 200):
        values[f"milp_backend.lp_ms.t{size}"] = _ms(_median(samples[f"lp_s.t{size}"]))
    values.update(service_split(tracer))
    # Tracing overhead: the same inputs, untraced (first) then traced.
    a, b = workload.latencies(ops_a), workload.latencies(ops_b)
    common = min(len(a), len(b))
    base = _median(a[:common])
    values["telemetry.overhead_frac"] = _ratio(_median(b[:common]) - base, base)
    for layer in LAYERS:
        values[f"self_s.{layer}"] = layer_self.get(layer, 0.0)
    return values


def service_split(tracer) -> dict:
    """Per-request phase latencies of the service layer (medians)."""
    canon = tracer.durations("service.canonicalize")
    submit = [s for s in tracer.finished() if s.name == "service.submit"]
    own = {}
    for span in tracer.finished():
        if span.name == "service.canonicalize" and span.parent is not None:
            own[span.parent.id] = own.get(span.parent.id, 0.0) + span.end - span.start
    admit = [s.end - s.start - own.get(s.id, 0.0) for s in submit]
    waits = tracer.samples["service.queue_wait_s"]
    worker_solves = [
        s for s in tracer.finished()
        if s.request is not None and s.thread.startswith("repro-service-worker")
        and s.name in ("cubis.solve", "resolve.resolve", "resolve.start")
        and (s.parent is None or not s.parent.thread.startswith("repro-service"))
    ]
    encode = [
        tracer.resolved[r] - tracer.solve_end[r]
        for r in tracer.solve_end if r in tracer.resolved
    ]
    return {
        "service.canonicalize_ms": _ms(_median(canon)),
        "service.admit_ms": _ms(_median(admit)),
        "service.queue_wait_ms.p50": _ms(_median(waits)),
        "service.queue_wait_ms.tail": _ms(_quantile(waits, 0.9)),
        "service.solve_ms": _ms(_median([s.end - s.start for s in worker_solves])),
        "service.encode_ms": _ms(_median(encode)),
    }


def identical_results(workload, ops_a, ops_b) -> bool:
    import numpy as np

    for a, b in zip(ops_a, ops_b):
        for x, y in zip(workload.outputs(a), workload.outputs(b)):
            if not np.array_equal(np.asarray(x), np.asarray(y)):
                return False
    return True


# --------------------------------------------------------------------------- #
# main                                                                        #
# --------------------------------------------------------------------------- #


def setup(workload, seed: int, seconds: float) -> tuple[dict, float]:
    """Generate and start ``SETUP_REPEATS`` times; keep the last state and
    return the median set-up time."""
    times, state = [], None
    for _ in range(SETUP_REPEATS):
        if state is not None:
            workload.stop(state)
        t0 = time.perf_counter()
        state = workload.start(workload.generate(seed, seconds))
        times.append(time.perf_counter() - t0)
    return state, statistics.median(times)


def run_traced(workload, state, seconds, tracing, tick):
    """Untraced half, then the traced half on a fresh start of the same
    inputs.  Returns both op lists, both states, the tracer and root."""
    half = seconds / 2.0
    ops_a = workload.run(state, half, tick)
    workload.stop(state)
    state_b = workload.start(state["inputs"])
    tracer = tracing.Tracer()
    tracing.install_probes(tracer)
    try:
        root = tracer.begin(f"bench.{workload.name}", "bench")
        try:
            ops_b = workload.run(state_b, half, tick)
        finally:
            tracer.end(root)
    finally:
        tracer.uninstall()
    return ops_a, ops_b, state_b, tracer, root


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: program source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import repro  # noqa: F401 — the import time is part of set-up
    import tracing
    import workloads

    import_s = time.perf_counter() - _STARTED
    configs = workloads.CONFIGS[args.size]
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    config = configs[args.workload]
    workload = workloads.WORKLOADS[args.workload](config)
    if workload.single_cpu:
        pin_to_one_cpu()

    state, setup_med = setup(workload, args.seed, args.seconds)
    setup_s = import_s + setup_med
    calibration = Calibration()
    # A workload that scales each request runs the kernel itself, right
    # before the requests it times; the others let it run once a second.
    tick = calibration.sample if workload.per_request_speed else calibration.tick

    run_failures: list[str] = []
    if args.trace:
        ops_a, ops, state_b, tracer, root = run_traced(
            workload, state, args.seconds, tracing, tick)
        all_ops = ops_a + ops
        references = workload.references(state, ops_a)
        if not identical_results(workload, ops_a, ops):
            run_failures.append("traced and untraced runs returned different results")
        workload.stop(state_b)
        run_failures += workload.check(state, ops_a)
        run_failures += workload.check(state_b, ops, reference=False)
    else:
        ops = all_ops = workload.run(state, args.seconds, tick)
        rss = peak_rss_mb()
        workload.stop(state)
        run_failures += workload.check(state, ops)

    if not calibration.times:
        # A run with no idle gap long enough for the kernel still needs a
        # speed figure.
        calibration.sample()
    failed_ops = [op for op in all_ops if not op.ok]
    attempted = len(all_ops) + 1
    failed = len(failed_ops) + (1 if run_failures else 0)

    if args.trace:
        values = per_layer(workload, tracer, root, ops_a, ops, references,
                           state_b.get("lags", []))
        values["bench.fail_frac"] = failed / attempted
        values["bench.slowdown"] = calibration.slowdown
        units = PER_LAYER_UNITS
        detail = {"spans": len(tracer.spans), "slowdown": calibration.slowdown}
    else:
        values, detail = end_to_end(workload, state, ops, setup_s, rss,
                                    calibration.slowdown)
        units = END_TO_END_UNITS

    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "input_hash": state["inputs"]["hash"],
        "config_hash": workloads.fingerprint(
            {"size": args.size, "seconds": args.seconds, "config": config}),
        "source_hash": source_hash(), "git_sha": git_sha(),
        "ops": len(all_ops), "ops_by_kind": _count_kinds(all_ops),
        "failures": [op.error for op in failed_ops][:5] + run_failures[:5],
        **detail,
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    args.out.mkdir(parents=True, exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (args.out / f"{stem}.json").write_text(
        json.dumps({"record": record, "result": result}, indent=1) + "\n")
    if args.trace:
        tracer.write(args.out / f"{stem}.spans.jsonl")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


def _count_kinds(ops) -> dict:
    kinds: dict[str, int] = {}
    for op in ops:
        kinds[op.kind] = kinds.get(op.kind, 0) + 1
    return kinds


if __name__ == "__main__":
    sys.exit(main())
