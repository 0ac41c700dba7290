"""The four benchmark workloads: seeded inputs, timed loops, correctness.

Every workload follows the same life cycle, driven by ``run.py``:

``generate(seed, seconds)``
    Builds the inputs from the seed alone (games, uncertainty models,
    drift sequences, request schedules).  Never timed as an operation.
``start(inputs)``
    Starts the machinery the operations run against (standing resolve
    handles, the in-process service engine).  ``stop(state)`` undoes it.
``run(state, seconds, tick)``
    The timed region: operations through the public API until
    ``seconds`` have passed and at least one full pass over the inputs
    is done, calling ``tick()`` between operations (the driver's
    machine-speed calibration).  Returns the list of :class:`Op` records.
``check(state, ops)``
    Outside the timed region: certifies every result with
    ``certify_result`` (a failure marks the op), then compares one
    instance per run with a fresh-build reference within
    ``theorem_slack``, plus the workload-specific run-level checks.
    Returns the run-level failures; each run-level check counts as one
    attempted operation.

The program is called through module attributes looked up at call time
(``cubis.solve_cubis``, not a name bound at import), so the traced run
sees every call through its probes.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import math
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

import repro.core.cubis as cubis
import repro.service.engine as engine_mod
import repro.solvers.fleet as fleet
import repro.solvers.resolve as resolve_mod
from repro.analysis.io import game_to_dict, uncertainty_to_dict
from repro.behavior import BandScaledModel, estimated_drift_sequence, shrink_factors
from repro.experiments.quality import default_uncertainty
from repro.game.generator import random_interval_game
from repro.resilience.certificate import certify_result, theorem_slack
from repro.resilience.policy import ResiliencePolicy
from repro.service.admission import RejectedError
from repro.service.requests import (
    build_instance,
    canonicalize_request,
    canonicalize_resolve_request,
    result_from_payload,
    solve_payload,
)

#: Workload sizes.  ``full`` is what the benchmark measures; ``tiny`` only
#: exists so the benchmark's own tests can run every workload quickly.
CONFIGS = {
    "full": {
        "solve_batch": {"sizes": [50, 100, 200], "pool": 24,
                        "num_segments": 10, "epsilon": 1e-3, "tail_q": 0.75},
        "drift_loop": {"targets": 50, "handles": 6, "estimates": 6,
                       "shrink_steps": 4, "shrink_final": 0.5,
                       "first_sample": 200, "first_pass": 48,
                       "num_segments": 10, "epsilon": 1e-3, "tail_q": 0.85},
        "service_mix": {"targets": 25, "tenants": 4, "period_s": 3.5,
                        "limit_s": 4.0, "workers": 2, "drain_s": 60.0,
                        "tail_q": 0.85},
        "fleet_dp": {"targets": 100, "games": 8, "fleets": 4,
                     "num_segments": 40, "epsilon": 1e-3, "tail_q": 0.85},
    },
    "tiny": {
        "solve_batch": {"sizes": [8, 12, 16], "pool": 3,
                        "num_segments": 5, "epsilon": 1e-2, "tail_q": 0.5},
        "drift_loop": {"targets": 8, "handles": 2, "estimates": 2,
                       "shrink_steps": 2, "shrink_final": 0.5,
                       "first_sample": 200, "first_pass": 6,
                       "num_segments": 5, "epsilon": 1e-2, "tail_q": 0.5},
        "service_mix": {"targets": 6, "tenants": 3, "period_s": 0.6,
                        "limit_s": 10.0, "workers": 2, "drain_s": 60.0,
                        "tail_q": 0.5},
        "fleet_dp": {"targets": 8, "games": 3, "fleets": 1,
                     "num_segments": 8, "epsilon": 1e-2, "tail_q": 0.5},
    },
}

#: Drift steps replayed against the warm incremental reference.
WARM_REFERENCE_STEPS = 12

#: The open-loop generator runs the driver's calibration kernel this
#: long before each solve and resolve is due, and again as each distinct
#: solve finishes: both times the engine is usually idle (the kernel is
#: timed in its own thread's CPU time, so waiting for a worker still
#: busy does not count).  The host switches between a fast and a slow
#: speed about once a second (consecutive kernels 40 ms apart correlate
#: at 0.9, 2 s apart at 0.2), so each request is scaled by the kernels
#: from the last one before it to the first one after it.  A kernel once
#: a second, and only while the engine was idle, missed the slow
#: stretches: slow work left no idle gaps.  No kernel runs before a
#: duplicate: the cache hits fall inside the ladder solve, and kernels
#: there made a slow solve slower still.
CALIBRATION_LEAD_S = 0.08

#: Each tenant's standing solve opens at this share of its default
#: uncertainty band, and its resolves shrink the band on to the final
#: share.  Shrinks from the full band are bimodal (a cheap bracket-reuse
#: step of 20-60 ms until the optimum moves, about 100-150 ms after), and
#: which steps are cheap depends on the game; below half the band every
#: step costs about the same, so the run's median does not hang on how
#: many cheap steps the seed's games happen to have.
SERVICE_OPEN_BAND = 0.5
SERVICE_FINAL_BAND = 0.3

#: Service schedule inside one period: (offset as a share of the period,
#: request kind, argument).  A ``dup`` repeats the distinct solve that
#: many periods back (0: sent right behind it, so a coalesced join that
#: waits as long as the solve; 1 to 3: response-cache hits).  A
#: ``resolve`` fills that slot; slots go round-robin over the tenants.
#: There are no more tenants than the engine keeps standing handles
#: (``2 * workers``, at least 4), so every resolve re-enters a live
#: handle instead of cold-starting an evicted one.  Over seven periods
#: (57 requests) 15 are fast hits, 28 resolves and 14 wait for a solve,
#: so the median request is the median resolve and the p85 falls among
#: the solves; a median at the resolves' 70th percentile spread twice as
#: much across seeds.  The ladder solve takes 0.6-1.5 s of the 3.5 s
#: period; the resolves come after it, one at a time, so no job waits
#: for another: a resolve that overlaps a solve runs slower by an amount
#: that changes from run to run with the solve's length, and resolves
#: sent closer together queue behind each other, which amplifies every
#: change in machine speed.  The resolves are 0.28 s apart so that one
#: slowed by the host still finishes before the calibration kernel ahead
#: of the next: at 0.21 s apart the two overlapped on the slow machine,
#: and resolve times grew as the kernel time to the power 1.75.
SERVICE_CYCLE = (
    (0.00, "solve", None),
    (0.01, "dup", 0),
    (0.25, "dup", 1),
    (0.38, "dup", 2),
    (0.51, "dup", 3),
    *((0.64 + 0.08 * t, "resolve", t) for t in range(4)),
)
#: Seeded jitter on every due time, as a share of the period.
SERVICE_JITTER = 0.01


@dataclass
class Op:
    """One timed operation and what it returned."""

    kind: str
    seconds: float
    result: object = None
    ok: bool = True
    error: str = ""
    extra: dict = field(default_factory=dict)


def fingerprint(*parts) -> str:
    """Stable hash of generated inputs (arrays, dicts, numbers)."""
    digest = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            digest.update(np.ascontiguousarray(part, dtype=np.float64).tobytes())
        else:
            digest.update(json.dumps(part, sort_keys=True, default=str).encode())
    return digest.hexdigest()[:16]


def model_fingerprint(game, model) -> str:
    points = np.linspace(0.0, 1.0, 11)
    return fingerprint(
        game_to_dict(game), model.lower_on_grid(points),
        model.upper_on_grid(points),
    )


def normalised_value(game, value: float) -> float:
    """Worst-case utility as a share of the game's utility range."""
    lo, hi = game.utility_range()
    return (float(value) - lo) / (hi - lo)


def _child_seeds(seed: int, salt: int, count: int) -> list[int]:
    rng = np.random.default_rng([int(seed), salt])
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]


def _fail(op: Op, error: str) -> None:
    """Mark ``op`` failed when ``error`` is non-empty (first error kept)."""
    if error and op.ok:
        op.ok, op.error = False, error


def _nonempty(errors) -> list[str]:
    return [e for e in errors if e]


def _certify(game, model, result) -> str:
    cert = certify_result(game, model, result)
    return "" if cert.valid else f"certificate failed: {cert.failures}"


def _reference_gap(game, model, result, **options) -> str:
    """Compare ``result`` with a fresh-build reference solve."""
    reference = cubis.solve_cubis(
        game, model, memoise=False, session="fresh", **options
    )
    slack = theorem_slack(game, result.epsilon, result.num_segments)
    gap = abs(reference.worst_case_value - result.worst_case_value)
    if gap > slack:
        return f"fresh-build reference differs by {gap:.4g} > slack {slack:.4g}"
    return ""


def _deadline_loop(seconds: float, minimum: int, step, tick,
                   multiple: int = 1) -> list[Op]:
    """Run ``step(i)`` until ``seconds`` passed, ``minimum`` ops ran and
    the op count is a multiple of ``multiple``."""
    ops: list[Op] = []
    deadline = time.perf_counter() + seconds
    i = 0
    while i < minimum or time.perf_counter() < deadline or i % multiple:
        ops.append(step(i))
        tick()
        i += 1
    return ops


def _local_kernel(kernels: list[tuple[float, float]], start: float,
                  end: float) -> float:
    """Median time of the kernels from the last one finished by ``start``
    to the first one finished after ``end``; ``kernels`` is in time
    order."""
    stamps = [at for at, _ in kernels]
    first = max(0, bisect.bisect_right(stamps, start) - 1)
    return statistics.median(
        k for _, k in kernels[first:bisect.bisect_right(stamps, end) + 1])


def _timed(kind: str, fn, *args, **kwargs) -> Op:
    t0 = time.perf_counter()
    try:
        result = fn(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 — a failed op is counted, not fatal
        return Op(kind, time.perf_counter() - t0, ok=False,
                  error=f"{type(exc).__name__}: {exc}")
    return Op(kind, time.perf_counter() - t0, result)


class Workload:
    """Defaults shared by the workloads; each sets ``name``."""

    name = ""
    #: Scale end-to-end times to the reference machine speed (run.py).
    speed_normalised = False
    #: Run the whole process, and every thread it starts, on one CPU
    #: (run.py), so the calibration kernel times the CPU the work ran on.
    single_cpu = False
    #: Scale each latency by the kernel time the workload recorded for it
    #: in ``op.extra["kernel_s"]``; ``tick`` then runs the kernel every
    #: time it is called and returns its time (run.py).
    per_request_speed = False

    def __init__(self, config: dict) -> None:
        self.config = config

    def start(self, inputs: dict) -> dict:
        return {"inputs": inputs}

    def stop(self, state: dict) -> None:
        pass

    def latencies(self, ops: list[Op]) -> list[float]:
        """Per-operation latency; a failed operation counts as infinite."""
        return [op.seconds if op.ok else math.inf for op in ops]

    def throughput(self, state: dict, ops: list[Op]) -> float:
        """Operations completed per second of operation time."""
        done = [op for op in ops if op.ok]
        busy = sum(op.seconds for op in done)
        return len(done) / busy if busy else 0.0

    def outputs(self, op: Op) -> list:
        """The solver's strategies in ``op``, for the check that traced
        and untraced runs answer alike."""
        return [op.result.strategy] if op.ok else []

    def references(self, state: dict, ops: list[Op]) -> dict:
        """Strongest-alternative per-layer numbers (traced runs only)."""
        return {}


# --------------------------------------------------------------------------- #
# solve_batch                                                                 #
# --------------------------------------------------------------------------- #


class SolveBatch(Workload):
    """Closed loop, one caller: independent library-default solves."""

    name = "solve_batch"
    speed_normalised = True

    def generate(self, seed: int, seconds: float) -> dict:
        cfg = self.config
        seeds = _child_seeds(seed, 1, cfg["pool"])
        pool = []
        for i, game_seed in enumerate(seeds):
            size = cfg["sizes"][i % len(cfg["sizes"])]
            game = random_interval_game(size, seed=game_seed)
            pool.append((game, default_uncertainty(game.payoffs)))
        return {"pool": pool,
                "hash": fingerprint([model_fingerprint(g, m) for g, m in pool])}

    def run(self, state: dict, seconds: float, tick) -> list[Op]:
        cfg = self.config
        pool = state["inputs"]["pool"]

        def step(i):
            game, model = pool[i % len(pool)]
            op = _timed(f"t{game.num_targets}", cubis.solve_cubis, game, model,
                        num_segments=cfg["num_segments"],
                        epsilon=cfg["epsilon"])
            op.extra["index"] = i % len(pool)
            return op

        return _deadline_loop(seconds, len(pool), step, tick)

    def quality(self, state: dict, ops: list[Op]) -> float:
        pool = state["inputs"]["pool"]
        first = ops[:len(pool)]
        return float(np.mean([
            normalised_value(pool[op.extra["index"]][0],
                             op.result.worst_case_value)
            for op in first if op.ok
        ]))

    def check(self, state: dict, ops: list[Op], reference: bool = True) -> list[str]:
        pool = state["inputs"]["pool"]
        for op in ops:
            if op.ok:
                game, model = pool[op.extra["index"]]
                _fail(op, _certify(game, model, op.result))
        if not reference:
            return []
        game, model = pool[0]
        first = next((op for op in ops if op.ok and op.extra["index"] == 0), None)
        if first is None:
            return ["no successful solve of the reference instance"]
        return _nonempty([_reference_gap(
            game, model, first.result,
            num_segments=self.config["num_segments"],
            epsilon=self.config["epsilon"],
        )])


# --------------------------------------------------------------------------- #
# drift_loop                                                                  #
# --------------------------------------------------------------------------- #


class DriftLoop(Workload):
    """Closed loop, one caller: standing solves re-entered by drift.

    Each standing solve starts from a PAC interval estimate and walks a
    fixed sequence: a geometric ``shrink_factors`` ladder of the current
    estimate (pure shrinks, bracket reuse), then the next estimate from a
    longer attack log (a mixed or widening drift, no bracket reuse), then
    its ladder, and so on.
    Steps go round-robin over the standing solves; a finished chain is
    re-opened with ``start_resolve`` and replayed.
    """

    name = "drift_loop"
    speed_normalised = True

    def _options(self) -> dict:
        return {"num_segments": self.config["num_segments"],
                "epsilon": self.config["epsilon"]}

    def generate(self, seed: int, seconds: float) -> dict:
        cfg = self.config
        chains = []
        for game_seed in _child_seeds(seed, 2, cfg["handles"]):
            rng = np.random.default_rng(game_seed)
            game = random_interval_game(cfg["targets"], seed=game_seed)
            truth = default_uncertainty(game.payoffs).midpoint_model()
            coverage = rng.uniform(0.05, 1.0, size=(4, cfg["targets"]))
            coverage = np.clip(
                coverage * game.num_resources / coverage.sum(axis=1, keepdims=True),
                0.0, 1.0,
            )
            sizes = [cfg["first_sample"] * 2**j for j in range(cfg["estimates"] + 1)]
            estimates = estimated_drift_sequence(
                truth, coverage, sizes, seed=int(rng.integers(2**31 - 1))
            )
            ladder = shrink_factors(cfg["shrink_steps"], final=cfg["shrink_final"])
            steps = []
            for j, estimate in enumerate(estimates):
                if j > 0:
                    steps.append(estimate.model)
                steps.extend(BandScaledModel(estimate.model, float(f))
                             for f in ladder)
            chains.append({"game": game, "initial": estimates[0].model,
                           "steps": steps})
        digest = fingerprint([
            [model_fingerprint(c["game"], m) for m in [c["initial"], *c["steps"]]]
            for c in chains
        ])
        return {"chains": chains, "hash": digest}

    def start(self, inputs: dict) -> dict:
        handles = [
            resolve_mod.start_resolve(c["game"], c["initial"], **self._options())
            for c in inputs["chains"]
        ]
        return {"inputs": inputs, "handles": handles,
                "position": [0] * len(handles), "finals": []}

    def outputs(self, op: Op) -> list:
        return [op.result.result.strategy] if op.ok else []

    def run(self, state: dict, seconds: float, tick) -> list[Op]:
        chains = state["inputs"]["chains"]
        handles, position = state["handles"], state["position"]

        def step(i):
            h = i % len(chains)
            chain = chains[h]
            model = chain["steps"][position[h]]
            op = _timed("step", resolve_mod.resolve, handles[h], model)
            op.extra.update(chain=h, position=position[h], model=model)
            if op.ok:
                op.kind = op.result.drift.kind
            position[h] += 1
            if position[h] == len(chain["steps"]):
                state["finals"].append((h, model, op))
                handles[h] = resolve_mod.start_resolve(
                    chain["game"], chain["initial"], **self._options()
                )
                position[h] = 0
            return op

        ops = _deadline_loop(seconds, self.config["first_pass"], step, tick)
        # Chains still open at the deadline end on their last step.
        last = {}
        for op in ops:
            last[op.extra["chain"]] = op
        for h, op in sorted(last.items()):
            if op.extra["position"] != len(chains[h]["steps"]) - 1:
                state["finals"].append((h, op.extra["model"], op))
        return ops

    def quality(self, state: dict, ops: list[Op]) -> float:
        chains = state["inputs"]["chains"]
        first = ops[:self.config["first_pass"]]
        return float(np.mean([
            normalised_value(chains[op.extra["chain"]]["game"],
                             op.result.result.worst_case_value)
            for op in first if op.ok
        ]))

    def check(self, state: dict, ops: list[Op], reference: bool = True) -> list[str]:
        chains = state["inputs"]["chains"]
        for op in ops:
            if op.ok:
                game = chains[op.extra["chain"]]["game"]
                _fail(op, _certify(game, op.extra["model"], op.result.result))
        # The final step of each drift chain must match a cold solve of
        # the same post-drift intervals; the first one is compared with
        # the fresh-build reference, the rest with a default cold solve.
        for n, (h, model, op) in enumerate(state["finals"]):
            if not op.ok:
                continue
            game = chains[h]["game"]
            result = op.result.result
            if n == 0 and reference:
                _fail(op, _reference_gap(game, model, result, **self._options()))
                continue
            cold = cubis.solve_cubis(game, model, **self._options())
            slack = theorem_slack(game, result.epsilon, result.num_segments)
            diff = abs(cold.worst_case_value - result.worst_case_value)
            if diff > slack:
                _fail(op, f"chain end differs from a cold solve by {diff:.4g}")
        return [] if state["finals"] else ["no drift chain reached its end"]

    def references(self, state: dict, ops: list[Op]) -> dict:
        """Median over the first drift steps of the step's time over a
        warm incremental ``solve_cubis`` of the same post-drift instance
        with the same hints (the strongest alternative to a standing
        solve).  Also checks the two results are identical, as the
        resolve contract promises."""
        chains = state["inputs"]["chains"]
        ratios = []
        for op in ops[:WARM_REFERENCE_STEPS]:
            if not op.ok:
                continue
            game = chains[op.extra["chain"]]["game"]
            t0 = time.perf_counter()
            warm = cubis.solve_cubis(
                game, op.extra["model"], session="incremental",
                warm_start=op.result.warm_start, **self._options()
            )
            elapsed = time.perf_counter() - t0
            if not np.array_equal(warm.strategy, op.result.result.strategy):
                _fail(op, "resolve differs from a warm incremental solve")
            ratios.append(op.seconds / elapsed)
        return {"resolve.vs_warm_ratio":
                statistics.median(ratios) if ratios else 0.0}


# --------------------------------------------------------------------------- #
# service_mix                                                                 #
# --------------------------------------------------------------------------- #


class ServiceMix(Workload):
    """Open loop: a seeded schedule sent to an in-process ``SolveEngine``.

    The generator runs on the caller's thread and sends each request at
    its due time whatever the engine is doing; latency runs from the due
    time to the ticket's completion.
    """

    name = "service_mix"
    # The engine's threads run on whichever CPU is free and the host
    # slows its CPUs one at a time, for seconds, so a kernel on the main
    # thread only tracks the workers when all share one CPU.  The
    # schedule never runs two jobs at once, so one CPU costs no
    # parallelism.  Goodput is set by the schedule, not the machine, and
    # stays raw.
    single_cpu = True
    per_request_speed = True

    def generate(self, seed: int, seconds: float) -> dict:
        cfg = self.config
        period = cfg["period_s"]
        # Whole periods only, so every run has the same mix of requests.
        cycles = max(1, int(seconds // period))
        rng = np.random.default_rng([int(seed), 3])
        # The games are a fixed population, the same for every seed: four
        # seeded tenant games spread the median request's latency by 16%
        # (quartiles over ten seeds), and seeded distinct solves, whose
        # ladder takes 0.6-1.5 s by game, spread the p85 by 13%.  The seed
        # varies the request stream: the order of the distinct solves and
        # the due-time jitter.
        pool = _child_seeds(0, 6, cycles)
        solve_seeds = [pool[i] for i in rng.permutation(cycles)]
        tenant_seeds = _child_seeds(0, 5, cfg["tenants"])
        tenants = []
        for t in range(cfg["tenants"]):
            game = random_interval_game(cfg["targets"], seed=tenant_seeds[t])
            tenants.append({"name": f"tenant-{t}", "game": game,
                            "base": default_uncertainty(game.payoffs)})
        slots = sum(1 for _, kind, _ in SERVICE_CYCLE if kind == "resolve")
        per_tenant = math.ceil(cycles * slots / cfg["tenants"])
        factors = SERVICE_OPEN_BAND * shrink_factors(
            per_tenant + 1, final=SERVICE_FINAL_BAND / SERVICE_OPEN_BAND)
        jitter = rng.uniform(
            -SERVICE_JITTER, SERVICE_JITTER, size=(cycles, len(SERVICE_CYCLE))
        )
        solves, schedule = [], []
        sent = [0] * cfg["tenants"]
        for c in range(cycles):
            game = random_interval_game(cfg["targets"], seed=solve_seeds[c])
            solves.append({"game": game_to_dict(game)})
            for j, (offset, kind, arg) in enumerate(SERVICE_CYCLE):
                due = (c + offset + jitter[c, j]) * period
                if kind == "solve":
                    schedule.append((due, "solve", c, solves[c], None))
                elif kind == "dup":
                    if c - arg >= 0:
                        schedule.append((due, "dup", c - arg, solves[c - arg], None))
                else:
                    t = (c * slots + arg) % cfg["tenants"]
                    tenant = tenants[t]
                    model = BandScaledModel(tenant["base"], float(factors[sent[t]]))
                    sent[t] += 1
                    body = {"game": game_to_dict(tenant["game"]),
                            "uncertainty": uncertainty_to_dict(model)}
                    schedule.append((due, "resolve", t, body, tenant["name"]))
        schedule.sort(key=lambda item: item[0])
        schedule = [(max(0.0, float(due)), *rest) for due, *rest in schedule]
        return {"tenants": tenants, "schedule": schedule,
                "hash": fingerprint([item[:3] for item in schedule],
                                    [item[3] for item in schedule])}

    def start(self, inputs: dict) -> dict:
        cfg = self.config
        engine = engine_mod.SolveEngine(workers=cfg["workers"], queue_depth=64,
                                        cache_size=256)
        # Open every tenant's standing solve (the cold start) before the
        # timed region.
        openers = []
        for tenant in inputs["tenants"]:
            opening = BandScaledModel(tenant["base"], SERVICE_OPEN_BAND)
            body = {"game": game_to_dict(tenant["game"]),
                    "uncertainty": uncertainty_to_dict(opening)}
            openers.append(engine.submit_resolve(body, tenant=tenant["name"]))
        for ticket in openers:
            outcome = ticket.wait(cfg["drain_s"])
            if outcome is None or not outcome.ok:
                engine.close()
                raise RuntimeError("service_mix: a standing solve failed to open")
        return {"inputs": inputs, "engine": engine, "lags": []}

    def stop(self, state: dict) -> None:
        state["engine"].close()

    def run(self, state: dict, seconds: float, tick) -> list[Op]:
        engine = state["engine"]
        schedule = state["inputs"]["schedule"]
        ops: list[Op] = []
        done_at: dict[int, float] = {}
        tickets = []
        kernels = [(time.perf_counter(), tick())]  # (finished at, kernel s)
        solving = None  # the last distinct solve, until it has finished
        t0 = time.perf_counter()
        for n, (due, kind, arg, body, tenant) in enumerate(schedule):
            if due >= seconds:
                break
            early = t0 + due - CALIBRATION_LEAD_S
            if kind != "dup" and early > time.perf_counter():
                solving = self._sleep_until(early, solving, kernels, tick)
                kernels.append((time.perf_counter(), tick()))
            solving = self._sleep_until(t0 + due, solving, kernels, tick)
            state["lags"].append(max(0.0, time.perf_counter() - (t0 + due)))
            op = Op(kind, math.inf, extra={"due": t0 + due, "arg": arg,
                                            "body": body, "tenant": tenant})
            ops.append(op)
            try:
                if kind == "resolve":
                    ticket = engine.submit_resolve(body, tenant=tenant)
                else:
                    ticket = engine.submit(body)
            except RejectedError as exc:
                op.ok, op.error = False, f"rejected: {exc}"
                op.extra["rejected"] = True
                continue
            op.extra["ticket"] = ticket
            tickets.append((n, ticket))
            if kind == "solve":
                solving = ticket
            ticket.add_done_callback(
                lambda _result, n=n: done_at.setdefault(n, time.perf_counter())
            )
        limit = self.config["limit_s"]
        drain_end = time.perf_counter() + self.config["drain_s"]
        for n, ticket in tickets:
            op = ops[n]
            result = ticket.wait(max(0.0, drain_end - time.perf_counter()))
            if result is None:
                op.ok, op.error = False, "timed out"
                continue
            op.seconds = done_at[n] - op.extra["due"]
            op.result = result
            if not result.ok:
                op.ok, op.error = False, f"status {result.status}"
            elif op.seconds > limit:
                op.extra["late"] = True
        for op in ops:
            due = op.extra["due"]
            op.extra["kernel_s"] = _local_kernel(
                kernels, due, due + op.seconds if op.ok else due)
        state["span_s"] = max(done_at.values(), default=t0) - t0
        return ops

    @staticmethod
    def _sleep_until(when: float, solving, kernels: list, tick):
        """Sleep until ``when``.  If the distinct solve ``solving`` finishes
        first, run the kernel as it does (the engine is then idle), so
        the solve is scaled by the kernels just before and just after it.
        Returns ``solving`` while it is still running, else ``None``."""
        if solving is not None:
            if solving.wait(max(0.0, when - time.perf_counter())) is not None:
                kernels.append((time.perf_counter(), tick()))
                solving = None
        remaining = when - time.perf_counter()
        if remaining > 0:
            time.sleep(remaining)
        return solving

    def throughput(self, state: dict, ops: list[Op]) -> float:
        """Goodput: requests answered correctly within the latency limit,
        per second from the first due time to the last completion."""
        good = sum(op.ok and not op.extra.get("late") for op in ops)
        return good / state["span_s"] if state["span_s"] > 0 else 0.0

    def outputs(self, op: Op) -> list:
        if op.ok and op.kind == "solve":
            return [json.loads(op.result.body)["strategy"]]
        return []

    def quality(self, state: dict, ops: list[Op]) -> float:
        """Mean over the distinct solves and the resolves (duplicates
        would only repeat a solve)."""
        values = []
        for op in ops:
            if op.ok and op.kind != "dup":
                payload = json.loads(op.result.body)
                game = build_instance(canonicalize_request(op.extra["body"]))[0]
                values.append(normalised_value(game, payload["worst_case_value"]))
        return float(np.mean(values)) if values else float("nan")

    def check(self, state: dict, ops: list[Op], reference: bool = True) -> list[str]:
        bodies = {op.extra["arg"]: op.result.body
                  for op in ops if op.ok and op.kind == "solve"}
        for op in ops:
            if op.ok:
                _fail(op, self._check_op(op, bodies))
        if not reference:
            return []
        first = next((op for op in ops if op.ok and op.kind == "solve"), None)
        if first is None:
            return ["no successful distinct solve request"]
        return _nonempty([self._check_local(first)])

    @staticmethod
    def _check_op(op: Op, bodies: dict) -> str:
        payload = json.loads(op.result.body)
        if op.kind == "dup":
            original = bodies.get(op.extra["arg"])
            if original is not None and original != op.result.body:
                return "duplicate response differs from the original"
        canonical = (canonicalize_resolve_request(op.extra["body"])
                     if op.kind == "resolve"
                     else canonicalize_request(op.extra["body"]))
        game, model, _ = build_instance(canonical)
        return _certify(game, model, result_from_payload(payload))

    @staticmethod
    def _check_local(op: Op) -> str:
        """The payload must equal a local solve of the same canonical
        request, and that solve must agree with the fresh-build reference."""
        game, model, options = build_instance(canonicalize_request(op.extra["body"]))
        local = cubis.solve_cubis(
            game, model,
            num_segments=options["num_segments"], epsilon=options["epsilon"],
            backend=options["backend"], oracle=options["oracle"],
            equality_resources=options["equality_resources"],
            execution_alpha=options["execution_alpha"],
            speculation=options["speculation"],
            resilience=ResiliencePolicy(max_retries=1) if options["resilience"]
            else None,
        )
        payload = json.loads(op.result.body)
        expected = json.loads(json.dumps(solve_payload(local)))
        served = {key: payload[key] for key in expected}
        if served != expected:
            return "service payload differs from a local solve of the request"
        return _reference_gap(game, model, local,
                              num_segments=options["num_segments"],
                              epsilon=options["epsilon"])


# --------------------------------------------------------------------------- #
# fleet_dp                                                                    #
# --------------------------------------------------------------------------- #


class FleetDp(Workload):
    """Closed loop: repeated DP-oracle fleets of same-shape games."""

    name = "fleet_dp"
    # The game threads run in lockstep rounds, one batched kernel at a
    # time, so one CPU serves them as well as two; on one CPU the
    # calibration kernel tracks them (see ServiceMix).
    speed_normalised = True
    single_cpu = True

    def _options(self) -> dict:
        return {"num_segments": self.config["num_segments"],
                "epsilon": self.config["epsilon"]}

    def generate(self, seed: int, seconds: float) -> dict:
        cfg = self.config
        seeds = _child_seeds(seed, 4, cfg["fleets"] * cfg["games"])
        fleets = []
        for f in range(cfg["fleets"]):
            games = [random_interval_game(cfg["targets"], seed=s)
                     for s in seeds[f * cfg["games"]:(f + 1) * cfg["games"]]]
            fleets.append([(g, default_uncertainty(g.payoffs)) for g in games])
        return {"fleets": fleets, "hash": fingerprint(
            [[model_fingerprint(g, m) for g, m in fl] for fl in fleets])}

    def run(self, state: dict, seconds: float, tick) -> list[Op]:
        fleets = state["inputs"]["fleets"]

        def step(i):
            members = fleets[i % len(fleets)]
            op = _timed("fleet", fleet.solve_fleet,
                        [g for g, _ in members], [m for _, m in members],
                        oracle="dp", **self._options())
            op.extra["index"] = i % len(fleets)
            return op

        # Whole passes only, so every fleet weighs the same in every run.
        return _deadline_loop(seconds, len(fleets), step, tick,
                              multiple=len(fleets))

    def latencies(self, ops: list[Op]) -> list[float]:
        """Per-game solve time inside each fleet call."""
        return [r.solve_seconds for op in ops if op.ok for r in op.result]

    def throughput(self, state: dict, ops: list[Op]) -> float:
        """Games solved per second of fleet time."""
        done = [op for op in ops if op.ok]
        busy = sum(op.seconds for op in done)
        return sum(len(op.result) for op in done) / busy if busy else 0.0

    def outputs(self, op: Op) -> list:
        return [r.strategy for r in op.result] if op.ok else []

    def quality(self, state: dict, ops: list[Op]) -> float:
        fleets = state["inputs"]["fleets"]
        values = [
            normalised_value(game, r.worst_case_value)
            for op in ops[:len(fleets)] if op.ok
            for (game, _), r in zip(fleets[op.extra["index"]], op.result)
        ]
        return float(np.mean(values))

    def check(self, state: dict, ops: list[Op], reference: bool = True) -> list[str]:
        fleets = state["inputs"]["fleets"]
        for op in ops:
            if op.ok:
                for (game, model), result in zip(fleets[op.extra["index"]],
                                                 op.result):
                    _fail(op, _certify(game, model, result))
        if not reference:
            return []
        first = next((op for op in ops if op.ok and op.extra["index"] == 0), None)
        if first is None:
            return ["no successful fleet over the reference games"]
        game, model = fleets[0][0]
        result = first.result.results[0]
        fresh = cubis.solve_cubis(game, model, oracle="dp", memoise=False,
                                  session="fresh", **self._options())
        return _nonempty([
            "" if np.array_equal(fresh.strategy, result.strategy)
            else "fleet result differs from a fresh-build DP solve",
            _reference_gap(game, model, result, oracle="dp", **self._options()),
        ])

    def references(self, state: dict, ops: list[Op]) -> dict:
        """First fleet call's time over a plain single-threaded loop of
        ``solve_cubis`` on the same games."""
        first = ops[0]
        if not first.ok:
            return {"fleet.vs_sequential_ratio": 0.0}
        t0 = time.perf_counter()
        for game, model in state["inputs"]["fleets"][first.extra["index"]]:
            cubis.solve_cubis(game, model, oracle="dp", **self._options())
        return {"fleet.vs_sequential_ratio":
                first.seconds / (time.perf_counter() - t0)}


WORKLOADS = {cls.name: cls for cls in (SolveBatch, DriftLoop, ServiceMix, FleetDp)}
