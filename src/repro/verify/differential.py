"""Differential cross-solver verification.

Runs one :class:`~repro.game.ssg.IntervalSecurityGame` instance through
every independent solver path — the HiGHS MILP ladder, the pure-Python
branch-and-bound MILP, the fresh-build MILP reference, the
structure-sharing fleet solver, the standing-solve drift re-entry
(``milp-resolve``), the grid-restricted DP oracle, and the SLSQP
multi-start comparator — and checks that they tell one consistent
story:

1. **Per path**: the path completes, returns a feasible strategy, and
   its reported value matches a solver-independent re-evaluation (exact
   vertex-enumeration worst case + the piecewise
   :class:`~repro.core.milp.StrategyCertificate` level).
2. **Pairwise**: defender utilities agree within the derived tolerance.
   Every path returns a *feasible* strategy, so its exact worst-case
   value is a lower bound on the robust optimum ``OPT``; each path also
   carries a proven suboptimality slack (Theorem 1's ``epsilon +
   span/K`` for the CUBIS paths).  Hence for any two paths,
   ``value_a - value_b <= slack_b`` — a disagreement beyond that bound
   means at least one solver is wrong, and the check reports the
   offending pair, the seed, and both utilities.

Fault injection (``repro verify --inject-faults``) reuses
:class:`~repro.resilience.faults.FaultInjector` with step validation
disabled, so corrupted answers flow through to these checks and must be
caught here — the battery's self-test that the net actually catches
divergence.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.cubis import solve_cubis
from repro.core.exact import solve_exact
from repro.core.milp import step_grids
from repro.core.worst_case import evaluate_worst_case
from repro.resilience.certificate import theorem_slack
from repro.resilience.faults import FaultInjector
from repro.resilience.policy import ResiliencePolicy, Rung
from repro.solvers.piecewise import SegmentGrid
from repro.verify.report import ConformanceCheck

__all__ = ["PathOutcome", "DEFAULT_PATHS", "run_paths", "differential_check"]

#: The solver paths the differential checker knows, in execution order.
#: ``milp-highs`` and ``milp-bnb`` run the default memoised pipeline
#: (certificate pool, hull and LP screens, MILP on the solve's skeleton;
#: docs/PERFORMANCE.md).
#: ``milp-reference`` is the fresh-build reference (``memoise=False``:
#: one freshly assembled MILP per step, no pool, no screen);
#: the pipeline arms must agree with it within the Theorem 1 tolerance,
#: which pins the screens and the skeleton patch to the reference
#: semantics on every battery run.
#: ``milp-fleet`` routes the instance through a single-game
#: :func:`repro.solvers.fleet.solve_fleet` (shared-structure skeleton
#: lease), which must land inside the same theorem slack as the plain
#: MILP paths — the differential arm for the batched substrate.
#: ``milp-resolve`` opens a standing solve on a 25%-widened variant of
#: the instance's intervals and re-enters it with the actual intervals
#: via :func:`repro.solvers.resolve.resolve` — the answer it lands on is
#: a genuine shrink re-solve (warm bracket probed, skeleton leased from
#: the process-wide shape cache) and must agree with every cold path within
#: the same theorem slack, pinning the re-entry machinery to the
#: reference semantics on every battery run.
DEFAULT_PATHS = (
    "milp-highs", "milp-bnb", "milp-reference", "milp-fleet", "milp-resolve",
    "dp", "exact",
)

#: DP suboptimality multiplier on the ``span/K`` term.  The DP snaps the
#: *argument* to the grid (the MILP only snaps function values), so its
#: constant is larger — measured ~0.4x on the canonical instances, 1.5x
#: leaves headroom (see repro.core.dp's module docs for the mechanism).
DP_SLACK_FACTOR = 1.5


@dataclass(frozen=True)
class PathOutcome:
    """One solver path's answer, re-evaluated solver-independently.

    ``reported_value`` is what the path claimed; ``value`` is the exact
    vertex-enumeration worst case of its strategy (the quantity all
    pairwise comparisons use); ``certified_level`` is the piecewise level
    the strategy's :class:`~repro.core.milp.StrategyCertificate` proves;
    ``slack`` is how far below the robust optimum this path is allowed to
    land.  ``error`` carries the exception message when the path crashed
    (all value fields are NaN then).
    """

    name: str
    strategy: np.ndarray | None
    reported_value: float
    value: float
    certified_level: float
    slack: float
    seconds: float
    error: str | None = None
    diagnostics: dict = field(default_factory=dict)


def _certified_level(game, uncertainty, strategy, num_segments: int) -> float:
    """The utility level ``strategy`` provably certifies on the K-segment
    piecewise model — re-derived from the game data alone (no solver).

    Deliberately independent of the fast path it checks: the four
    interpolants come straight from :meth:`SegmentGrid.interpolate`, not
    the skeleton's tabulated certificate, and the level from a 64-step
    bisection of ``G_bar``, not the closed form of
    :meth:`~repro.core.milp.StrategyCertificate.guaranteed_level`.
    """
    grid = SegmentGrid(num_segments)
    ud, lower, upper = step_grids(game, uncertainty, grid)
    x = np.clip(np.asarray(strategy, dtype=np.float64), 0.0, 1.0)
    p1, q1, p2, q2 = (
        grid.interpolate(values, x) for values in (lower * ud, lower, upper * ud, upper)
    )

    def g_bar(c: float) -> float:
        return float(np.minimum(p1 - c * q1, p2 - c * q2).sum())

    feasible, infeasible = game.utility_range()
    if g_bar(feasible) < 0.0:
        return -float("inf")
    if g_bar(infeasible) >= 0.0:
        return float(infeasible)
    for _ in range(64):
        mid = 0.5 * (feasible + infeasible)
        if g_bar(mid) >= 0.0:
            feasible = mid
        else:
            infeasible = mid
    return float(feasible)


def run_paths(
    game,
    uncertainty,
    *,
    num_segments: int = 10,
    epsilon: float = 1e-3,
    paths: tuple[str, ...] = DEFAULT_PATHS,
    exact_starts: int = 24,
    exact_seed: int = 0,
    dp_slack_factor: float = DP_SLACK_FACTOR,
    inject_faults: float = 0.0,
    fault_seed: int = 0,
    fault_modes: tuple[str, ...] | None = None,
) -> list[PathOutcome]:
    """Execute the requested solver paths on one instance.

    ``inject_faults > 0`` adds a fifth ``milp-injected`` path: the HiGHS
    backend wrapped by a seeded :class:`FaultInjector` with step
    validation *off* and no fallback rungs, so corrupted answers reach
    the checks instead of being repaired.  A path that raises is recorded
    as an errored outcome, not propagated — a crash is a conformance
    finding, not a battery failure.
    """
    slack = theorem_slack(game, epsilon, num_segments)
    span = slack - epsilon  # the span/K term alone

    def cubis(**kwargs):
        result = solve_cubis(
            game, uncertainty, num_segments=num_segments, epsilon=epsilon, **kwargs
        )
        return result.strategy, float(result.worst_case_value), {
            "iterations": result.iterations,
            "converged": result.converged,
            "lower_bound": float(result.lower_bound),
            "upper_bound": float(result.upper_bound),
        }

    def fleet():
        from repro.solvers.fleet import solve_fleet

        fleet_result = solve_fleet(
            [game], [uncertainty], backend="highs",
            num_segments=num_segments, epsilon=epsilon,
        )
        result = fleet_result.results[0]
        return result.strategy, float(result.worst_case_value), {
            "iterations": result.iterations,
            "converged": result.converged,
            "lower_bound": float(result.lower_bound),
            "upper_bound": float(result.upper_bound),
            "shape_misses": fleet_result.shape_stats["misses"],
        }

    def resolve_path():
        from repro.behavior.interval import BandScaledModel
        from repro.solvers.resolve import resolve as resolve_step
        from repro.solvers.resolve import start_resolve

        handle = start_resolve(
            game,
            BandScaledModel(uncertainty, 1.25),
            num_segments=num_segments,
            epsilon=epsilon,
            backend="highs",
        )
        outcome = resolve_step(handle, uncertainty)
        result = outcome.result
        return result.strategy, float(result.worst_case_value), {
            "iterations": result.iterations,
            "converged": result.converged,
            "lower_bound": float(result.lower_bound),
            "upper_bound": float(result.upper_bound),
            "drift": outcome.drift.kind,
            "bracket_reused": outcome.bracket_reused,
            "warm_hit": outcome.warm_hit,
        }

    def exact():
        result = solve_exact(
            game, uncertainty, num_starts=exact_starts, seed=exact_seed
        )
        return result.strategy, float(result.worst_case_value), {
            "num_converged": result.num_converged,
            "num_starts": result.num_starts,
        }

    def injected():
        kwargs = {} if fault_modes is None else {"modes": tuple(fault_modes)}
        injector = FaultInjector(inject_faults, seed=fault_seed, **kwargs)
        policy = ResiliencePolicy(
            rungs=(Rung("milp", injector.wrap("highs")),),
            max_retries=0,
            validate_steps=False,
        )
        strategy, value, diag = cubis(resilience=policy)
        diag["injected_faults"] = injector.faults
        diag["injector_calls"] = injector.calls
        return strategy, value, diag

    runners = {
        "milp-highs": (lambda: cubis(backend="highs"), slack),
        "milp-bnb": (lambda: cubis(backend="bnb"), slack),
        "milp-reference": (lambda: cubis(backend="highs", memoise=False), slack),
        "milp-fleet": (fleet, slack),
        "milp-resolve": (resolve_path, slack),
        "dp": (lambda: cubis(oracle="dp"), epsilon + dp_slack_factor * span),
        "exact": (exact, slack),
        "milp-injected": (injected, slack),
    }
    requested = list(paths)
    if inject_faults > 0.0 and "milp-injected" not in requested:
        requested.append("milp-injected")
    unknown = set(requested) - set(runners)
    if unknown:
        raise ValueError(
            f"unknown solver paths {sorted(unknown)}; choose from {sorted(runners)}"
        )

    outcomes: list[PathOutcome] = []
    for name in requested:
        runner, path_slack = runners[name]
        t0 = time.perf_counter()
        try:
            strategy, reported, diagnostics = runner()
            value = float(
                evaluate_worst_case(game, uncertainty, strategy).value
            )
            certified = _certified_level(game, uncertainty, strategy, num_segments)
            outcomes.append(
                PathOutcome(
                    name=name,
                    strategy=np.asarray(strategy, dtype=np.float64),
                    reported_value=reported,
                    value=value,
                    certified_level=certified,
                    slack=float(path_slack),
                    seconds=time.perf_counter() - t0,
                    diagnostics=diagnostics,
                )
            )
        except Exception as exc:  # a crashing path is a recorded finding
            outcomes.append(
                PathOutcome(
                    name=name,
                    strategy=None,
                    reported_value=float("nan"),
                    value=float("nan"),
                    certified_level=float("nan"),
                    slack=float(path_slack),
                    seconds=time.perf_counter() - t0,
                    error=f"{type(exc).__name__}: {exc}",
                )
            )
    return outcomes


def differential_check(
    game,
    uncertainty,
    *,
    num_segments: int = 10,
    epsilon: float = 1e-3,
    paths: tuple[str, ...] = DEFAULT_PATHS,
    seed: int | None = None,
    atol: float = 1e-6,
    outcomes: list[PathOutcome] | None = None,
    **path_kwargs,
) -> list[ConformanceCheck]:
    """Run the solver paths and derive the conformance checks.

    Returns one ``differential.path.<name>`` check per path (completion +
    feasibility + reported-vs-recomputed agreement) and one
    ``differential.<a>-vs-<b>`` check per unordered pair (utility
    agreement within the derived tolerance).  ``seed`` is carried into
    every check's context so a CI failure pinpoints the instance.

    Pass precomputed ``outcomes`` (from :func:`run_paths`) to derive the
    checks without re-running the solvers — the battery does this so the
    same outcomes also feed the theorem checks.
    """
    if outcomes is None:
        outcomes = run_paths(
            game,
            uncertainty,
            num_segments=num_segments,
            epsilon=epsilon,
            paths=paths,
            **path_kwargs,
        )
    checks: list[ConformanceCheck] = []
    base_context = {"seed": seed, "num_segments": num_segments, "epsilon": epsilon}

    for outcome in outcomes:
        name = f"differential.path.{outcome.name}"
        if outcome.error is not None:
            checks.append(ConformanceCheck(
                name=name,
                passed=False,
                detail=f"solver path crashed: {outcome.error}",
                context={**base_context, "error": outcome.error},
            ))
            continue
        x = outcome.strategy
        feasible = bool(
            np.all(np.isfinite(x))
            and np.all(x >= -atol)
            and np.all(x <= 1.0 + atol)
            and x.sum() <= game.num_resources + atol
        )
        value_scale = max(1.0, abs(outcome.value))
        reported_ok = (
            abs(outcome.reported_value - outcome.value) <= atol * value_scale
        )
        passed = feasible and reported_ok
        checks.append(ConformanceCheck(
            name=name,
            passed=passed,
            detail=(
                f"{'feasible' if feasible else 'INFEASIBLE'} strategy, "
                f"reported {outcome.reported_value:.6g} vs recomputed "
                f"{outcome.value:.6g}, certified level "
                f"{outcome.certified_level:.6g} ({outcome.seconds:.3f}s)"
            ),
            measured=abs(outcome.reported_value - outcome.value),
            bound=atol * value_scale,
            context={
                **base_context,
                "value": float(outcome.value),
                "certified_level": float(outcome.certified_level),
                "diagnostics": outcome.diagnostics,
            },
        ))

    clean = [o for o in outcomes if o.error is None]
    for i, a in enumerate(clean):
        for b in clean[i + 1:]:
            # Both values lower-bound OPT; a exceeds b by at most b's slack.
            gap = abs(a.value - b.value)
            tolerance = (b.slack if a.value >= b.value else a.slack) + atol
            passed = gap <= tolerance
            checks.append(ConformanceCheck(
                name=f"differential.{a.name}-vs-{b.name}",
                passed=passed,
                detail=(
                    f"{a.name}={a.value:.6g} vs {b.name}={b.value:.6g}, "
                    f"|gap|={gap:.4g} vs tolerance {tolerance:.4g}"
                    + ("" if passed else " — DIVERGED")
                ),
                measured=gap,
                bound=tolerance,
                context={
                    **base_context,
                    "pair": [a.name, b.name],
                    "values": {a.name: float(a.value), b.name: float(b.value)},
                    "slacks": {a.name: float(a.slack), b.name: float(b.slack)},
                },
            ))
    return checks
