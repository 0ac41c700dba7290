"""CUBIS — the paper's robust algorithm (Section IV).

``solve_cubis`` computes an approximately optimal defender strategy for
the behavioral-robust maximin problem (Eq. 5):

1. the maximin is converted (by LP duality, Section IV-A) into the single
   maximisation (15-17) — this conversion is implicit here: CUBIS searches
   the value axis of that problem directly;
2. a binary search over the candidate utility ``c`` (Section IV-B) reduces
   the problem to a sequence of value-point feasibility checks (P1),
   monotone by Proposition 1;
3. each check maximises the piecewise-linearised ``G(x, beta)`` as the
   MILP (33-40) (Section IV-C) and applies Proposition 2's sign test.

The returned strategy carries an exact worst-case evaluation (via the
inner-problem solver, not the approximation), the final binary-search
bracket ``[lb, ub]``, and the per-step trace.  Theorem 1 guarantees the
result is ``O(epsilon + 1/K)``-optimal.
"""

from __future__ import annotations

import time
from contextlib import ExitStack
from dataclasses import dataclass

import numpy as np

from repro.behavior.interval import UncertaintyModel
from repro.core.dp import grid_budget_units, maximize_separable_on_grid
from repro.core.hull import LagrangianHull, screen_grid
from repro.core.milp import (
    CubisMilpSkeleton,
    StrategyCertificate,
    build_cubis_milp,
    step_grids,
)
from repro.core.worst_case import WorstCaseSolution, evaluate_worst_case
from repro.game.ssg import IntervalSecurityGame
from repro.obs import progress
from repro.solvers.binary_search import binary_search_max
from repro.solvers.fleet import process_shape_cache
from repro.solvers.milp_backend import (
    LiveLp,
    backend_label,
    relax_integrality,
    solve_milp,
)
from repro.solvers.piecewise import SegmentGrid
from repro.resilience.events import SolveEventLog
from repro.resilience.policy import (
    LadderExhaustedError,
    OracleLadder,
    OracleStepError,
    ResiliencePolicy,
    ResilienceReport,
    validate_step_solution,
)
from repro import telemetry
from repro.utils.validation import check_int_at_least, check_positive

__all__ = ["CubisResult", "WarmStart", "solve_cubis"]

#: Cap on the warm start's certificates.  ``WarmStart.strategies`` comes
#: from the caller, and a pool check scans all of them at O(T) each, so
#: the cap (the last ones win) bounds both that scan and memory.
_CERTIFICATE_POOL_LIMIT = 16


@dataclass(frozen=True)
class _DeferredGridSolve:
    """Payload of a DP step the grid hull screen proved feasible: the
    kernel that yields its strategy runs only if the step is the search's
    last feasible one."""

    c: float


@dataclass(frozen=True)
class WarmStart:
    """Carry-over state from a previous CUBIS solve.

    Attributes
    ----------
    bracket:
        The previous solve's final ``[lb, ub]``.  It is *probed*, never
        trusted: an end above the lower bound proven so far is re-verified
        by the oracle before use, so a bracket from a neighbouring problem
        (the same game at a different ``K``, the previous game of a
        sweep) can only shrink the search interval, never corrupt it.
        When the lower bound has passed both ends (the warm strategies'
        certified level lies above them, or the upper end probed
        feasible: the answer moved up, as under a band shrink), the
        bracket starts an upward search on the ``memoise=True`` MILP
        pipeline: the binary search gallops up from the lower bound
        (``lo + epsilon * 4**k``) until a probe is infeasible, where it
        used to skip the bracket and halve down from the top of the
        utility range.  A bracket whose upper end proves infeasible
        narrows the search as before.
    strategies:
        Candidate coverage vectors (typically the previous solve's
        strategy).  Each is screened against the current game's budget and
        side constraints, then used as a feasibility certificate: the
        certificates answer the bottom-endpoint probe and the level guess
        (the best level any of them certifies) without a MILP solve.
        Strategies of the wrong dimension are ignored, so a sweep over
        ``T`` can thread one warm start throughout.
    """

    bracket: tuple[float, float] | None = None
    strategies: tuple = ()


@dataclass(frozen=True)
class CubisResult:
    """Outcome of a CUBIS solve.

    Attributes
    ----------
    strategy:
        The robust coverage vector (projected onto ``sum x = R``).
    worst_case_value:
        Exact worst-case defender utility of ``strategy`` (inner problem
        solved exactly — not the piecewise approximation).
    worst_case:
        The full adversarial response (distribution + attractiveness).
    lower_bound, upper_bound:
        Final binary-search bracket ``[lb, ub]`` on the *approximated*
        optimal value; ``ub - lb <= epsilon`` on normal termination.
    epsilon, num_segments:
        The accuracy knobs (Theorem 1: the result is
        ``O(epsilon + 1/K)``-optimal).
    iterations:
        Binary-search steps (= feasibility-oracle calls).  Only the
        ``memoise=False`` MILP path solves one MILP per step; see
        ``milp_solves``.
    trace:
        ``(c, feasible)`` per step.
    solve_seconds:
        Wall-clock time of the whole call.
    converged:
        Whether the binary search closed its bracket to ``epsilon``;
        False means ``max_iterations`` ran out first and the bracket
        (still valid) is wider than requested.
    milp_solves:
        Full (integer) MILP solves actually performed — equals
        ``iterations`` for a cold MILP-oracle run; with ``memoise=True``
        (ladder rungs with a named backend included) most steps are
        answered by the hull screen, the LP-relaxation screen or a warm
        start's certificate instead, and this drops to a handful; 0 for
        the ``"dp"`` oracle, which never builds a MILP.
    hull_screens:
        Lagrangian hull screens performed, counted whatever their
        verdict: on ``memoise=True`` MILP steps (named backend, no side
        constraints, pipeline or ladder rung) ``min B(lam)`` over the hull
        vertices bounds the MILP optimum from above and the hull witness
        proves feasibility, and the rest fall through to the LP screen;
        on a ``memoise=True`` ``"dp"`` solve without a resilience policy
        every step is screened on the grid ``0..K`` and only
        fall-throughs run the knapsack kernel.  0 under
        ``memoise=False``; a ladder's ``dp`` rung is never screened.
    lp_solves:
        LP-relaxation screens performed (``memoise=True`` with a named
        backend only, ladder rungs included).  The
        relaxation's optimum bounds the MILP's from above, so a
        low-enough value proves infeasibility outright; its coverage,
        evaluated exactly through a certificate, usually proves
        feasibility.  Only the gap between the two pays for a full MILP.
    cache_hits:
        Oracle steps answered by a warm start's strategy certificate with
        no screen or solver call at all.  Only a warm-started pipeline
        solve has such certificates, and they answer only the
        bottom-endpoint probe and the level guess; 0 otherwise.
    session_mode:
        ``"incremental"`` for the ``memoise=True`` MILP pipeline (pool,
        screens, then a MILP on the assembled skeleton's
        ``skeleton.patch(c)``), ``"fresh"`` for every other path.  Only
        a label: both build each step's model fresh.
    guess_probes:
        Warm-start guesses (certificate level + carried bracket ends)
        actually probed by the binary search — what a
        :class:`WarmStart` cost to re-validate on this instance.  A
        bracket end the lower bound has already passed is not probed and
        adds nothing here; the gallop that such a bracket starts is not
        counted either.
    degraded:
        True iff a fallback rung other than the first answered at least
        one step (always False without a resilience policy).
    resilience:
        The :class:`~repro.resilience.policy.ResilienceReport` for the
        solve when a policy was active, else ``None``.
    """

    strategy: np.ndarray
    worst_case_value: float
    worst_case: WorstCaseSolution
    lower_bound: float
    upper_bound: float
    epsilon: float
    num_segments: int
    iterations: int
    trace: tuple
    solve_seconds: float
    converged: bool = True
    degraded: bool = False
    resilience: ResilienceReport | None = None
    milp_solves: int = 0
    lp_solves: int = 0
    hull_screens: int = 0
    cache_hits: int = 0
    session_mode: str = "fresh"
    guess_probes: int = 0

    @property
    def oracle_calls(self) -> int:
        """Alias for ``iterations`` — total feasibility-oracle queries."""
        return self.iterations

    def as_warm_start(self) -> WarmStart:
        """Package this result for a neighbouring solve's ``warm_start``."""
        return WarmStart(
            bracket=(self.lower_bound, self.upper_bound),
            strategies=(self.strategy,),
        )


def solve_cubis(
    game: IntervalSecurityGame,
    uncertainty: UncertaintyModel,
    *,
    num_segments: int = 10,
    epsilon: float = 1e-3,
    backend: str = "highs",
    oracle: str = "milp",
    equality_resources: bool = False,
    coverage_constraints=None,
    execution_alpha: float = 0.0,
    feasibility_tolerance: float = 1e-7,
    max_iterations: int = 200,
    resilience: ResiliencePolicy | None = None,
    memoise: bool = True,
    warm_start: WarmStart | None = None,
    session: str | None = None,
    speculation: int = 1,
) -> CubisResult:
    """Run CUBIS on an interval security game.

    Parameters
    ----------
    game:
        The :class:`~repro.game.ssg.IntervalSecurityGame` (defender
        payoffs + resources).
    uncertainty:
        The :class:`~repro.behavior.interval.UncertaintyModel` providing
        ``[L_i(x), U_i(x)]``; must cover the same number of targets.
    num_segments:
        ``K`` — piecewise-linear segments per target.
    epsilon:
        Binary-search tolerance on the defender-utility axis.
    backend:
        MILP backend: ``"highs"`` (default) or ``"bnb"`` (the pure-Python
        branch and bound).  Ignored when ``oracle="dp"``.
    oracle:
        Per-step feasibility oracle: ``"milp"`` is the paper's MILP
        (33-40); ``"dp"`` is the grid-restricted dynamic program of
        :mod:`repro.core.dp` (no MILP solver involved, same ``O(1/K)``
        approximation order — see the module docs for the trade-off).
    equality_resources:
        Use ``sum x = R`` in the MILP instead of the paper's ``<= R``
        (``"milp"`` oracle only).
    coverage_constraints:
        Optional :class:`~repro.game.constraints.CoverageConstraints`
        ``A x <= b`` — scheduling-style side constraints (zone caps,
        minimum coverage).  Supported by the ``"milp"`` oracle only; the
        returned strategy is not re-projected onto ``sum x = R`` (the
        projection could break the side constraints), so it may leave
        budget slack.
    execution_alpha:
        Execution-noise radius (see :mod:`repro.behavior.noise`): the
        realised coverage may fall up to ``alpha`` short of the plan per
        target, and nature exploits the shortfall.  Implemented by
        evaluating every grid — defender utilities and interval bounds —
        at the worst-case realised coverage ``max(t - alpha, 0)``; the
        returned ``worst_case_value`` is likewise execution-adjusted.
    feasibility_tolerance:
        Numerical slack on Proposition 2's sign test (``G_bar >= -tol``
        counts as feasible); finite and ``>= 0``.
    max_iterations:
        Hard cap on binary-search steps.
    resilience:
        Optional :class:`~repro.resilience.policy.ResiliencePolicy`.
        When given, every binary-search step runs through the policy's
        fallback ladder (by default ``highs`` → ``bnb`` → ``dp``) with
        bounded retries and soft timeouts, and the result carries a
        :class:`~repro.resilience.policy.ResilienceReport`; the
        ``backend`` / ``oracle`` arguments are ignored in favour of the
        policy's rungs.  With ``memoise=True`` a MILP rung with a named
        backend answers each step through the hull screen and the LP
        screen before a fresh-build MILP (see ``memoise``).
    memoise:
        The only switch between the two MILP pipelines (default on).
        ``memoise=True`` with the ``"milp"`` oracle and no resilience
        policy runs every step through the hull and LP-relaxation screens
        (named backends; a warm start's certificate pool answers the
        bottom-endpoint probe and the level guess before them), then a
        MILP on ``skeleton.patch(c)`` of the skeleton assembled once per
        solve (see docs/PERFORMANCE.md).  A backend failure propagates,
        exactly as under ``memoise=False``; a resilience policy is the
        recovery path.
        Feasibility *verdicts* are unchanged — a certificate only fires
        when the MILP would also have reported feasible — but the
        certifying strategy may replace the MILP maximiser as the step's
        witness.  ``memoise=False`` rebuilds the MILP from scratch every
        step: the reference path and the benchmark baseline.  With the
        ``"dp"`` oracle, ``memoise=True`` screens every step on the grid
        hull and runs the knapsack kernel only for fall-throughs plus
        once at the end for the strategy; verdicts, bracket, trace and
        strategy stay bit-identical to ``memoise=False``.  Under a
        resilience policy, ``memoise=True`` gives every MILP rung with a
        named backend the same screens and skeleton (no pool), so the
        bisection trace equals the ``memoise=False`` ladder's while most
        steps skip the MILP; callable rungs and the ``dp`` rung keep one
        exact solve per step.
    warm_start:
        Optional :class:`WarmStart` from a neighbouring solve (same game
        with a different ``K``/``epsilon``, or a similar game in a sweep).
        The carried bracket is probed — not trusted — and the carried
        strategies make up the pipeline's certificate pool, so a stale
        warm start degrades gracefully to at most two extra oracle calls.
        A bracket the lower bound passes starts a gallop up from it
        instead (see :class:`WarmStart`).
    session:
        ``None`` (default) lets ``memoise`` decide.  The strings
        ``"incremental"`` and ``"fresh"`` are accepted as explicit
        spellings of the two pipelines and must agree with them:
        ``"incremental"`` requires ``memoise=True``, the ``"milp"``
        oracle and no resilience policy; ``"fresh"`` requires
        ``memoise=False``.  Any other value, a session object included,
        is rejected.
    speculation:
        Must be 1: the search is plain bisection, one oracle call per
        step (docs/PERFORMANCE.md explains why).  Accepted so callers and
        service requests that spell this value out stay valid.
    """
    started = time.perf_counter()
    if uncertainty.num_targets != game.num_targets:
        raise ValueError(
            f"uncertainty model covers {uncertainty.num_targets} targets but the "
            f"game has {game.num_targets}"
        )
    check_positive(epsilon, "epsilon")
    check_positive(execution_alpha, "execution_alpha", strict=False)
    check_positive(feasibility_tolerance, "feasibility_tolerance", strict=False)
    num_segments = check_int_at_least(num_segments, 1, "num_segments")
    max_iterations = check_int_at_least(max_iterations, 1, "max_iterations")
    if speculation != 1:
        raise ValueError(
            f"speculation must be 1 (plain bisection), got {speculation!r}"
        )
    # memoise alone picks the MILP pipeline: certificate pool (two
    # probes) -> hull screen -> LP screen -> MILP on skeleton.patch(c),
    # or build_cubis_milp per step.  For the dp oracle it puts the grid
    # hull screen in front of the kernel.  Ladder rungs with a named MILP
    # backend get the same screens without the pool (make_milp_oracle).
    pipeline = memoise and oracle == "milp" and resilience is None
    grid_screen = memoise and oracle == "dp" and resilience is None
    session_mode = "incremental" if pipeline else "fresh"
    if session not in (None, "incremental", "fresh"):
        raise ValueError(
            f"session must be None, 'incremental' or 'fresh', got {session!r}"
        )
    if session == "fresh" and memoise:
        raise ValueError("session='fresh' requires memoise=False")
    if session == "incremental" and not pipeline:
        raise ValueError(
            "session='incremental' requires memoise=True, oracle='milp' "
            "and no resilience policy"
        )
    solve_span = telemetry.span(
        "cubis.solve",
        targets=game.num_targets,
        segments=int(num_segments),
        epsilon=float(epsilon),
        oracle=oracle,
        backend=backend_label(backend),
        memoise=bool(memoise),
        resilient=resilience is not None,
        session=session_mode,
    )
    # The solve counts on its own registry, so its result fields are its
    # own work even while other threads solve; the active context's
    # registry receives the counts when the solve ends, raise or not.
    meter = telemetry.MetricsRegistry()
    with solve_span, ExitStack() as on_exit:
        on_exit.callback(telemetry.metrics().merge, meter)
        grid = SegmentGrid(num_segments)
        ud_grid, lower_grid, upper_grid = step_grids(
            game, uncertainty, grid, execution_alpha=execution_alpha
        )

        if oracle not in ("milp", "dp"):
            raise ValueError(f"oracle must be 'milp' or 'dp', got {oracle!r}")
        if coverage_constraints is not None and oracle != "milp":
            raise ValueError("coverage_constraints require the 'milp' oracle")
        if coverage_constraints is not None and resilience is not None:
            if any(r.oracle != "milp" for r in resilience.rungs):
                raise ValueError(
                    "coverage_constraints require milp rungs only; pass "
                    "resilience.milp_only()"
                )

        def validate_step(strategy: np.ndarray, label: str) -> None:
            validate_step_solution(
                strategy, game.num_resources, label,
                equality=equality_resources, constraints=coverage_constraints,
            )

        # --- performance layer -------------------------------------------- #
        # memoise assembles the MILP structure once and builds each step's
        # model with skeleton.patch(c); a warm start's certificates answer
        # the steps they still certify in O(T).  Memoised ladder rungs
        # with a named backend answer through the same hull and LP
        # screens (no pool); callable and dp rungs keep one exact solve
        # per step (see docs/PERFORMANCE.md).
        needs_milp = (
            any(r.oracle == "milp" for r in resilience.rungs)
            if resilience is not None
            else oracle == "milp"
        )
        skeleton = None
        if memoise and needs_milp:
            # The process-wide shape cache leases a structure-sharing
            # skeleton instead of assembling one; rebinding is
            # bit-identical to a fresh build, so this only changes cost.
            # Side constraints embed their matrix in the structure, so
            # constrained games always build fresh.
            if coverage_constraints is None:
                skeleton = process_shape_cache().lease(
                    ud_grid,
                    lower_grid,
                    upper_grid,
                    game.num_resources,
                    grid,
                    equality_resources=equality_resources,
                )
            else:
                skeleton = CubisMilpSkeleton(
                    ud_grid,
                    lower_grid,
                    upper_grid,
                    game.num_resources,
                    grid,
                    equality_resources=equality_resources,
                    coverage_constraints=coverage_constraints,
                )
        # The Lagrangian hull screen needs the separable budget polytope;
        # side constraints couple the targets, so they skip it.
        hull = (
            LagrangianHull(
                ud_grid,
                lower_grid,
                upper_grid,
                game.num_resources,
                grid,
                equality_resources=equality_resources,
            )
            if skeleton is not None and coverage_constraints is None
            else None
        )
        # The warm start's StrategyCertificate entries.  They answer only
        # the candidates in pool_probes, the bottom endpoint and the level
        # guess: once those lift the lower bound (payload_bound) to the
        # best level any of them certifies, no later candidate is theirs.
        # A certificate the solve makes itself never joins, for the same
        # reason.
        pool: list = []
        pool_probes: tuple = ()
        # Per-solve telemetry counters (docs/OBSERVABILITY.md); the
        # CubisResult fields are read straight off them.
        milp_counter = meter.counter("repro_cubis_milp_solves_total")
        lp_counter = meter.counter("repro_cubis_lp_screens_total")
        hit_counter = meter.counter("repro_cubis_cache_hits_total")
        miss_counter = meter.counter("repro_cubis_cache_misses_total")
        hull_counters = {
            verdict: meter.counter("repro_cubis_hull_screens_total", verdict=verdict)
            for verdict in ("infeasible", "feasible", "fallthrough")
        }

        def certificate_answer(c: float):
            # A warm-start strategy that certifies c answers the oracle for
            # free: the MILP maximum can only be higher, so the verdict is
            # the one the solver would have returned.  Returns None when
            # the pool cannot answer.
            best, best_g = None, -float("inf")
            for cert in pool:
                g = cert.g_bar(c)
                if g > best_g:
                    best, best_g = cert, g
            if best_g >= -feasibility_tolerance:
                return True, best
            return None

        def hull_screened(c: float, decide):
            # One Lagrangian hull screen (docs/PERFORMANCE.md), whichever
            # oracle it fronts: decide(c, span) returns the step's answer,
            # or None to fall through to the next layer.
            t0 = time.perf_counter()
            with telemetry.span("cubis.hull_screen", c=float(c)) as sp:
                answer = decide(c, sp)
                verdict = (
                    "fallthrough" if answer is None
                    else "feasible" if answer[0] else "infeasible"
                )
                sp.set(verdict=verdict)
            hull_counters[verdict].inc()
            telemetry.histogram("repro_oracle_seconds", kind="hull").observe(
                time.perf_counter() - t0
            )
            return answer

        def hull_answer(c: float, sp):
            # min B bounds the MILP optimum from above, so a value below
            # the tolerance proves infeasibility; the hull witness,
            # evaluated exactly through a certificate, proves feasibility.
            # Anything else is left to the LP screen.
            screen = hull.screen(c)
            sp.set(bound=screen.bound)
            if screen.bound < -feasibility_tolerance:
                return False, None
            cert = skeleton.certificate(screen.witness)
            witness_g = cert.g_bar(c)
            sp.set(witness_g=witness_g)
            if witness_g >= -feasibility_tolerance:
                try:
                    validate_step(cert.strategy, "hull witness")
                except OracleStepError:
                    return None  # fall through to the LP screen
                return True, cert
            return None

        def make_milp_oracle(milp_backend, *, validate: bool = True):
            label = backend_label(milp_backend)
            # Callable backends (fault injectors, custom solvers) skip the
            # screens, so each step they answer is one solve; only a warm
            # start's pool still answers before them.
            lp_screen = skeleton is not None and isinstance(milp_backend, str)
            hull_screen = lp_screen and hull is not None
            # The highs LP screens of this solve share one live HiGHS
            # model, warm-started from the previous screen's basis.  It
            # lives in this closure only, so it dies with the solve.
            live_lp = LiveLp()

            def milp_oracle(c: float):
                # Certificate pool (its two probes) -> hull screen -> LP
                # screen -> MILP, every model built fresh for c; each
                # counter ticks just before the action it counts, so a
                # raise leaves exact totals behind.
                if pool and c in pool_probes:
                    hit = certificate_answer(c)
                    if hit is not None:
                        hit_counter.inc()
                        return hit
                    miss_counter.inc()
                if hull_screen:
                    answer = hull_screened(c, hull_answer)
                    if answer is not None:
                        return answer
                model = (
                    skeleton.patch(c)
                    if skeleton is not None
                    else build_cubis_milp(
                        ud_grid,
                        lower_grid,
                        upper_grid,
                        game.num_resources,
                        c,
                        grid,
                        equality_resources=equality_resources,
                        coverage_constraints=coverage_constraints,
                    )
                )
                if lp_screen:
                    # LP-relaxation screen.  The relaxation's optimum bounds
                    # the integer optimum from above, so a value below the
                    # tolerance proves infeasibility; conversely the relaxed
                    # coverage — evaluated exactly through a certificate, not
                    # the relaxation's own objective — usually proves
                    # feasibility.  Either way the verdict matches what the
                    # full MILP would have said; only the gap between the two
                    # bounds pays for branch and cut.
                    lp_counter.inc()
                    relaxed = solve_milp(
                        relax_integrality(model.problem), backend=milp_backend,
                        live=live_lp,
                    )
                    if relaxed.optimal:
                        g_upper = model.g_bar_from_objective(relaxed.objective)
                        if g_upper < -feasibility_tolerance:
                            return False, None
                        candidate = np.clip(
                            model.strategy_from_solution(relaxed.x), 0.0, 1.0
                        )
                        cert = skeleton.certificate(candidate)
                        if cert.g_bar(c) >= -feasibility_tolerance:
                            try:
                                validate_step(candidate, "lp relaxation")
                            except OracleStepError:
                                pass  # fall through to the MILP
                            else:
                                return True, cert
                milp_counter.inc()
                result = solve_milp(model.problem, backend=milp_backend)
                if not result.optimal:
                    # The MILP is always feasible in (x, v, q, h) — x =
                    # anything feasible, q = 1, v at its forced value — so
                    # a non-optimal status signals a solver failure, not
                    # (P1) infeasibility.
                    raise OracleStepError(
                        f"CUBIS MILP solve failed at c={c:.6g} with backend "
                        f"{label!r}: {result.status} {result.message}"
                    )
                g_bar = model.g_bar_from_objective(result.objective)
                strategy = model.strategy_from_solution(result.x)
                if validate:
                    if not np.isfinite(g_bar):
                        raise OracleStepError(
                            f"backend {label!r} reported a non-finite objective "
                            f"at c={c:.6g}"
                        )
                    validate_step(strategy, f"backend {label!r}")
                feasible = g_bar >= -feasibility_tolerance
                if feasible and pipeline:
                    # The pipeline's payload_bound reads the level off it.
                    return True, skeleton.certificate(strategy)
                return feasible, strategy

            return milp_oracle

        budget_units = grid_budget_units(game.num_resources, num_segments)

        def step_phi(c: float) -> np.ndarray:
            # G(x, beta*) = sum_i min(f1_i, f2_i)(x_i) — separable, so the
            # grid-restricted maximum is a multiple-choice knapsack.
            margin = ud_grid - c
            return np.minimum(lower_grid * margin, upper_grid * margin)

        def run_grid_kernel(c: float):
            t0 = time.perf_counter()
            with telemetry.span(
                "dp.solve", kind="dp", budget_units=budget_units
            ) as sp:
                allocation = maximize_separable_on_grid(
                    step_phi(c), budget_units
                )
                feasible = allocation.value >= -feasibility_tolerance
                sp.set(feasible=bool(feasible))
            telemetry.histogram("repro_oracle_seconds", kind="dp").observe(
                time.perf_counter() - t0
            )
            return feasible, allocation.coverage(num_segments)

        def grid_hull_answer(c: float, sp):
            # The grid knapsack's Lagrangian screen: min B (plus its float
            # margin) bounds the kernel's value from above, and the
            # witness's sum, added in the kernel's order, from below; both
            # verdicts are therefore the kernel's own.  A feasible verdict
            # defers the kernel: only the last one's strategy is needed.
            # A witness over budget proves nothing and falls through.
            screen = screen_grid(step_phi(c), budget_units)
            sp.set(
                bound=screen.bound, witness_g=screen.witness_sum, hull=screen.hull
            )
            if screen.bound < -feasibility_tolerance - screen.margin:
                return False, None
            if (
                screen.witness_sum >= -feasibility_tolerance
                and screen.units.sum() <= budget_units
            ):
                return True, _DeferredGridSolve(float(c))
            return None

        def dp_oracle(c: float):
            if grid_screen:
                answer = hull_screened(c, grid_hull_answer)
                if answer is not None:
                    return answer
            return run_grid_kernel(c)

        lo, hi = game.utility_range()

        # Warm-start intake: screened strategies make up the certificate
        # pool (the last _CERTIFICATE_POOL_LIMIT of them) and contribute one
        # proven-feasible guess (the best level any of them certifies,
        # computed without any MILP); the carried bracket goes in as one
        # (lb, ub) guess: its ends are probed as ordinary oracle
        # candidates, skipped once the lower bound has passed them, and a
        # bracket the lower bound passes starts the gallop.  Everything is
        # verified against *this* game, so stale warm starts cannot
        # corrupt the result.
        guesses: list = []
        if warm_start is not None:
            if pipeline:
                level = -float("inf")
                for candidate in warm_start.strategies:
                    arr = np.asarray(candidate, dtype=np.float64)
                    if arr.shape != (game.num_targets,) or not np.all(np.isfinite(arr)):
                        continue
                    arr = np.clip(arr, 0.0, 1.0)
                    try:
                        validate_step(arr, "warm start")
                    except OracleStepError:
                        continue
                    cert = skeleton.certificate(arr)
                    level = max(level, cert.guaranteed_level(lo, hi))
                    pool.append(cert)
                del pool[:-_CERTIFICATE_POOL_LIMIT]
                pool_probes = (lo, level)
                if np.isfinite(level):
                    guesses.append(level)
            if warm_start.bracket is not None:
                prev_lb, prev_ub = warm_start.bracket
                guesses.append((float(prev_lb), float(prev_ub)))

        ladder: OracleLadder | None = None
        if resilience is not None:
            rung_oracles = tuple(
                make_milp_oracle(r.backend, validate=resilience.validate_steps)
                if r.oracle == "milp"
                else dp_oracle
                for r in resilience.rungs
            )
            ladder = OracleLadder(resilience, rung_oracles, SolveEventLog())
            base_oracle = ladder
        else:
            base_oracle = (
                make_milp_oracle(backend)
                if oracle == "milp"
                else dp_oracle
            )

        # Bookkeeping wrapper: tracks the step index and the live bracket so
        # a hard failure surfaces with enough context for production triage.
        state = {"step": 0, "lo": lo, "hi": hi}

        def step_oracle(c: float):
            state["step"] += 1
            try:
                feasible, payload = base_oracle(c)
            except (OracleStepError, LadderExhaustedError) as exc:
                raise type(exc)(
                    f"{exc} (binary-search step {state['step']}, bracket "
                    f"[{state['lo']:.6g}, {state['hi']:.6g}])"
                ) from exc
            if feasible:
                state["lo"] = max(state["lo"], c)
            else:
                state["hi"] = min(state["hi"], c)
            progress.publish(
                "solve",
                step=state["step"],
                bracket_lo=state["lo"], bracket_hi=state["hi"],
                bracket_width=state["hi"] - state["lo"],
            )
            return feasible, payload

        def certified_level(cert: StrategyCertificate) -> float:
            # The exact utility level a feasible pipeline step's payload
            # certifies: the binary search jumps its lower bound there.
            return cert.guaranteed_level(lo, hi)

        search = binary_search_max(
            step_oracle,
            lo,
            hi,
            tolerance=epsilon,
            max_iterations=max_iterations,
            initial_guesses=tuple(guesses),
            payload_bound=certified_level if pipeline else None,
        )
        payload = search.payload
        if isinstance(payload, _DeferredGridSolve):
            # The one kernel run a fully screened DP solve needs: the
            # strategy of the last feasible step, exactly as the kernel
            # would have returned it there.
            _, payload = run_grid_kernel(payload.c)
        elif isinstance(payload, StrategyCertificate):
            payload = payload.strategy
        if payload is None:
            raise RuntimeError(
                "CUBIS binary search found no feasible utility level; "
                "the bottom of the utility range should always be "
                "feasible — this indicates an inconsistent game or "
                "uncertainty model"
            )
        if coverage_constraints is None:
            strategy = game.strategy_space.project(np.asarray(payload))
        else:
            # Projection onto sum(x) = R could violate the side
            # constraints; keep the MILP's (feasible) strategy,
            # clipped to the box.
            strategy = np.clip(np.asarray(payload), 0.0, 1.0)
        with telemetry.span("cubis.evaluate_worst_case"):
            worst = evaluate_worst_case(
                game, uncertainty, strategy,
                execution_alpha=execution_alpha,
            )

        milp_solves = int(milp_counter.value)
        lp_solves = int(lp_counter.value)
        cache_hits = int(hit_counter.value)
        hull_screens = int(sum(counter.value for counter in hull_counters.values()))
        solve_span.set(
            iterations=search.iterations,
            converged=search.converged,
            milp_solves=milp_solves,
            lp_solves=lp_solves,
            hull_screens=hull_screens,
            cache_hits=cache_hits,
            session_mode=session_mode,
            worst_case_value=float(worst.value),
        )
        return CubisResult(
            strategy=strategy,
            worst_case_value=worst.value,
            worst_case=worst,
            lower_bound=search.lower,
            upper_bound=search.upper,
            epsilon=float(epsilon),
            num_segments=int(num_segments),
            iterations=search.iterations,
            trace=search.trace,
            solve_seconds=time.perf_counter() - started,
            converged=search.converged,
            degraded=ladder.degraded if ladder is not None else False,
            resilience=ladder.report() if ladder is not None else None,
            milp_solves=milp_solves,
            lp_solves=lp_solves,
            hull_screens=hull_screens,
            cache_hits=cache_hits,
            session_mode=session_mode,
            guess_probes=search.guess_probes,
        )
