"""Theorem conformance: the paper's structural facts, checked numerically.

Each predicate re-derives one exact statement of the paper at a concrete
solution and returns a :class:`~repro.verify.report.ConformanceCheck`:

* :func:`check_beta_elimination` — Proposition 3: at any fixed ``(x, c)``
  the dual vector ``beta_i^* = max(0, c - U_i^d(x_i))`` maximises
  ``G(x, beta; c)`` over the feasible dual set
  ``{beta >= 0 : U_i^d + beta_i >= c}``, and ``G`` at ``beta^*``
  collapses to the separable closed form ``sum_i min(f_i^1, f_i^2)``.
* :func:`check_value_point` — Propositions 1-2: ``G(x, beta^*(c); c)`` is
  strictly decreasing in ``c`` with its unique zero at the worst-case
  value of ``x``; the sign flips exactly there, and the root agrees with
  the independent vertex-enumeration evaluation.
* :func:`check_segment_bound` — Lemma 1's piecewise-linearisation error:
  on a refined grid, ``|f - fbar| <= L_f / (2K)`` for each of the four
  tabulated functions the MILP actually linearises (``L``, ``U``,
  ``L U^d``, ``U U^d``), with the Lipschitz constant measured from the
  same refined grid.
* :func:`check_interval_monotonicity` — wider uncertainty boxes can only
  hurt: the robust value is non-increasing in the interval width, up to
  the Theorem 1 solve slack.
* :func:`check_hull_sandwich` — the Lagrangian hull screen's two bounds
  bracket the step MILP's optimum: ``G_bar`` of the hull witness from
  below, ``min_lam B(lam)`` from above.
* :func:`check_dp_hull_sandwich` — the same for the DP oracle's grid
  knapsack: the grid witness's sum from below (exactly, in float), the
  grid ``min B`` from above, around the full-table loop reference's
  optimum; the pruned kernel, which trusts the screen, must match that
  reference bit for bit.

All checks but two are solver-independent and cheap enough to run on
every ``repro verify`` instance: the monotonicity sweep runs whole CUBIS
solves by design, and the hull sandwich solves one MILP and its LP
relaxation to have something to bracket.
"""

from __future__ import annotations

import numpy as np

from repro.behavior.interval import IntervalSUQR
from repro.core.dual import beta_star, g_value
from repro.core.dp import (
    _maximize_separable_on_grid_loop,
    grid_budget_units,
    maximize_separable_on_grid,
)
from repro.core.hull import LagrangianHull, screen_grid
from repro.core.milp import CubisMilpSkeleton, step_grids
from repro.core.worst_case import evaluate_worst_case, worst_case_dual_root
from repro.resilience.certificate import theorem_slack
from repro.solvers.milp_backend import relax_integrality, solve_milp
from repro.solvers.piecewise import SegmentGrid
from repro.utils.rng import as_generator
from repro.verify.report import ConformanceCheck

__all__ = [
    "check_beta_elimination",
    "check_value_point",
    "check_segment_bound",
    "check_interval_monotonicity",
    "check_hull_sandwich",
    "check_dp_hull_sandwich",
    "scaled_uncertainty",
]


def _bounds_at(game, uncertainty, x):
    x = np.asarray(x, dtype=np.float64)
    return (
        game.defender_utilities(x),
        uncertainty.lower(x),
        uncertainty.upper(x),
    )


def check_beta_elimination(
    game,
    uncertainty,
    strategy,
    c: float,
    *,
    num_probes: int = 64,
    seed: int = 0,
    atol: float = 1e-9,
) -> ConformanceCheck:
    """Proposition 3 at ``(strategy, c)``: ``beta^*`` is the argmax of
    ``G`` over the feasible dual set ``{beta >= 0 : U_i^d + beta_i >= c}``
    and yields the separable closed form.

    ``beta^* = max(0, c - U^d)`` is the elementwise-minimal feasible
    point, and ``G`` is non-increasing in ``beta``, so the claim is
    probed adversarially with random *feasible* vectors ``beta^* +
    delta`` (``delta >= 0``: uniform, half-normal, and sparse bursts) —
    none may beat ``G(x, beta^*; c)``; the closed form
    ``sum_i min(L_i (U_i^d - c), U_i (U_i^d - c))`` must match exactly;
    ``beta^*`` itself must be feasible.
    """
    ud, lo, hi = _bounds_at(game, uncertainty, strategy)
    bstar = beta_star(ud, c)
    g_star = g_value(lo, hi, ud, bstar, c)
    margin = ud - c
    closed_form = float(np.minimum(lo * margin, hi * margin).sum())
    scale = max(1.0, abs(g_star), float(np.abs(lo * margin).sum()))

    form_gap = abs(g_star - closed_form)
    infeasibility = max(
        float(np.max(-bstar, initial=0.0)),
        float(np.max(c - ud - bstar, initial=0.0)),
    )
    rng = as_generator(seed)
    worst_violation = 0.0
    span = max(1.0, float(np.ptp(ud)))
    probes = [bstar, bstar + 0.5 * span, bstar + span * np.eye(len(bstar))[0]]
    for _ in range(num_probes):
        kind = rng.integers(3)
        if kind == 0:
            delta = rng.uniform(0.0, span, size=bstar.shape)
        elif kind == 1:
            delta = np.abs(rng.normal(0.0, 0.1 * span, size=bstar.shape))
        else:
            delta = span * (rng.uniform(size=bstar.shape) < 0.3)
        probes.append(bstar + delta)
    for beta in probes:
        worst_violation = max(
            worst_violation, g_value(lo, hi, ud, beta, c) - g_star
        )

    measured = max(form_gap, worst_violation, infeasibility)
    passed = measured <= atol * scale
    return ConformanceCheck(
        name="theorem.beta_elimination",
        passed=passed,
        detail=(
            f"Prop 3 at c={c:.6g}: closed-form gap {form_gap:.3g}, "
            f"best feasible-probe advantage {worst_violation:.3g} over "
            f"{len(probes)} probes, beta^* infeasibility {infeasibility:.3g}"
        ),
        measured=measured,
        bound=atol * scale,
        context={"c": float(c), "g_star": float(g_star), "probes": len(probes)},
    )


def check_value_point(
    game,
    uncertainty,
    strategy,
    *,
    execution_alpha: float = 0.0,
    rtol: float = 1e-7,
) -> ConformanceCheck:
    """Propositions 1-2 at ``strategy``: the value-point condition.

    ``g(c) = G(x, beta^*(c); c)`` must (a) vanish at the worst-case value
    ``c^*`` of the strategy, (b) be non-negative just below and
    non-positive just above ``c^*`` (the monotone sign test the binary
    search relies on), and (c) have its root ``c^*`` agree with the
    independent vertex-enumeration worst case.
    """
    x = np.asarray(strategy, dtype=np.float64)
    realised = np.maximum(x - execution_alpha, 0.0) if execution_alpha > 0 else x
    ud, lo, hi = _bounds_at(game, uncertainty, realised)
    span = max(1.0, float(np.ptp(ud)))
    g_scale = max(1.0, float(np.abs(lo @ ud)), float(lo.sum()) * span)
    tol = rtol * g_scale

    root = worst_case_dual_root(ud, lo, hi)
    vertex = evaluate_worst_case(
        game, uncertainty, x, execution_alpha=execution_alpha
    ).value

    def g(c):
        return g_value(lo, hi, ud, beta_star(ud, c), c)

    delta = max(1e-9, 1e-6 * span)
    zero_gap = abs(g(root))
    below = g(root - delta)
    above = g(root + delta)
    root_gap = abs(root - vertex)

    sign_ok = below >= -tol and above <= tol
    passed = zero_gap <= tol and sign_ok and root_gap <= rtol * span
    return ConformanceCheck(
        name="theorem.value_point",
        passed=passed,
        detail=(
            f"G(x, beta^*) at c^*={root:.6g}: |G|={zero_gap:.3g}, "
            f"G(c^*-d)={below:.3g}, G(c^*+d)={above:.3g}; "
            f"vertex-enumeration value {vertex:.6g} "
            f"({'agrees' if root_gap <= rtol * span else 'DISAGREES'})"
        ),
        measured=max(zero_gap / g_scale, root_gap / span),
        bound=rtol,
        context={
            "root": float(root),
            "vertex_value": float(vertex),
            "g_below": float(below),
            "g_above": float(above),
        },
    )


def check_segment_bound(
    game,
    uncertainty,
    num_segments: int,
    *,
    refine: int = 33,
    atol: float = 1e-9,
) -> ConformanceCheck:
    """Lemma 1: the ``SegmentGrid`` interpolant of each tabulated function
    stays within the analytic ``L_f / (2K)`` band.

    The four c-free functions the CUBIS MILP linearises (``L``, ``U``,
    ``L U^d``, ``U U^d``; same conditioning rescale as the solver) are
    evaluated on a grid refined ``refine``-fold; the measured interpolation
    error must not exceed half the measured Lipschitz constant times the
    segment length ``1/K``.
    """
    grid = SegmentGrid(num_segments)
    fine = np.linspace(0.0, 1.0, num_segments * refine + 1)
    ud_f = (
        np.outer(game.payoffs.defender_reward, fine)
        + np.outer(game.payoffs.defender_penalty, 1.0 - fine)
    )
    lo_f = uncertainty.lower_on_grid(fine)
    hi_f = uncertainty.upper_on_grid(fine)
    scale = 1.0 / hi_f.max()
    functions = {
        "L": lo_f * scale,
        "U": hi_f * scale,
        "L*Ud": lo_f * ud_f * scale,
        "U*Ud": hi_f * ud_f * scale,
    }

    worst_ratio = 0.0
    details = []
    passed = True
    for name, f_fine in functions.items():
        breakpoint_values = f_fine[:, ::refine]
        approx = np.stack(
            [
                grid.interpolate(breakpoint_values, np.full(game.num_targets, t))
                for t in fine
            ],
            axis=1,
        )
        err = float(np.abs(approx - f_fine).max())
        lipschitz = float(np.abs(np.diff(f_fine, axis=1)).max()) * (len(fine) - 1)
        bound = 0.5 * lipschitz / num_segments + atol
        ok = err <= bound
        passed = passed and ok
        worst_ratio = max(worst_ratio, err / bound if bound > 0 else np.inf)
        details.append(f"{name}: {err:.3g}<={bound:.3g}" if ok
                       else f"{name}: {err:.3g}>{bound:.3g} VIOLATED")

    return ConformanceCheck(
        name="theorem.segment_bound",
        passed=passed,
        detail=f"PWL error vs L/(2K) at K={num_segments}: " + ", ".join(details),
        measured=worst_ratio,
        bound=1.0,
        context={"num_segments": int(num_segments), "refine": int(refine)},
    )


def scaled_uncertainty(uncertainty, factor: float):
    """``uncertainty`` with its weight boxes shrunk/stretched by ``factor``
    around their midpoints (``IntervalSUQR`` only)."""
    if not isinstance(uncertainty, IntervalSUQR):
        raise TypeError(
            "interval-width scaling requires an IntervalSUQR model, got "
            f"{type(uncertainty).__name__}"
        )
    w1, w2, w3 = uncertainty.weight_boxes
    return IntervalSUQR(
        uncertainty.payoffs,
        w1=w1.scaled(factor),
        w2=w2.scaled(factor),
        w3=w3.scaled(factor),
        convention=uncertainty.convention,
    )


def check_interval_monotonicity(
    game,
    uncertainty,
    *,
    scales: tuple[float, ...] = (0.25, 1.0),
    num_segments: int = 8,
    epsilon: float = 1e-3,
    atol: float = 1e-9,
) -> ConformanceCheck:
    """The robust value is non-increasing in the interval width.

    For widths ``s1 < s2``, the true robust optimum satisfies
    ``v(s1) >= v(s2)`` (nature's feasible set only grows), so the computed
    values must satisfy ``v_hat(s1) >= v_hat(s2) - slack`` with ``slack``
    the Theorem 1 envelope of the narrower solve.  Requires an
    :class:`~repro.behavior.interval.IntervalSUQR` model (the width knob).
    """
    from repro.core.cubis import solve_cubis  # local: avoid an import cycle

    ordered = tuple(sorted(float(s) for s in scales))
    if len(ordered) < 2:
        raise ValueError(f"need at least two scales, got {scales}")
    values = []
    for s in ordered:
        result = solve_cubis(
            game,
            scaled_uncertainty(uncertainty, s),
            num_segments=num_segments,
            epsilon=epsilon,
        )
        values.append(float(result.worst_case_value))
    slack = theorem_slack(game, epsilon, num_segments)

    worst_violation = 0.0
    for narrow, wide in zip(values, values[1:]):
        worst_violation = max(worst_violation, wide - narrow)
    passed = worst_violation <= slack + atol
    return ConformanceCheck(
        name="theorem.interval_monotonicity",
        passed=passed,
        detail=(
            "robust value vs interval width "
            + " >= ".join(f"{v:.4g}@{s:g}" for s, v in zip(ordered, values))
            + f"; worst widening gain {worst_violation:.3g} (slack {slack:.3g})"
        ),
        measured=worst_violation,
        bound=slack + atol,
        context={"scales": list(ordered), "values": values, "slack": slack},
    )


#: HiGHS's default relative MIP gap: its reported MILP optimum may sit
#: this far (relative to the solver's objective) below the true one.
HIGHS_MIP_REL_GAP = 1e-4


def check_hull_sandwich(
    game,
    uncertainty,
    num_segments: int,
    c: float,
    *,
    atol: float = 1e-7,
) -> ConformanceCheck:
    """The hull screen's bounds bracket the step MILP (33-40) at ``c``.

    ``g_bar(c)`` of the hull witness ``x(lam)`` is a feasible strategy's
    exact value, so it bounds the MILP optimum ``G_bar(c)`` from below;
    ``min_lam B(lam)`` is a Lagrangian dual value, so it bounds it from
    above.  The LP relaxation's value must reach the lower end too; it
    need not stay under ``B``, because the big-M relaxation can be
    looser than the Lagrangian bound.  The MILP side is read with
    HiGHS's relative gap, since its reported optimum may fall short of
    the true one by that much.
    """
    grid = SegmentGrid(num_segments)
    ud_grid, lower_grid, upper_grid = step_grids(game, uncertainty, grid)
    skeleton = CubisMilpSkeleton(
        ud_grid, lower_grid, upper_grid, game.num_resources, grid
    )
    screen = LagrangianHull(
        ud_grid, lower_grid, upper_grid, game.num_resources, grid
    ).screen(c)
    lower = skeleton.certificate(screen.witness).g_bar(c)
    model = skeleton.patch(c)
    milp = solve_milp(model.problem)
    relaxed = solve_milp(relax_integrality(model.problem))
    if not (milp.optimal and relaxed.optimal):
        return ConformanceCheck(
            name="theorem.hull_sandwich",
            passed=False,
            detail=(
                f"step MILP at c={c:.6g}: MILP {milp.status}, "
                f"LP relaxation {relaxed.status}"
            ),
            context={"c": float(c)},
        )
    g_milp = model.g_bar_from_objective(milp.objective)
    g_lp = model.g_bar_from_objective(relaxed.objective)
    gap = atol + HIGHS_MIP_REL_GAP * max(1.0, abs(milp.objective))
    violations = {
        "witness above MILP": lower - g_milp - gap,
        "MILP above min B": g_milp - screen.bound - atol,
        "witness above LP": lower - g_lp - atol,
    }
    measured = max(0.0, *violations.values())
    broken = [name for name, excess in violations.items() if excess > 0.0]
    return ConformanceCheck(
        name="theorem.hull_sandwich",
        passed=not broken,
        detail=(
            f"step MILP at c={c:.6g}: witness g_bar {lower:.6g} <= "
            f"MILP {g_milp:.6g} <= min B {screen.bound:.6g}; "
            f"LP relaxation {g_lp:.6g}"
            + (f"; VIOLATED: {', '.join(broken)}" if broken else "")
        ),
        measured=measured,
        bound=0.0,
        context={
            "c": float(c),
            "witness_g": float(lower),
            "milp_g": float(g_milp),
            "lp_g": float(g_lp),
            "bound": float(screen.bound),
            "lam": float(screen.lam),
        },
    )


def check_dp_hull_sandwich(
    game, uncertainty, num_segments: int, c: float
) -> ConformanceCheck:
    """The grid hull screen brackets the DP oracle's knapsack at ``c``.

    The witness sum is added in the kernel's own order, so it may not
    exceed the kernel's optimum by even one ulp; ``min B`` plus its float
    margin must not fall below it.  These are the two facts that make the
    screened DP oracle's verdicts the kernel's.  The optimum comes from
    the full-table loop reference, since the kernel prunes its table
    with this same screen; the kernel's value and units must equal the
    reference's bit for bit.
    """
    grid = SegmentGrid(num_segments)
    ud_grid, lower_grid, upper_grid = step_grids(game, uncertainty, grid)
    margin = ud_grid - c
    phi = np.minimum(lower_grid * margin, upper_grid * margin)
    budget = grid_budget_units(game.num_resources, num_segments)
    screen = screen_grid(phi, budget)
    reference = _maximize_separable_on_grid_loop(phi, budget)
    kernel = maximize_separable_on_grid(phi, budget)
    optimum = reference.value
    violations = {
        "witness above DP": screen.witness_sum - optimum,
        "DP above min B": optimum - screen.bound - screen.margin,
        "witness over budget": float(screen.units.sum() - budget),
        "kernel value off the reference": abs(kernel.value - optimum),
    }
    broken = [name for name, excess in violations.items() if excess > 0.0]
    if not np.array_equal(kernel.units, reference.units):
        broken.append("kernel units off the reference")
    return ConformanceCheck(
        name="theorem.dp_hull_sandwich",
        passed=not broken,
        detail=(
            f"grid knapsack at c={c:.6g}: witness {screen.witness_sum:.6g} "
            f"<= DP {optimum:.6g} <= min B {screen.bound:.6g} "
            f"(+{screen.margin:.2g})"
            + (f"; VIOLATED: {', '.join(broken)}" if broken else "")
        ),
        measured=max(0.0, *violations.values()),
        bound=0.0,
        context={
            "c": float(c),
            "witness_sum": float(screen.witness_sum),
            "dp_value": float(optimum),
            "kernel_value": float(kernel.value),
            "bound": float(screen.bound),
            "margin": float(screen.margin),
            "budget_units": budget,
        },
    )
