"""PASAQ-style defender optimisation against a *known* behavioral model.

Yang et al. (IJCAI'11) — reference [21] of the paper — compute the optimal
defender strategy against a known quantal-response attacker by binary
search on the defender's utility plus piecewise-linear MILPs.  The paper
reuses that scheme's skeleton; here it doubles as:

* the engine behind the **midpoint baseline** (solve the game as if the
  interval midpoints were the truth), and
* a reference implementation showing what CUBIS adds (the ``beta`` duals
  and the ``v``/``q`` big-M blocks are CUBIS-specific; the segment grid,
  fill-order binaries and binary search are shared machinery).

Feasibility check at level ``r``: the defender can guarantee expected
utility ``r`` against the known model iff

.. math::

    \\max_{x \\in X} \\; \\sum_i F_i(x_i) \\, [U_i^d(x_i) - r] \\; \\ge \\; 0

(the numerator of ``sum_i q_i U_i^d - r``); the maximand is separable per
target and is piecewise-linearised exactly like CUBIS's ``f^1``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.behavior.base import DiscreteChoiceModel
from repro.game.ssg import SecurityGame
from repro.resilience.events import SolveEventLog
from repro.resilience.policy import (
    OracleLadder,
    OracleStepError,
    ResiliencePolicy,
    ResilienceReport,
)
from repro.solvers.assembly import ConstraintBuilder, VariableLayout
from repro.solvers.binary_search import binary_search_max
from repro.solvers.milp_backend import MILPProblem, solve_milp
from repro.solvers.piecewise import SegmentGrid
from repro.utils.timing import Timer
from repro.utils.validation import check_int_at_least, check_positive

__all__ = ["PasaqResult", "solve_pasaq"]


@dataclass(frozen=True)
class PasaqResult:
    """Outcome of a PASAQ solve against a known model.

    ``value`` is the exact expected defender utility of ``strategy`` under
    the model (not the piecewise approximation); ``lower_bound`` /
    ``upper_bound`` bracket the approximated optimum.  ``converged``,
    ``degraded`` and ``resilience`` mirror the CUBIS result fields (see
    :class:`repro.core.cubis.CubisResult`).
    """

    strategy: np.ndarray
    value: float
    lower_bound: float
    upper_bound: float
    iterations: int
    solve_seconds: float
    converged: bool = True
    degraded: bool = False
    resilience: ResilienceReport | None = None


def _build_feasibility_milp(
    weights_grid: np.ndarray,
    ud_grid: np.ndarray,
    num_resources: float,
    r: float,
    grid: SegmentGrid,
) -> tuple[MILPProblem, VariableLayout, float]:
    """MILP maximising the piecewise-linearised
    ``sum_i F_i(x_i)(U_i^d(x_i) - r)`` over ``x in X``."""
    k = grid.num_segments
    num_targets = weights_grid.shape[0]
    g = weights_grid * (ud_grid - r)  # (T, K+1) breakpoint values
    slopes = grid.slopes(g)

    layout = VariableLayout()
    x_idx = layout.add("x", num_targets * k).reshape(num_targets, k)
    h_idx = (
        layout.add("h", num_targets * (k - 1)).reshape(num_targets, k - 1)
        if k > 1
        else layout.add("h", 0).reshape(num_targets, 0)
    )
    n = layout.size
    builder = ConstraintBuilder(n)
    if k > 1:
        rows = num_targets * (k - 1)
        builder.add_block(
            columns=np.column_stack([h_idx.ravel(), x_idx[:, :-1].ravel()]),
            coefficients=np.column_stack(
                [np.full(rows, grid.segment_length), -np.ones(rows)]
            ),
            rhs=np.zeros(rows),
        )
        builder.add_block(
            columns=np.column_stack([x_idx[:, 1:].ravel(), h_idx.ravel()]),
            coefficients=np.column_stack([np.ones(rows), -np.ones(rows)]),
            rhs=np.zeros(rows),
        )
    builder.add_row(x_idx.ravel(), np.ones(num_targets * k), float(num_resources))
    A_ub, b_ub = builder.build()

    cost = np.zeros(n)
    cost[x_idx.ravel()] = -slopes.ravel()  # minimise the negation
    lb = np.zeros(n)
    ub = np.full(n, 1.0)
    ub[x_idx.ravel()] = grid.segment_length
    integrality = np.zeros(n, dtype=np.int64)
    if h_idx.size:
        integrality[h_idx.ravel()] = 1
    problem = MILPProblem(
        c=cost, A_ub=A_ub, b_ub=b_ub, lb=lb, ub=ub, integrality=integrality
    )
    return problem, layout, float(g[:, 0].sum())


def solve_pasaq(
    game: SecurityGame,
    model: DiscreteChoiceModel,
    *,
    num_segments: int = 10,
    epsilon: float = 1e-3,
    backend: str = "highs",
    feasibility_tolerance: float = 1e-7,
    max_iterations: int = 200,
    resilience: ResiliencePolicy | None = None,
) -> PasaqResult:
    """Optimal defender strategy against a known discrete-choice attacker.

    Parameters mirror :func:`repro.core.cubis.solve_cubis`; a
    ``resilience`` policy is restricted to its MILP rungs (PASAQ has no
    DP formulation of the feasibility check).
    """
    if model.num_targets != game.num_targets:
        raise ValueError(
            f"model covers {model.num_targets} targets but the game has {game.num_targets}"
        )
    check_positive(epsilon, "epsilon")
    num_segments = check_int_at_least(num_segments, 1, "num_segments")
    max_iterations = check_int_at_least(max_iterations, 1, "max_iterations")

    grid = SegmentGrid(num_segments)
    breakpoints = grid.breakpoints
    weights_grid = model.weights_on_grid(breakpoints)
    if np.any(weights_grid <= 0) or not np.all(np.isfinite(weights_grid)):
        raise ValueError(
            "attack weights must be strictly positive and finite on the grid"
        )
    # The feasibility test is a sign test on sum_i F_i (U_i^d - r), which
    # is invariant to scaling F globally; normalise for conditioning.
    weights_grid = weights_grid / weights_grid.max()
    ud_grid = (
        np.outer(game.payoffs.defender_reward, breakpoints)
        + np.outer(game.payoffs.defender_penalty, 1.0 - breakpoints)
    )

    def make_oracle(milp_backend, *, validate: bool = True):
        label = milp_backend if isinstance(milp_backend, str) else getattr(
            milp_backend, "__name__", type(milp_backend).__name__
        )

        def oracle(r: float):
            problem, layout, g0 = _build_feasibility_milp(
                weights_grid, ud_grid, game.num_resources, r, grid
            )
            result = solve_milp(problem, backend=milp_backend)
            if not result.optimal:
                raise OracleStepError(
                    f"PASAQ MILP solve failed at r={r:.6g} with backend "
                    f"{label!r}: {result.status} {result.message}"
                )
            best = g0 - result.objective  # max of the linearised numerator
            k = grid.num_segments
            xik = result.x[layout["x"]].reshape(game.num_targets, k)
            strategy = xik.sum(axis=1)
            if validate:
                if not np.isfinite(best):
                    raise OracleStepError(
                        f"backend {label!r} reported a non-finite objective "
                        f"at r={r:.6g}"
                    )
                if (
                    not np.all(np.isfinite(strategy))
                    or np.any(strategy < -1e-6)
                    or np.any(strategy > 1.0 + 1e-6)
                    or strategy.sum() > game.num_resources + 1e-6
                ):
                    raise OracleStepError(
                        f"backend {label!r} returned an invalid strategy at "
                        f"r={r:.6g}"
                    )
            return best >= -feasibility_tolerance, strategy

        return oracle

    ladder: OracleLadder | None = None
    if resilience is not None:
        policy = resilience.milp_only()
        rung_oracles = tuple(
            make_oracle(r.backend, validate=policy.validate_steps)
            for r in policy.rungs
        )
        ladder = OracleLadder(policy, rung_oracles, SolveEventLog())
        step_oracle = ladder
    else:
        step_oracle = make_oracle(backend)

    timer = Timer()
    with timer:
        lo, hi = game.utility_range()
        search = binary_search_max(
            step_oracle, lo, hi, tolerance=epsilon, max_iterations=max_iterations
        )
        if search.payload is None:
            raise RuntimeError(
                "PASAQ binary search found no feasible utility level; the bottom "
                "of the utility range should always be feasible"
            )
        strategy = game.strategy_space.project(np.asarray(search.payload))
        value = model.expected_defender_utility(
            game.defender_utilities(strategy), strategy
        )
    return PasaqResult(
        strategy=strategy,
        value=float(value),
        lower_bound=search.lower,
        upper_bound=search.upper,
        iterations=search.iterations,
        solve_seconds=timer.elapsed,
        converged=search.converged,
        degraded=ladder.degraded if ladder is not None else False,
        resilience=ladder.report() if ladder is not None else None,
    )
