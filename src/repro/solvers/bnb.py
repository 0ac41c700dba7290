"""A from-scratch branch-and-bound MILP solver over LP relaxations.

This is the package's CPLEX substitution (DESIGN.md §3): a best-first
branch-and-bound that only needs :func:`scipy.optimize.linprog` for node
relaxations.  It is exact for the bounded mixed-binary programs CUBIS
produces, and is cross-tested against the HiGHS backend.

Algorithm
---------
Classic LP-based branch and bound:

1. solve the LP relaxation of the node (integrality dropped, node bounds
   kept);
2. prune if infeasible or if the relaxation bound cannot beat the
   incumbent;
3. if the relaxation is integral, update the incumbent;
4. otherwise branch on the most fractional integer variable, creating two
   children with tightened bounds (``<= floor`` / ``>= ceil``);
5. explore nodes in order of best relaxation bound (a heap), which makes
   the first incumbent good and keeps the global bound tight.
"""

from __future__ import annotations

import heapq
import itertools

import numpy as np

from repro.solvers.lp import solve_lp
from repro.solvers.milp_backend import MILPProblem, MILPResult

__all__ = ["solve_bnb"]

_INT_TOL = 1e-6


def solve_bnb(
    problem: MILPProblem,
    *,
    max_nodes: int = 100_000,
    gap_tol: float = 1e-9,
    incumbent: np.ndarray | None = None,
) -> MILPResult:
    """Solve a :class:`~repro.solvers.milp_backend.MILPProblem` by branch
    and bound.

    Parameters
    ----------
    problem:
        The MILP (minimisation form).
    max_nodes:
        Safety cap on explored nodes; exceeding it returns status
        ``"error"`` with a message rather than silently truncating.
    gap_tol:
        Absolute bound-vs-incumbent gap below which a node is pruned.
    incumbent:
        Optional MIP start — a candidate solution from a related
        solve.  It is *probed, never trusted*: integer values are
        rounded, feasibility is re-checked against this problem's
        constraints, and an infeasible start is silently ignored, so a
        stale incumbent can only tighten the initial pruning bound,
        never corrupt the optimum.
    """
    int_idx = np.flatnonzero(problem.integrality > 0)
    if np.any(~np.isfinite(problem.lb[int_idx])) or np.any(~np.isfinite(problem.ub[int_idx])):
        raise ValueError("branch and bound requires finite bounds on integer variables")

    counter = itertools.count()  # heap tiebreaker
    root = (-np.inf, next(counter), problem.lb.copy(), problem.ub.copy())
    heap = [root]
    incumbent_x: np.ndarray | None = None
    incumbent_obj = np.inf
    start = _validated_start(problem, incumbent)
    if start is not None:
        incumbent_x = start
        incumbent_obj = float(problem.c @ start)
    nodes = 0

    while heap:
        bound, _, lb, ub = heapq.heappop(heap)
        if bound >= incumbent_obj - gap_tol:
            continue  # cannot improve on the incumbent
        nodes += 1
        if nodes > max_nodes:
            return MILPResult(
                "error",
                None,
                None,
                nodes=nodes,
                message=f"node limit {max_nodes} exceeded",
            )
        res = solve_lp(
            problem.c,
            A_ub=problem.A_ub,
            b_ub=problem.b_ub,
            A_eq=problem.A_eq,
            b_eq=problem.b_eq,
            bounds=list(zip(lb, ub)),
        )
        if not res.success:
            continue  # infeasible node (unbounded cannot appear below a bounded root)
        if res.objective >= incumbent_obj - gap_tol:
            continue
        x = res.x
        frac = np.abs(x[int_idx] - np.round(x[int_idx]))
        worst = int(np.argmax(frac)) if len(frac) else 0
        if len(frac) == 0 or frac[worst] <= _INT_TOL:
            # Integral solution: tighten the incumbent.
            rounded = x.copy()
            rounded[int_idx] = np.round(rounded[int_idx])
            incumbent_x = rounded
            incumbent_obj = float(res.objective)
            continue
        j = int(int_idx[worst])
        floor_v = np.floor(x[j])
        # Down child: x_j <= floor.
        lb_d, ub_d = lb.copy(), ub.copy()
        ub_d[j] = floor_v
        if lb_d[j] <= ub_d[j]:
            heapq.heappush(heap, (float(res.objective), next(counter), lb_d, ub_d))
        # Up child: x_j >= ceil.
        lb_u, ub_u = lb.copy(), ub.copy()
        lb_u[j] = floor_v + 1.0
        if lb_u[j] <= ub_u[j]:
            heapq.heappush(heap, (float(res.objective), next(counter), lb_u, ub_u))

    if incumbent_x is None:
        return MILPResult("infeasible", None, None, nodes=nodes)
    return MILPResult("optimal", incumbent_x, incumbent_obj, nodes=nodes)


def _validated_start(
    problem: MILPProblem, incumbent: np.ndarray | None
) -> np.ndarray | None:
    """Round and feasibility-check a MIP start; ``None`` if unusable.

    The tolerance mirrors the node integrality tolerance: a start only
    seeds the pruning bound when it satisfies bounds and constraints to
    ``_INT_TOL`` after rounding its integer coordinates, which keeps the
    exactness guarantee — an accepted start is a genuinely feasible
    point, so pruning against its objective never cuts the optimum.
    """
    if incumbent is None:
        return None
    x = np.asarray(incumbent, dtype=np.float64)
    if x.shape != (problem.num_variables,) or not np.all(np.isfinite(x)):
        return None
    x = x.copy()
    int_idx = np.flatnonzero(problem.integrality > 0)
    x[int_idx] = np.round(x[int_idx])
    if np.any(x < problem.lb - _INT_TOL) or np.any(x > problem.ub + _INT_TOL):
        return None
    x = np.clip(x, problem.lb, problem.ub)
    if problem.A_ub is not None and np.any(
        problem.A_ub @ x > problem.b_ub + _INT_TOL
    ):
        return None
    if problem.A_eq is not None and np.any(
        np.abs(problem.A_eq @ x - problem.b_eq) > _INT_TOL
    ):
        return None
    return x
