"""Multi-start local solver for smooth non-convex programs.

This is the package's substitute for the paper's "Fmincon of MATLAB ...
with multiple starting points" comparator (Section IV-A): SLSQP local
solves launched from many feasible starting points, keeping the best local
optimum.  It plays the same role as in the paper — a slow but
reformulation-free way to attack the single maximisation problem (15-17) —
and exhibits the same failure modes (local optima, superlinear time in
problem size).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.rng import as_generator

__all__ = ["MultiStartResult", "maximize_multistart"]


@dataclass(frozen=True)
class MultiStartResult:
    """Best local optimum over all starts.

    ``x`` / ``objective`` describe the best feasible local solution found;
    ``num_converged`` counts starts whose local solve succeeded;
    ``objectives`` holds every start's final value (NaN for failures) so
    callers can inspect the local-optimum spread; ``points`` holds every
    start's final iterate ``(S, n)``, whatever SLSQP reported, for callers
    that can score a point independently of the solver's status.
    """

    x: np.ndarray | None
    objective: float
    num_converged: int
    objectives: np.ndarray
    points: np.ndarray

    @property
    def success(self) -> bool:
        """Whether at least one start converged to a feasible point."""
        return self.x is not None


def maximize_multistart(
    objective,
    starts,
    *,
    constraints=(),
    bounds=None,
    jac=None,
    max_iterations: int = 200,
    feasibility_check=None,
) -> MultiStartResult:
    """Maximise ``objective`` with SLSQP from each row of ``starts``.

    Parameters
    ----------
    objective:
        Callable ``f(z) -> float`` to maximise.
    starts:
        Array of shape ``(S, n)`` of starting points.
    constraints:
        Scipy constraint objects (``NonlinearConstraint`` /
        ``LinearConstraint`` / dict form) — passed through to SLSQP.
    bounds:
        Scipy-style variable bounds.
    jac:
        Optional gradient of ``objective``.
    feasibility_check:
        Optional predicate on the local solution; solutions failing it are
        discarded (guards against SLSQP returning slightly-infeasible
        points).
    """
    from scipy.optimize import minimize

    starts = np.asarray(starts, dtype=np.float64)
    if starts.ndim != 2:
        raise ValueError(f"starts must be 2-D (S, n), got shape {starts.shape}")

    neg = (lambda z: -objective(z))
    neg_jac = (lambda z: -np.asarray(jac(z))) if jac is not None else None

    best_x = None
    best_val = -np.inf
    converged = 0
    values = np.full(len(starts), np.nan)
    points = np.empty_like(starts)
    for s, x0 in enumerate(starts):
        res = minimize(
            neg,
            x0,
            jac=neg_jac,
            method="SLSQP",
            bounds=bounds,
            constraints=constraints,
            options={"maxiter": max_iterations, "ftol": 1e-9},
        )
        points[s] = res.x
        if not res.success:
            continue
        if feasibility_check is not None and not feasibility_check(res.x):
            continue
        converged += 1
        val = -float(res.fun)
        values[s] = val
        if val > best_val:
            best_val = val
            best_x = np.asarray(res.x)
    return MultiStartResult(best_x, best_val, converged, values, points)
