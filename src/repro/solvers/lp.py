"""Thin linear-programming wrapper over :func:`scipy.optimize.linprog`.

Every LP in the package (inner worst-case problem, payoff-maximin baseline,
multiple-LP rational baseline, branch-and-bound relaxations) goes through
:func:`solve_lp` so status handling and the result shape are uniform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["LPResult", "solve_lp"]


@dataclass(frozen=True)
class LPResult:
    """Outcome of one LP solve.

    ``status`` is scipy's code: 0 success, 2 infeasible, 3 unbounded.
    ``x`` and ``objective`` are ``None`` unless ``status == 0``.
    """

    status: int
    x: np.ndarray | None
    objective: float | None
    message: str

    @property
    def success(self) -> bool:
        """Whether an optimal solution was found."""
        return self.status == 0

    @property
    def infeasible(self) -> bool:
        """Whether the LP was proven infeasible."""
        return self.status == 2

    @property
    def unbounded(self) -> bool:
        """Whether the LP was proven unbounded."""
        return self.status == 3


def solve_lp(
    c,
    *,
    A_ub=None,
    b_ub=None,
    A_eq=None,
    b_eq=None,
    bounds=None,
    maximize: bool = False,
) -> LPResult:
    """Solve ``min c @ x`` (or max) subject to linear constraints.

    Parameters mirror :func:`scipy.optimize.linprog` (HiGHS method);
    ``bounds`` may be a list of ``(lo, hi)`` pairs with ``None`` for
    unbounded ends.  With ``maximize=True`` the objective is negated in and
    back out.
    """
    from scipy.optimize import linprog

    c = np.asarray(c, dtype=np.float64)
    sign = -1.0 if maximize else 1.0
    res = linprog(
        sign * c,
        A_ub=A_ub,
        b_ub=b_ub,
        A_eq=A_eq,
        b_eq=b_eq,
        bounds=bounds,
        method="highs",
    )
    if res.status == 0:
        return LPResult(0, np.asarray(res.x), sign * float(res.fun), res.message)
    return LPResult(res.status, None, None, res.message)
