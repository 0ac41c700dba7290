"""The inner worst-case problem: nature picks ``F`` inside the intervals.

Given a defender strategy ``x``, the adversarial choice of attractiveness
values is the inner minimisation of the paper's Eq. (5):

.. math::

    \\min_{F_i \\in [L_i(x_i), U_i(x_i)]}
        \\sum_i \\frac{F_i}{\\sum_j F_j} U_i^d(x_i)

which the paper rewrites as the LP (6-8) in the attack probabilities
``y_i = q_i`` and the normaliser ``z = 1 / sum_j F_j``.

Three solution methods are implemented and cross-tested:

* :func:`worst_case_response` — an exact ``O(T log T)`` vertex-enumeration
  algorithm (production path, no LP solves).  The LP's optimal basic
  solutions put each ``F_i`` at an interval endpoint: sorting targets by
  defender utility, the worst case sets ``F = U`` on the ``m`` most
  harmful targets and ``F = L`` elsewhere for some split ``m``; scanning
  all ``T + 1`` splits with cumulative sums finds the global minimum.
* :func:`worst_case_lp` — the paper's LP (6-8) via HiGHS.
* :func:`worst_case_dual_root` — scalar root-finding on the dual identity
  ``G(x, beta^*(c), c) = 0`` (Propositions 2-3), which pins the worst-case
  value as the unique zero of a strictly decreasing function of ``c``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.solvers.lp import solve_lp

__all__ = [
    "WorstCaseSolution",
    "worst_case_response",
    "worst_case_lp",
    "worst_case_dual_root",
    "evaluate_worst_case",
]


@dataclass(frozen=True)
class WorstCaseSolution:
    """The adversarial realisation of the uncertainty at a fixed strategy.

    Attributes
    ----------
    value:
        The defender's worst-case expected utility.
    attack_distribution:
        The minimising attack probabilities ``y`` (sums to 1).
    attractiveness:
        The minimising ``F`` vector (each entry at ``L_i`` or ``U_i``).
    """

    value: float
    attack_distribution: np.ndarray
    attractiveness: np.ndarray


def _validated(ud, lower, upper) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    ud = np.asarray(ud, dtype=np.float64)
    lo = np.asarray(lower, dtype=np.float64)
    hi = np.asarray(upper, dtype=np.float64)
    if not (ud.shape == lo.shape == hi.shape) or ud.ndim != 1:
        raise ValueError(
            f"ud, lower, upper must be 1-D with one shape, got {ud.shape}, {lo.shape}, {hi.shape}"
        )
    if np.any(lo <= 0):
        raise ValueError("interval lower bounds must be strictly positive")
    if np.any(lo > hi * (1 + 1e-12)):
        raise ValueError("interval bounds must satisfy lower <= upper")
    return ud, lo, hi


def worst_case_response(ud, lower, upper) -> WorstCaseSolution:
    """Exact worst case by vertex enumeration (``O(T log T)``).

    Parameters
    ----------
    ud:
        Per-target defender utilities ``U_i^d(x_i)`` at the strategy under
        evaluation.
    lower, upper:
        The interval bounds ``L_i(x_i)``, ``U_i(x_i)`` at that strategy.
    """
    ud, lo, hi = _validated(ud, lower, upper)
    order = np.argsort(ud, kind="stable")
    u_s, lo_s, hi_s = ud[order], lo[order], hi[order]

    # Prefix sums with a leading zero so index m = "first m targets at U".
    hi_u = np.concatenate(([0.0], np.cumsum(hi_s * u_s)))
    hi_w = np.concatenate(([0.0], np.cumsum(hi_s)))
    lo_u = np.concatenate(([0.0], np.cumsum(lo_s * u_s)))
    lo_w = np.concatenate(([0.0], np.cumsum(lo_s)))
    total_lo_u, total_lo_w = lo_u[-1], lo_w[-1]

    numerators = hi_u + (total_lo_u - lo_u)
    denominators = hi_w + (total_lo_w - lo_w)
    values = numerators / denominators
    m = int(np.argmin(values))

    f_sorted = np.where(np.arange(len(ud)) < m, hi_s, lo_s)
    f = np.empty_like(f_sorted)
    f[order] = f_sorted
    y = f / f.sum()
    return WorstCaseSolution(float(values[m]), y, f)


def worst_case_lp(ud, lower, upper) -> WorstCaseSolution:
    """The paper's LP (6-8): ``min y @ ud`` s.t. ``sum y = 1``,
    ``L_i z <= y_i <= U_i z``.  Variables are ``(y_1..y_T, z)``."""
    ud, lo, hi = _validated(ud, lower, upper)
    n = len(ud)
    c = np.concatenate([ud, [0.0]])
    # y_i - U_i z <= 0  and  -y_i + L_i z <= 0.
    A_ub = np.zeros((2 * n, n + 1))
    A_ub[:n, :n] = np.eye(n)
    A_ub[:n, n] = -hi
    A_ub[n:, :n] = -np.eye(n)
    A_ub[n:, n] = lo
    b_ub = np.zeros(2 * n)
    A_eq = np.zeros((1, n + 1))
    A_eq[0, :n] = 1.0
    result = solve_lp(
        c,
        A_ub=A_ub,
        b_ub=b_ub,
        A_eq=A_eq,
        b_eq=np.array([1.0]),
        bounds=[(0.0, 1.0)] * n + [(0.0, None)],
    )
    if not result.success:
        raise RuntimeError(f"worst-case LP failed: {result.message}")
    y = result.x[:n]
    z = result.x[n]
    f = y / z if z > 0 else np.full(n, np.nan)
    return WorstCaseSolution(float(result.objective), y, f)


def worst_case_dual_root(ud, lower, upper, *, xtol: float = 1e-12) -> float:
    """The worst-case value as the unique root of
    ``g(c) = sum_i L_i (u_i - c) - sum_i (U_i - L_i) max(0, c - u_i)``.

    ``g`` is continuous, strictly decreasing (slope at most ``-sum L``),
    positive at ``c = min u`` and non-positive at ``c = max u``, so Brent's
    method on ``[min u, max u]`` converges to machine precision.  This is
    the scalar specialisation of the paper's dual construction
    (Propositions 2-3 with ``x`` fixed).
    """
    from scipy.optimize import brentq

    ud, lo, hi = _validated(ud, lower, upper)

    def g(c: float) -> float:
        beta = np.maximum(0.0, c - ud)
        return float(lo @ (ud - c) - (hi - lo) @ beta)

    c_lo, c_hi = float(ud.min()), float(ud.max())
    if c_hi - c_lo < 1e-15:
        return c_lo  # all targets equally good: value is that utility
    return float(brentq(g, c_lo, c_hi, xtol=xtol))


def evaluate_worst_case(game, uncertainty, x, *, execution_alpha: float = 0.0) -> WorstCaseSolution:
    """Worst-case evaluation of strategy ``x`` in an interval game.

    Convenience wrapper: computes ``U^d(x)`` from the game and the interval
    bounds from the uncertainty model, then calls
    :func:`worst_case_response`.

    With ``execution_alpha > 0`` the evaluation is at the worst-case
    *realised* coverage ``max(x - alpha, 0)`` (see
    :mod:`repro.behavior.noise`): patrols may fall short of the plan by up
    to ``alpha`` per target, and the adversary gets the shortfall.
    """
    x = np.asarray(x, dtype=np.float64)
    if execution_alpha < 0:
        raise ValueError(f"execution_alpha must be >= 0, got {execution_alpha}")
    if execution_alpha > 0:
        x = np.maximum(x - execution_alpha, 0.0)
    ud = game.defender_utilities(x)
    return worst_case_response(ud, uncertainty.lower(x), uncertainty.upper(x))
