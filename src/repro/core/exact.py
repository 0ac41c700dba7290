"""Direct non-convex solve of the single maximisation (15-17).

The paper notes that (15-17) "can be solved by any non-convex solver,
e.g., Fmincon of MATLAB, with multiple starting points — however, using
such a solver is time-consuming".  This module implements exactly that
comparator (SLSQP multi-start; DESIGN.md's fmincon substitution):

.. math::

    \\max_{x \\in X, \\beta \\ge 0} H(x, \\beta)
    \\quad \\text{s.t.} \\quad U_i^d(x_i) + \\beta_i \\ge H(x, \\beta)

It is used by the runtime benchmark (F2) as the slow baseline and by the
test suite as an independent check on CUBIS's solution quality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.behavior.interval import UncertaintyModel
from repro.core.dual import h_value
from repro.core.worst_case import evaluate_worst_case
from repro.game.ssg import IntervalSecurityGame
from repro.solvers.nonconvex import maximize_multistart
from repro.utils.rng import as_generator
from repro.utils.timing import Timer

__all__ = ["ExactResult", "solve_exact"]


@dataclass(frozen=True)
class ExactResult:
    """Outcome of the multi-start non-convex solve.

    ``strategy`` / ``worst_case_value`` mirror
    :class:`~repro.core.cubis.CubisResult`; ``h_at_solution`` is the raw
    objective value of the start that produced ``strategy`` (NaN when
    that start did not converge or the uniform fallback won),
    ``num_converged`` the number of successful local solves.
    """

    strategy: np.ndarray
    worst_case_value: float
    h_at_solution: float
    num_converged: int
    num_starts: int
    solve_seconds: float


def solve_exact(
    game: IntervalSecurityGame,
    uncertainty: UncertaintyModel,
    *,
    num_starts: int = 20,
    seed=None,
    max_iterations: int = 300,
) -> ExactResult:
    """Solve (15-17) by SLSQP multi-start over ``z = (x, beta)``.

    Parameters
    ----------
    game, uncertainty:
        Same contract as :func:`repro.core.cubis.solve_cubis`.
    num_starts:
        Number of random starting points (random strategies paired with
        the Proposition-3 ``beta`` at a random utility level).
    seed:
        Seeds the starting points only; the solve itself is deterministic.
    """
    if uncertainty.num_targets != game.num_targets:
        raise ValueError(
            f"uncertainty model covers {uncertainty.num_targets} targets but the "
            f"game has {game.num_targets}"
        )
    rng = as_generator(seed)
    t = game.num_targets
    space = game.strategy_space
    u_lo, u_hi = game.utility_range()

    def split(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return z[:t], z[t:]

    def objective(z: np.ndarray) -> float:
        x, beta = split(z)
        return h_value(uncertainty.lower(x), uncertainty.upper(x), game.defender_utilities(x), beta)

    def constraint_fun(z: np.ndarray) -> np.ndarray:
        x, beta = split(z)
        h = objective(z)
        return game.defender_utilities(x) + beta - h

    from scipy.optimize import LinearConstraint, NonlinearConstraint

    constraints = [
        NonlinearConstraint(constraint_fun, 0.0, np.inf),
        LinearConstraint(
            np.concatenate([np.ones(t), np.zeros(t)])[None, :],
            game.num_resources,
            game.num_resources,
        ),
    ]
    beta_cap = max(1.0, u_hi - u_lo) * 4.0
    bounds = [(0.0, 1.0)] * t + [(0.0, beta_cap)] * t

    starts = np.empty((num_starts, 2 * t))
    for s in range(num_starts):
        x0 = space.random(rng) if s % 2 == 0 else space.uniform()
        c0 = rng.uniform(u_lo, u_hi)
        beta0 = np.maximum(0.0, c0 - game.defender_utilities(x0))
        starts[s, :t] = x0
        starts[s, t:] = np.minimum(beta0, beta_cap)

    timer = Timer()
    with timer:
        result = maximize_multistart(
            objective,
            starts,
            constraints=constraints,
            bounds=bounds,
            max_iterations=max_iterations,
            feasibility_check=lambda z: np.all(constraint_fun(z) >= -1e-6),
        )
        # Score every start's projected final point by its exact worst
        # case, with the uniform strategy as one more candidate.  A
        # projected point is feasible whatever SLSQP's status, and the
        # raw H of a "converged" start can be far off the exact value, so
        # the exact value is the only sound ranking.
        candidates = [
            (space.project(split(point)[0]), h)
            for point, h in zip(result.points, result.objectives)
            if np.all(np.isfinite(point))
        ]
        candidates.append((space.uniform(), float("nan")))
        worst, x_best, h_best = None, None, float("nan")
        for x, h in candidates:
            evaluated = evaluate_worst_case(game, uncertainty, x)
            if worst is None or evaluated.value > worst.value:
                worst, x_best, h_best = evaluated, x, float(h)

    return ExactResult(
        strategy=x_best,
        worst_case_value=worst.value,
        h_at_solution=h_best,
        num_converged=result.num_converged,
        num_starts=num_starts,
        solve_seconds=timer.elapsed,
    )
