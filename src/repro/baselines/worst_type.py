"""The worst-type robust baseline (Brown et al. GameSec'14, reference [3]).

The paper's "second method" of prior work: assume a *finite* set of
attacker types, each with a perfectly-known behavioral model, and maximise
the defender's utility against the worst type:

.. math::

    \\max_{x \\in X} \\; \\min_m \\; \\sum_i q_i^{(m)}(x) \\, U_i^d(x_i)

Solved here as the paper's predecessors did conceptually — a smooth
max-min over a finite type set — via the epigraph form
``max t  s.t.  util_m(x) >= t`` with SLSQP multi-start.  Its two documented
weaknesses motivate CUBIS: it needs each type pinned down exactly, and it
only hedges against the sampled types (interval uncertainty between
samples is invisible to it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.behavior.base import DiscreteChoiceModel
from repro.solvers.nonconvex import maximize_multistart
from repro.utils.rng import as_generator
from repro.utils.timing import Timer

__all__ = ["WorstTypeResult", "solve_worst_type"]


@dataclass(frozen=True)
class WorstTypeResult:
    """Outcome of the worst-type robust solve.

    ``type_value`` is the guaranteed utility over the *sampled* types; a
    worst-case evaluation over the full interval set (via
    :func:`repro.core.worst_case.evaluate_worst_case`) is typically lower
    — that gap is the cost of discretising the uncertainty.
    """

    strategy: np.ndarray
    type_value: float
    per_type_values: np.ndarray
    solve_seconds: float


def solve_worst_type(
    game,
    types: Sequence[DiscreteChoiceModel],
    *,
    num_starts: int = 10,
    seed=None,
    max_iterations: int = 300,
) -> WorstTypeResult:
    """Maximise the minimum expected utility over a finite type set.

    Parameters
    ----------
    game:
        Any game exposing ``defender_utilities``, ``strategy_space``,
        ``num_resources`` and ``utility_range``.
    types:
        Attacker models (see :mod:`repro.behavior.sampling` for samplers).
    num_starts, seed, max_iterations:
        Multi-start controls, as in :func:`repro.core.exact.solve_exact`.
    """
    types = list(types)
    if not types:
        raise ValueError("worst-type baseline needs at least one attacker type")
    t_count = game.num_targets
    for m, model in enumerate(types):
        if model.num_targets != t_count:
            raise ValueError(f"type {m} covers {model.num_targets} targets, game has {t_count}")
    rng = as_generator(seed)
    space = game.strategy_space
    u_lo, u_hi = game.utility_range()

    def per_type(x: np.ndarray) -> np.ndarray:
        ud = game.defender_utilities(x)
        return np.array([m.expected_defender_utility(ud, x) for m in types])

    # Variables z = (x_1..x_T, t); maximise t.
    def objective(z: np.ndarray) -> float:
        return float(z[-1])

    def constraint_fun(z: np.ndarray) -> np.ndarray:
        return per_type(z[:-1]) - z[-1]

    from scipy.optimize import LinearConstraint, NonlinearConstraint

    constraints = [
        NonlinearConstraint(constraint_fun, 0.0, np.inf),
        LinearConstraint(
            np.concatenate([np.ones(t_count), [0.0]])[None, :],
            game.num_resources,
            game.num_resources,
        ),
    ]
    bounds = [(0.0, 1.0)] * t_count + [(u_lo, u_hi)]

    starts = np.empty((num_starts, t_count + 1))
    for s in range(num_starts):
        x0 = space.uniform() if s == 0 else space.random(rng)
        starts[s, :t_count] = x0
        starts[s, -1] = per_type(x0).min()

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
        if result.success:
            strategy = space.project(result.x[:t_count])
        else:
            strategy = space.uniform()
        values = per_type(strategy)
    return WorstTypeResult(
        strategy=strategy,
        type_value=float(values.min()),
        per_type_values=values,
        solve_seconds=timer.elapsed,
    )
