"""The Bayesian baseline: maximise *expected* utility over a type prior.

The paper's related-work section identifies three stances toward
behavioral uncertainty: Bayesian (Yang et al. AAMAS'14, reference [20] —
assume a known distribution over attacker types), worst-type robust
(Brown et al., reference [3]), and the paper's interval robustness.  This
module implements the first:

.. math::

    \\max_{x \\in X} \\; \\sum_m p_m \\sum_i q_i^{(m)}(x) \\, U_i^d(x_i)

for a finite type set with prior ``p``.  The objective is a smooth (but
non-concave) mixture of QR responses, solved by SLSQP multi-start.

Its documented weakness — the one the paper's introduction leans on — is
that the prior itself needs data the defender does not have; with a
misspecified prior the expected-utility optimum can be badly exposed in
the worst case, which the F1/F3 comparisons quantify.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.behavior.base import DiscreteChoiceModel
from repro.solvers.nonconvex import maximize_multistart
from repro.utils.rng import as_generator
from repro.utils.timing import Timer
from repro.utils.validation import check_probability_vector

__all__ = ["BayesianResult", "solve_bayesian"]


@dataclass(frozen=True)
class BayesianResult:
    """Outcome of the Bayesian expected-utility solve.

    ``expected_value`` is the prior-weighted utility the defender expects;
    ``per_type_values`` the utility against each type individually.
    """

    strategy: np.ndarray
    expected_value: float
    per_type_values: np.ndarray
    prior: np.ndarray
    solve_seconds: float


def solve_bayesian(
    game,
    types: Sequence[DiscreteChoiceModel],
    prior=None,
    *,
    num_starts: int = 10,
    seed=None,
    max_iterations: int = 300,
) -> BayesianResult:
    """Maximise the prior-weighted expected defender utility.

    Parameters
    ----------
    game:
        Any game exposing ``defender_utilities``, ``strategy_space`` and
        ``num_resources``.
    types:
        Attacker models.
    prior:
        Type probabilities (defaults to uniform).
    num_starts, seed, max_iterations:
        Multi-start controls.
    """
    types = list(types)
    if not types:
        raise ValueError("the Bayesian baseline needs at least one attacker type")
    t_count = game.num_targets
    for m, model in enumerate(types):
        if model.num_targets != t_count:
            raise ValueError(f"type {m} covers {model.num_targets} targets, game has {t_count}")
    if prior is None:
        prior = np.full(len(types), 1.0 / len(types))
    else:
        prior = check_probability_vector(prior, "prior")
        if len(prior) != len(types):
            raise ValueError("prior must have one probability per type")

    def per_type(x: np.ndarray) -> np.ndarray:
        ud = game.defender_utilities(x)
        return np.array([m.expected_defender_utility(ud, x) for m in types])

    def objective(x: np.ndarray) -> float:
        return float(prior @ per_type(x))

    from scipy.optimize import LinearConstraint

    constraints = [
        LinearConstraint(
            np.ones((1, t_count)), game.num_resources, game.num_resources
        )
    ]
    bounds = [(0.0, 1.0)] * t_count

    rng = as_generator(seed)
    space = game.strategy_space
    starts = np.stack(
        [space.uniform()] + [space.random(rng) for _ in range(num_starts - 1)]
    )

    timer = Timer()
    with timer:
        result = maximize_multistart(
            objective,
            starts,
            constraints=constraints,
            bounds=bounds,
            max_iterations=max_iterations,
        )
        strategy = space.project(result.x) if result.success else space.uniform()
        values = per_type(strategy)

    return BayesianResult(
        strategy=strategy,
        expected_value=float(prior @ values),
        per_type_values=values,
        prior=prior,
        solve_seconds=timer.elapsed,
    )
