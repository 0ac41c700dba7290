"""Minimax-regret planning over sampled attacker types.

An alternative robustness notion from the robust-games literature
(Aghassi & Bertsimas '06, the paper's reference [1] lineage): instead of
maximising the worst-case *utility*, minimise the worst-case *regret* —
how much utility the defender forgoes relative to the clairvoyant plan
for each attacker type:

.. math::

    \\min_{x \\in X} \\max_m \\left[ OPT_m - U_m(x) \\right]

where ``OPT_m`` is the optimal defender utility if type ``m`` were known
(computed with PASAQ) and ``U_m(x)`` the utility of ``x`` against type
``m``.  Compared to the worst-type utility baseline, minimax regret is
less conservative on asymmetric type sets: it refuses to sacrifice much
against *any* type, rather than obsessing over the single gloomiest one.

Like the worst-type baseline this discretises the uncertainty set — the
same limitation the paper's interval formulation removes — so it slots
into the F1 comparison as another prior-art point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.baselines.pasaq import solve_pasaq
from repro.behavior.base import DiscreteChoiceModel
from repro.game.ssg import SecurityGame
from repro.solvers.nonconvex import maximize_multistart
from repro.utils.rng import as_generator
from repro.utils.timing import Timer

__all__ = ["RegretResult", "solve_minimax_regret"]


@dataclass(frozen=True)
class RegretResult:
    """Outcome of the sampled minimax-regret solve.

    ``max_regret`` is the guaranteed bound over the sampled types;
    ``per_type_regret`` the achieved regret against each;
    ``type_optima`` the clairvoyant ``OPT_m`` values.
    """

    strategy: np.ndarray
    max_regret: float
    per_type_regret: np.ndarray
    type_optima: np.ndarray
    solve_seconds: float


def solve_minimax_regret(
    game,
    types: Sequence[DiscreteChoiceModel],
    *,
    num_segments: int = 10,
    epsilon: float = 1e-3,
    num_starts: int = 10,
    seed=None,
    max_iterations: int = 300,
) -> RegretResult:
    """Minimise the maximum regret over a finite attacker type set.

    Parameters
    ----------
    game:
        Any game exposing ``defender_utilities``, ``strategy_space``,
        ``num_resources``, ``utility_range`` and (for the clairvoyant
        solves) defender payoffs.
    types:
        Attacker models; each must be bound to payoffs compatible with
        the game's defender side.
    num_segments, epsilon:
        PASAQ accuracy for the per-type clairvoyant optima.
    num_starts, seed, max_iterations:
        Multi-start controls for the outer min-max solve.
    """
    types = list(types)
    if not types:
        raise ValueError("minimax regret needs at least one attacker type")
    t_count = game.num_targets
    for m, model in enumerate(types):
        if model.num_targets != t_count:
            raise ValueError(f"type {m} covers {model.num_targets} targets, game has {t_count}")

    from scipy.optimize import LinearConstraint, NonlinearConstraint

    timer = Timer()
    with timer:
        # Clairvoyant optimum per type.  PASAQ needs a point game carrying
        # the defender payoffs; each type's own payoffs supply the carrier.
        optima = np.empty(len(types))
        for m, model in enumerate(types):
            point_game = SecurityGame(model.payoffs, game.num_resources)
            optima[m] = solve_pasaq(
                point_game, model, num_segments=num_segments, epsilon=epsilon
            ).value

        def per_type_utility(x: np.ndarray) -> np.ndarray:
            ud = game.defender_utilities(x)
            return np.array([m.expected_defender_utility(ud, x) for m in types])

        # Variables z = (x, t): maximise t s.t. U_m(x) - OPT_m >= t  —
        # i.e. t = -max regret; maximising t minimises the regret.
        def objective(z: np.ndarray) -> float:
            return float(z[-1])

        def constraint_fun(z: np.ndarray) -> np.ndarray:
            return per_type_utility(z[:-1]) - optima - z[-1]

        constraints = [
            NonlinearConstraint(constraint_fun, 0.0, np.inf),
            LinearConstraint(
                np.concatenate([np.ones(t_count), [0.0]])[None, :],
                game.num_resources,
                game.num_resources,
            ),
        ]
        u_lo, u_hi = game.utility_range()
        span = u_hi - u_lo
        bounds = [(0.0, 1.0)] * t_count + [(-2.0 * span, 0.0)]

        rng = as_generator(seed)
        space = game.strategy_space
        starts = np.empty((num_starts, t_count + 1))
        for s in range(num_starts):
            x0 = space.uniform() if s == 0 else space.random(rng)
            starts[s, :t_count] = x0
            starts[s, -1] = (per_type_utility(x0) - optima).min()

        result = maximize_multistart(
            objective,
            starts,
            constraints=constraints,
            bounds=bounds,
            max_iterations=max_iterations,
            feasibility_check=lambda z: np.all(constraint_fun(z) >= -1e-6),
        )
        strategy = (
            space.project(result.x[:t_count]) if result.success else space.uniform()
        )
        regrets = optima - per_type_utility(strategy)

    return RegretResult(
        strategy=strategy,
        max_regret=float(regrets.max()),
        per_type_regret=regrets,
        type_optima=optima,
        solve_seconds=timer.elapsed,
    )
