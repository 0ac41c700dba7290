"""A dynamic-programming alternative to the CUBIS per-step MILP.

After Proposition 3 eliminates ``beta``, the feasibility objective of
each binary-search step collapses to a *separable* sum:

.. math::

    G(x, \\beta^*(x, c); c)
      = \\sum_i \\left[ f_i^1(x_i) - \\max(0, f_i^1(x_i) - f_i^2(x_i)) \\right]
      = \\sum_i \\min\\left( f_i^1(x_i), f_i^2(x_i) \\right)

The paper linearises each ``f`` and pays for the non-concavity of the
min with big-M binaries (the MILP 33-40).  An alternative, implemented
here, restricts each ``x_i`` to the grid ``{0, 1/K, ..., 1}`` and
maximises the sum *exactly on the grid* by a multiple-choice-knapsack
dynamic program over the resource budget in units of ``1/K``:

.. math::

    best[j][b] = \\max_{0 \\le a \\le \\min(K, b)}
                 best[j-1][b-a] + \\phi_j(a / K)

This needs no MILP solver, evaluates the *true* ``min(f^1, f^2)`` at the
grid points (no piecewise interpolation error there), and costs
``O(T K B)`` with ``B = floor(R K)`` budget units.

Most binary-search steps never reach this kernel: with ``memoise=True``
``solve_cubis`` first screens each step with
:func:`~repro.core.hull.screen_grid`, the knapsack's Lagrangian
relaxation over each target's upper concave hull on the grid (Sinha and
Zoltners, 1979).  Its ``min B`` bounds the kernel's value from above and
its greedy witness, summed in the kernel's addition order, from below,
so the screen's verdicts are the kernel's bit for bit.  The kernel runs
only for steps the screen leaves open, and once more after the search at
the last feasible candidate, for the strategy.

Trade-off (measured in the test suite): the DP's approximation is also
``O(1/K)``, but with a much larger constant than the MILP's.  The robust
optimum typically sits at a *kink* of the worst-case value function —
where the adversary's optimal vertex pattern switches — and that kink
generally falls between grid points.  The MILP's continuous ``x_{i,k}``
variables can land on it exactly (only the *function values* are
approximated); the DP's allocations cannot (the *argument* is snapped to
the grid).  On the Table I game the DP at ``K = 25`` loses ~0.25 utility
where the MILP loses ~0.01 — a concrete demonstration of why the paper
reaches for the MILP formulation rather than naive discretisation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "GridAllocation",
    "grid_budget_units",
    "maximize_separable_on_grid",
    "maximize_separable_on_grid_batch",
]


@dataclass(frozen=True)
class GridAllocation:
    """Result of a grid-restricted separable maximisation.

    ``units`` holds each target's allocation in ``1/K`` units; ``value``
    is the achieved objective ``sum_i phi_i(units_i / K)``.
    """

    value: float
    units: np.ndarray

    def coverage(self, num_segments: int) -> np.ndarray:
        """The coverage vector ``x = units / K``."""
        return self.units / float(num_segments)


def grid_budget_units(num_resources: float, num_segments: int) -> int:
    """The budget ``floor(R K)`` in ``1/K`` units (``1e-9`` absorbs the
    float error of ``R K`` for integral products)."""
    return int(np.floor(num_resources * num_segments + 1e-9))


def maximize_separable_on_grid(phi_grid, budget_units: int) -> GridAllocation:
    """Maximise ``sum_i phi_i(a_i / K)`` s.t. ``sum_i a_i <= budget_units``.

    Parameters
    ----------
    phi_grid:
        Array of shape ``(T, K + 1)``: ``phi_i`` evaluated at the grid
        points ``0, 1/K, ..., 1`` (column ``a`` is the value of allocating
        ``a`` units to target ``i``).
    budget_units:
        Total number of ``1/K`` units available (``floor(R * K)``).

    Returns
    -------
    GridAllocation
        Optimal grid allocation and its value.
    """
    phi = np.asarray(phi_grid, dtype=np.float64)
    if phi.ndim != 2 or phi.shape[1] < 2:
        raise ValueError(f"phi_grid must have shape (T, K+1) with K >= 1, got {phi.shape}")
    num_targets, cols = phi.shape
    k = cols - 1
    if budget_units < 0:
        raise ValueError(f"budget_units must be >= 0, got {budget_units}")
    budget = int(min(budget_units, num_targets * k))

    neg_inf = -np.inf
    # best[b] after processing j targets; choice[j, b] = units given to j.
    best = np.full(budget + 1, neg_inf)
    best[0] = 0.0
    # Allowing slack (<= budget) is handled at the end by taking the max
    # over all budget levels; intermediate states track exact usage.
    choice = np.zeros((num_targets, budget + 1), dtype=np.int64)

    # The per-target transition is a max-plus correlation of `best` with
    # the target's value column: score[b, a] = best[b - a] + phi[j, a].
    # Padding `best` with A-1 leading -inf entries makes every shifted
    # read in-bounds, and a sliding window over the padded vector gives
    # windows[b, i] = best[b + i - (A - 1)], i.e. column a corresponds to
    # window position A-1-a — hence the [::-1] below.  argmax's
    # first-occurrence rule awards ties to the smallest `a`, matching the
    # strict `cand > new_best` update of the reference loop.
    num_moves = min(k, budget) + 1
    padded = np.empty(budget + num_moves)
    padded[: num_moves - 1] = neg_inf
    for j in range(num_targets):
        padded[num_moves - 1 :] = best
        windows = np.lib.stride_tricks.sliding_window_view(padded, num_moves)
        scores = windows[:, ::-1] + phi[j, :num_moves]
        new_choice = np.argmax(scores, axis=1)
        best = scores[np.arange(budget + 1), new_choice]
        choice[j] = new_choice

    b_star = int(np.argmax(best))
    value = float(best[b_star])
    units = np.zeros(num_targets, dtype=np.int64)
    b = b_star
    for j in range(num_targets - 1, -1, -1):
        units[j] = choice[j, b]
        b -= units[j]
    assert b == 0, "DP backtrack failed to consume the chosen budget"
    return GridAllocation(value=value, units=units)


def maximize_separable_on_grid_batch(
    phi_batch, budget_units: int
) -> list[GridAllocation]:
    """:func:`maximize_separable_on_grid` over a stack of same-shape games.

    ``phi_batch`` has shape ``(G, T, K + 1)``; ``result[g]`` is
    ``maximize_separable_on_grid(phi_batch[g], budget_units)``.  Nothing
    in the package calls this any more: it is kept only because the
    repository benchmark's frozen probes still resolve it.
    """
    phi = np.asarray(phi_batch, dtype=np.float64)
    if phi.ndim != 3 or phi.shape[2] < 2:
        raise ValueError(
            f"phi_batch must have shape (G, T, K+1) with K >= 1, got {phi.shape}"
        )
    return [maximize_separable_on_grid(p, budget_units) for p in phi]


def _maximize_separable_on_grid_loop(phi_grid, budget_units: int) -> GridAllocation:
    """Reference implementation of the DP transition as an explicit loop
    over per-target allocations.

    Kept (unexported) as the ground truth for the vectorised transition in
    :func:`maximize_separable_on_grid`: the test suite asserts bit-identical
    tables (``np.array_equal`` on values and backtracked units) across
    random instances, including the tie-break rule that ties go to the
    smallest allocation.
    """
    phi = np.asarray(phi_grid, dtype=np.float64)
    if phi.ndim != 2 or phi.shape[1] < 2:
        raise ValueError(f"phi_grid must have shape (T, K+1) with K >= 1, got {phi.shape}")
    num_targets, cols = phi.shape
    k = cols - 1
    if budget_units < 0:
        raise ValueError(f"budget_units must be >= 0, got {budget_units}")
    budget = int(min(budget_units, num_targets * k))

    neg_inf = -np.inf
    best = np.full(budget + 1, neg_inf)
    best[0] = 0.0
    choice = np.zeros((num_targets, budget + 1), dtype=np.int64)

    for j in range(num_targets):
        new_best = np.full(budget + 1, neg_inf)
        new_choice = np.zeros(budget + 1, dtype=np.int64)
        for a in range(min(k, budget) + 1):
            # Giving 'a' units to target j: shift previous states up by a.
            cand = np.full(budget + 1, neg_inf)
            if a == 0:
                cand = best + phi[j, 0]
            else:
                cand[a:] = best[:-a] + phi[j, a]
            better = cand > new_best
            new_best = np.where(better, cand, new_best)
            new_choice = np.where(better, a, new_choice)
        best = new_best
        choice[j] = new_choice

    b_star = int(np.argmax(best))
    value = float(best[b_star])
    units = np.zeros(num_targets, dtype=np.int64)
    b = b_star
    for j in range(num_targets - 1, -1, -1):
        units[j] = choice[j, b]
        b -= units[j]
    assert b == 0, "DP backtrack failed to consume the chosen budget"
    return GridAllocation(value=value, units=units)
