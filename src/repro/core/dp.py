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

This needs no MILP solver and evaluates the *true* ``min(f^1, f^2)`` at
the grid points (no piecewise interpolation error there).

Cost model, with ``B = floor(R K)`` budget units.  The full table costs
``O(T K B)``: ``T`` transitions over ``B + 1`` states and ``K + 1``
moves.  :func:`maximize_separable_on_grid` fills only the states that
can still reach the optimum: it runs the Lagrangian screen below on its
own table (``O(T K)`` checks and a sort of the hull edges when every
row's rising prefix is certified concave, ``O(T K^2)`` numpy work in
``K`` passes otherwise) and, after each target, keeps only the span of
states whose Lagrangian completion bound reaches the screen's witness.
Target ``j``'s transition then costs ``O((s_j + K) K)`` for a kept span
of ``s_j`` states, plus a fixed numpy overhead of roughly 35
microseconds.  On the ``fleet_dp`` games (T=100, K=40, ``B = 800``) at
most 2 of the 801 states survive each target, and the kernel took
about 4 ms, against 17 ms for the full table, on the machine of
docs/PERFORMANCE.md's "Pruned knapsack kernel" table; its own screen is
now about a sixth of its time (``benchmarks/out/a4_scaling.txt``).  The output is the full table's
bit for bit; :func:`_maximize_separable_on_grid_loop` fills the full
table and stays the reference.

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

from repro.core.hull import screen_grid

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
        ``a`` units to target ``i``).  Every entry must be finite.
    budget_units:
        Total number of ``1/K`` units available (``floor(R * K)``).

    Returns
    -------
    GridAllocation
        Optimal grid allocation and its value, bit-identical (value,
        units and tie-breaks) to the full table of
        :func:`_maximize_separable_on_grid_loop`.

    Notes
    -----
    The kernel fills only the budget states that can still reach the
    optimum.  :func:`~repro.core.hull.screen_grid` on the same table
    (budget ``B`` clipped to ``T K``) gives a multiplier ``lam >= 0``
    and a witness whose sum ``w``, added in the kernel's order, the
    kernel's optimum ``V`` reaches bit for bit.  With ``r_i = max_a
    (phi_ia - lam a)`` and ``S_j = sum_{i>=j} r_i``, any completion of
    state ``b`` after target ``j`` adds at most ``S_{j+1} + lam (B - b)``
    (weak duality), so a state that fails

    .. math::

        best_j[b] + \\lambda (B - b) \\ge (w - \\text{margin}) - S_{j+1}

    ends strictly below ``w <= V``.  After each target the kernel trims
    its states to the span between the first and the last state that
    passes, and runs the next transition only over ``[lo, hi + K]``.
    Every value left in the trimmed table is a maximum over a subset of
    the full table's paths, so it never exceeds the full table's value;
    the optimal path never leaves the span, so its values are the full
    table's, its choices too (every earlier candidate of its states was
    strictly smaller and can only have fallen), and so is the final
    first-occurrence ``argmax``: the value, units and tie-breaks are the
    full table's bit for bit.

    ``margin`` covers the rounding of every term.  With ``u = eps / 2``
    and ``M = sum_i max_a |phi_ia|``, a bound on every partial sum of
    ``phi``: the kernel's additions along a completion (``T u M``), the
    ``r_i`` (``u (M + 2 lam T K)``), their suffix sums (``T u M``),
    ``lam (B - b)`` (``u lam B``) and the test's addition and
    subtractions (``3 u (2 M + lam B)``) total at most ``(T + 4) eps (M
    + lam (T K + B))`` to first order.  The kernel takes twice the
    screen's margin, ``8 (T + 2) eps (M + lam (T K + B))``, several times
    that.  A witness over budget proves nothing, and the kernel then
    keeps every state.
    """
    phi = np.asarray(phi_grid, dtype=np.float64)
    if phi.ndim != 2 or phi.shape[1] < 2:
        raise ValueError(f"phi_grid must have shape (T, K+1) with K >= 1, got {phi.shape}")
    num_targets, cols = phi.shape
    k = cols - 1
    if budget_units < 0:
        raise ValueError(f"budget_units must be >= 0, got {budget_units}")
    if not np.isfinite(phi).all():
        raise ValueError("phi_grid must be finite")
    allocation, _ = _pruned_knapsack(phi, int(min(budget_units, num_targets * k)))
    return allocation


def _pruned_knapsack(phi: np.ndarray, budget: int) -> tuple[GridAllocation, list[int]]:
    """The pruned table fill of :func:`maximize_separable_on_grid` on a
    checked ``phi`` and a budget clipped to ``T K``; also returns the
    number of states kept after each target."""
    num_targets, cols = phi.shape
    k = cols - 1
    # State b after target j survives iff best[b] + spare[b] >= need[j]:
    # spare[b] = lam (B - b) prices the budget b leaves unspent.
    screen = screen_grid(phi, budget)
    reduced = (phi - screen.lam * np.arange(cols)).max(axis=1)
    to_go = np.append(np.cumsum(reduced[::-1])[::-1][1:], 0.0)
    need = screen.witness_sum - 2.0 * screen.margin - to_go
    spare = screen.lam * (budget - np.arange(budget + 1))
    if screen.units.sum() > budget or not np.isfinite(need).all():
        # A witness over budget proves nothing: keep every state.
        need[:] = -np.inf

    # The per-target transition is a max-plus correlation of `best` with
    # the target's value column: score[b, a] = best[b - a] + phi[j, a].
    # `best` holds the kept states lo..hi; the transition reaches states
    # lo..top.  Padding `best` with A-1 leading and top-hi trailing -inf
    # entries makes every shifted read in-bounds, and the strided view
    # windows[b - lo, a] = padded[b - lo + A - 1 - a] = best[b - a] reads
    # each row backwards from its own state.  argmax's first-occurrence
    # rule awards ties to the smallest `a`, matching the strict
    # `cand > new_best` update of the reference loop.
    num_moves = min(k, budget) + 1
    step = phi.itemsize
    rows = np.arange(budget + 1)
    lo = hi = 0
    best = np.zeros(1)
    # choices[j] = (lo, choice): units given to target j by states lo...
    choices = []
    kept = []
    for j in range(num_targets):
        top = min(hi + num_moves - 1, budget)
        padded = np.full(top - lo + num_moves, -np.inf)
        padded[num_moves - 1 : num_moves + hi - lo] = best
        windows = np.ndarray(
            (top - lo + 1, num_moves), buffer=padded,
            offset=(num_moves - 1) * step, strides=(step, -step),
        )
        scores = windows + phi[j, :num_moves]
        choice = np.argmax(scores, axis=1)
        best = scores[rows[: top - lo + 1], choice]
        choices.append((lo, choice))
        # Trim to the span of surviving states; states inside it keep
        # their values, which only brings the table closer to the full one.
        index = np.flatnonzero(best + spare[lo : top + 1] >= need[j])
        assert index.size, "DP pruning dropped every state"
        first, last = int(index[0]), int(index[-1])
        best = best[first : last + 1]
        lo, hi = lo + first, lo + last
        kept.append(last - first + 1)

    # States track exact usage; slack (<= budget) is allowed by taking
    # the best final state at any usage.
    b = lo + int(np.argmax(best))
    value = float(best[b - lo])
    units = np.zeros(num_targets, dtype=np.int64)
    for j in range(num_targets - 1, -1, -1):
        start, choice = choices[j]
        units[j] = choice[b - start]
        b -= units[j]
    assert b == 0, "DP backtrack failed to consume the chosen budget"
    return GridAllocation(value=value, units=units), kept


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
