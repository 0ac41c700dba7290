"""Lagrangian hull screen: decide a CUBIS step without a solver.

After Proposition 3 eliminates ``beta``, the MILP (33-40) at candidate
utility ``c`` maximises a separable sum over the budget polytope,

.. math::

    G^*(c) = \\max \\sum_i \\varphi_i(x_i) \\quad \\text{s.t.} \\quad
    \\sum_i x_i \\le R, \\; 0 \\le x_i \\le 1,

with ``phi_i = min(fbar1_i, fbar2_i)`` the minimum of the two
piecewise-linear interpolants ``fbar1 = interp(L (U^d - c))`` and
``fbar2 = interp(U (U^d - c))`` on the ``K``-segment grid.  Each
``phi_i`` is piecewise linear with vertices at the ``K + 1`` breakpoints
plus one vertex per segment on which ``fbar1 - fbar2`` changes sign
(both functions are linear on a segment, so they cross at most once
there).  Relaxing the budget with a multiplier ``lam`` gives, for every
``lam >= 0`` (every real ``lam`` under ``sum x = R``),

.. math::

    B(\\lambda) = \\lambda R + \\sum_i \\max_v \\big(\\varphi_i(v) - \\lambda v\\big)
    \\;\\ge\\; G^*(c),

where ``v`` ranges over target ``i``'s vertices: a piecewise-linear
function minus a linear one peaks at a vertex.  ``B`` is convex and
piecewise linear in ``lam``; its minimiser is the slope of the upper
concave hull edge on which a greedy fill of the budget runs out, so
:meth:`LagrangianHull.screen` finds it exactly by sorting hull slopes.
The greedy prefix itself is a vertex choice ``x(lam)`` that fits the
budget, a real strategy whose exact ``G_bar`` bounds ``G^*(c)`` from
below.

The screen's verdicts (applied in :mod:`repro.core.cubis`):

* ``min B < -tol`` proves the step infeasible;
* a witness whose certificate reads ``G_bar >= -tol`` proves it feasible;
* anything else falls through to the LP-relaxation screen.

Only the bound decides infeasibility and only the exact certificate
decides feasibility, so the hull construction needs no special care
for soundness: a misjudged hull vertex can only cost a fall-through.

The DP oracle's step problem is the same sum restricted to the grid
``x_i in {0, 1/K, ..., 1}``, a multiple-choice knapsack whose LP
relaxation is the same hull fill with the integer units ``0..K`` as
vertices (Sinha and Zoltners, 1979).  :func:`screen_grid` runs it
through the shared fill, over the rows' rising prefixes when it can
certify them concave and through :func:`fill_hull` otherwise; its
witness sum, added in the kernel's order, and its ``min B`` plus a
float-error margin bracket
:func:`~repro.core.dp.maximize_separable_on_grid`'s value, so the DP
screen's verdicts are the kernel's own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.solvers.piecewise import SegmentGrid

__all__ = ["GridScreen", "HullScreen", "LagrangianHull", "fill_hull", "screen_grid"]


@dataclass(frozen=True)
class HullScreen:
    """One candidate's Lagrangian screen.

    Attributes
    ----------
    bound:
        ``B(lam)`` at the minimising multiplier — an upper bound on the
        step's MILP optimum ``G^*(c)``.
    lam:
        That multiplier (the critical hull slope; 0 when the whole
        positive-slope hull fits the budget).
    witness:
        The vertex choice ``x(lam)``: the greedy prefix of hull edges
        that fits the budget.  Feasible for ``sum x <= R``; under
        ``sum x = R`` it may spend less than ``R``.
    """

    bound: float
    lam: float
    witness: np.ndarray


@dataclass(frozen=True)
class GridScreen:
    """One DP step's Lagrangian screen on the grid ``0, 1, ..., K``.

    Attributes
    ----------
    bound:
        ``min_lam B(lam)`` with the grid units as vertices — an upper
        bound on the step's grid knapsack optimum.
    lam:
        The minimising multiplier (``>= 0``; 0 when every positive-slope
        hull edge fits the budget).  The DP kernel prunes its table with
        it.
    margin:
        Float-error allowance: the DP kernel's computed optimum never
        exceeds ``bound + margin``.
    units:
        The greedy witness allocation, ``sum(units) <= budget_units``.
    witness_sum:
        ``sum_i phi[i, units_i]`` added from ``0.0`` in target order, the
        kernel's own addition order, so the kernel's optimum is at least
        this value bit for bit.
    hull:
        How the hull was found: ``"concave_prefix"`` when every row's
        rising prefix was certified strictly concave and taken as its
        hull, ``"gap_loop"`` when :func:`_upper_hull` ran.  The fields
        above are the same either way.
    """

    bound: float
    lam: float
    margin: float
    units: np.ndarray
    witness_sum: float
    hull: str


class LagrangianHull:
    """The hull screen of one game's step problems.

    Parameters
    ----------
    defender_utility_grid, lower_grid, upper_grid:
        ``U^d``, ``L`` and ``U`` tabulated at the ``K + 1`` breakpoints,
        shape ``(T, K+1)`` — the grids the MILP skeleton is built from.
    num_resources:
        The budget ``R``.
    grid:
        The :class:`~repro.solvers.piecewise.SegmentGrid`.
    equality_resources:
        ``sum x = R`` instead of ``<= R``: the multiplier is then free in
        sign.
    """

    def __init__(
        self,
        defender_utility_grid: np.ndarray,
        lower_grid: np.ndarray,
        upper_grid: np.ndarray,
        num_resources: float,
        grid: SegmentGrid,
        *,
        equality_resources: bool = False,
    ) -> None:
        self._ud = np.asarray(defender_utility_grid, dtype=np.float64)
        self._lo = np.asarray(lower_grid, dtype=np.float64)
        self._hi = np.asarray(upper_grid, dtype=np.float64)
        self.num_resources = float(num_resources)
        self.equality_resources = bool(equality_resources)
        breakpoints = grid.breakpoints
        self._breakpoints = breakpoints
        self._left = breakpoints[:-1]
        self._step = np.diff(breakpoints)

    def vertices(self, c: float) -> tuple[np.ndarray, np.ndarray]:
        """Every target's vertex positions and ``phi`` values, ``(T, K+1+m)``.

        Each row holds the ``K + 1`` breakpoints and, in position order,
        the crossing of ``fbar1`` and ``fbar2`` on every segment where
        their difference changes sign strictly; ``m`` is the largest
        crossing count of any target.  Rows with fewer crossings are
        padded with segment midpoints, where ``phi`` is linear, so the
        padding is harmless.  Positions increase along each row.
        """
        margin = self._ud - c
        f1 = self._lo * margin
        f2 = self._hi * margin
        phi_b = np.minimum(f1, f2)
        d = f1 - f2
        d0, d1 = d[:, :-1], d[:, 1:]
        cross = d0 * d1 < 0.0
        theta = np.where(cross, d0 / np.where(cross, d0 - d1, 1.0), 0.5)
        interior_phi = np.where(
            cross,
            f1[:, :-1] + theta * (f1[:, 1:] - f1[:, :-1]),
            0.5 * (phi_b[:, :-1] + phi_b[:, 1:]),
        )
        t, width = phi_b.shape
        v = np.empty((t, 2 * width - 1))
        phi = np.empty_like(v)
        v[:, 0::2] = self._breakpoints
        v[:, 1::2] = self._left + theta * self._step
        phi[:, 0::2] = phi_b
        phi[:, 1::2] = interior_phi
        counts = cross.sum(axis=1)
        extra = int(counts.max())
        keep = np.ones_like(v, dtype=bool)
        plain = ~cross
        keep[:, 1::2] = cross | (
            plain & (np.cumsum(plain, axis=1) <= (extra - counts)[:, None])
        )
        size = width + extra
        return v[keep].reshape(t, size), phi[keep].reshape(t, size)

    def bound_at(self, c: float, lam: float) -> float:
        """``B(lam)`` at candidate ``c`` — an upper bound on ``G^*(c)`` for
        any ``lam >= 0`` (any real ``lam`` under ``equality_resources``)."""
        v, phi = self.vertices(c)
        return _bound(v, phi, float(lam), self.num_resources)

    def screen(self, c: float) -> HullScreen:
        """The minimising multiplier, its bound and its witness at ``c``."""
        v, phi = self.vertices(c)
        return fill_hull(
            v, phi, self.num_resources, equality=self.equality_resources
        )


def fill_hull(
    v: np.ndarray, phi: np.ndarray, budget: float, *, equality: bool = False
) -> HullScreen:
    """Minimise ``B(lam)`` over the rows' upper concave hulls.

    ``v`` holds each row's vertex positions, increasing along the row,
    shape ``(T, m)`` or ``(m,)`` when every row shares them; ``phi`` the
    values there, ``(T, m)``.  Each row picks one position and the
    positions sum to at most ``budget`` (exactly ``budget`` under
    ``equality``, where ``lam`` is free in sign).  Returns the minimising
    ``lam``, ``B(lam)`` and the greedy witness.
    """
    return _fill(v, phi, _upper_hull(v, phi), budget, equality=equality)


def _fill(
    v: np.ndarray, phi: np.ndarray, on_hull: np.ndarray, budget: float,
    *, equality: bool,
) -> HullScreen:
    """:func:`fill_hull`'s greedy fill over a given hull mask."""
    v = np.broadcast_to(v, phi.shape)
    # Hull edges: each hull vertex after a row's first one, joined to
    # the hull vertex before it.
    columns = np.arange(v.shape[1])
    last = np.maximum.accumulate(np.where(on_hull, columns, -1), axis=1)
    rows, ends = np.nonzero(on_hull[:, 1:] & (last[:, :-1] >= 0))
    ends = ends + 1
    starts = last[rows, ends - 1]
    length = v[rows, ends] - v[rows, starts]
    edge_slope = (phi[rows, ends] - phi[rows, starts]) / length
    if not equality:
        keep = edge_slope > 0.0
        rows, ends = rows[keep], ends[keep]
        length, edge_slope = length[keep], edge_slope[keep]

    # Greedy fill from each row's first hull vertex: steepest edges
    # first (stable, so one row's equal-slope edges stay in position
    # order) until the budget runs out; that edge's slope is the
    # minimising multiplier.
    origin = v[np.arange(v.shape[0]), np.argmax(on_hull, axis=1)]
    order = np.argsort(-edge_slope, kind="stable")
    room = budget - origin.sum()
    taken = int(np.searchsorted(np.cumsum(length[order]), room, side="right"))
    if taken < len(order):
        lam = float(edge_slope[order[taken]])
    elif equality and len(order):
        lam = float(edge_slope[order[-1]])
    else:
        lam = 0.0
    chosen = order[:taken]
    reach = np.zeros_like(v)
    reach[rows[chosen], ends[chosen]] = v[rows[chosen], ends[chosen]]
    return HullScreen(
        bound=_bound(v, phi, lam, budget),
        lam=lam,
        witness=np.maximum(origin, reach.max(axis=1)),
    )


# Certified concavity margin, in units of eps * max_a |phi_ia| (see
# screen_grid): several times the first-order rounding bound of 6.
_CONCAVE_TOL = 64.0


def screen_grid(phi_grid: np.ndarray, budget_units: int) -> GridScreen:
    """The Lagrangian screen of :func:`~repro.core.dp.maximize_separable_on_grid`.

    ``phi_grid`` is its ``(T, K+1)`` value table and ``budget_units`` its
    budget; the vertices are the integer units ``0..K`` (every grid
    point), and the budget is ``<=`` because the DP allows slack.

    Notes
    -----
    The fill uses only hull edges of positive slope, and those lie in
    each row's rising prefix, columns ``0..p_i`` up to its first argmax
    ``p_i``.  When every such prefix is certified strictly concave, the
    screen takes the hull to be exactly the prefixes and skips
    :func:`_upper_hull`'s ``O(T K^2)`` gap loop; otherwise it runs
    :func:`fill_hull` on the whole table.  Either way the result is the
    gap loop's bit for bit.

    *Certificate.*  With ``w = max_i p_i + 1``, ``d = diff(phi[:, :w])``
    and ``tol_i = 64 eps max_a |phi_ia|``, every interior prefix column
    ``1 <= j < p_i`` must pass ``d[i, j-1] - d[i, j] > tol_i``, and every
    ``tol_i`` must be finite.  Write ``u = eps / 2`` and ``M = max_a
    |phi_ia|``.  Each computed unit slope ``d`` is within ``2 u M`` of the
    exact one and the computed second difference within a factor
    ``1 + u`` of theirs, so the exact second difference exceeds
    ``tol_i / (1 + u) - 4 u M > 0``: the exact prefix is strictly
    concave.  The gap loop's pair slopes ``fl(fl(phi_k - phi_j) / (k -
    j))`` are each within ``(2 u + u^2) 2 M`` of the exact ones, so its
    pair test holds at ``j`` once the exact gap between the shallowest
    slope in (at least ``phi_j - phi_{j-1}``, by concavity) and the
    steepest slope out to ``k <= p_i`` (at most ``phi_{j+1} - phi_j``)
    exceeds about ``8 u M``.  That needs ``tol_i >= 12 u M (1 + u)``,
    i.e. ``6 eps M`` to first order, and 64 is several times that.
    Slopes out to ``k > p_i`` cannot break the test: ``phi_k <= phi_p``
    and ``k - j > p - j``, and rounding is monotone, so ``fl((phi_k -
    phi_j) / (k - j)) <= fl((phi_p - phi_j) / (p - j))``.

    *Exactness.*  So the gap loop marks every prefix column as on the
    hull: column 0 always, column ``p_i`` because every slope out of it
    rounds to ``<= 0`` and every slope into it to ``>= 0``, and the
    interior columns by the certificate.  Its prefix edges are then the
    unit steps ``(j - 1, j)``, whose slopes are the certified, strictly
    decreasing ``d`` and end at ``d[i, p_i - 1] > 0``, so the fill keeps
    them all.  Any hull edge after ``p_i`` runs from a vertex of value
    at most ``phi_p`` on to another, and its float slope is ``<= 0`` (a
    later vertex of higher value would give the earlier one a positive
    slope out against a non-positive slope in from ``p_i``), so the fill
    drops it.  The mask ``column <= p_i`` on the first ``w`` columns
    therefore gives the fill the same edges in the same order, hence the
    same ``lam``, witness and ``units``.  The bound's row maxima of
    ``phi_ia - lam a`` are unchanged by cutting the table to ``w``
    columns: ``lam >= 0``, so for ``a > p_i`` rounding is monotone and
    ``fl(phi_ia - fl(lam a)) <= fl(phi_ip - fl(lam p_i))``.
    ``GridScreen.hull`` records which construction ran.
    """
    phi = np.asarray(phi_grid, dtype=np.float64)
    return _screen_grid(phi, budget_units, _concave_peaks(phi))


def _concave_peaks(phi: np.ndarray) -> np.ndarray | None:
    """Each row's first argmax if every rising prefix is certified
    strictly concave (see :func:`screen_grid`), else ``None``."""
    peak = np.argmax(phi, axis=1)
    width = int(peak.max()) + 1
    d = np.diff(phi[:, :width], axis=1)
    drop = d[:, :-1] - d[:, 1:]
    tol = _CONCAVE_TOL * np.finfo(np.float64).eps * np.abs(phi).max(axis=1)
    interior = np.arange(1, width - 1) < peak[:, None]
    if np.isfinite(tol).all() and ((drop > tol[:, None]) | ~interior).all():
        return peak
    return None


def _screen_grid(
    phi: np.ndarray, budget_units: int, peak: np.ndarray | None
) -> GridScreen:
    """:func:`screen_grid` on a float table: over the certified prefixes
    ending at ``peak``, or through the gap loop when ``peak`` is None."""
    t, width = phi.shape
    if peak is None:
        fill = fill_hull(np.arange(width, dtype=np.float64), phi, float(budget_units))
    else:
        columns = np.arange(int(peak.max()) + 1)
        fill = _fill(
            columns.astype(np.float64), phi[:, : columns.size],
            columns <= peak[:, None], float(budget_units), equality=False,
        )
    units = fill.witness.astype(np.int64)
    # Bound error: T + 1 rounded terms of size up to |phi| + lam K, plus
    # lam * budget; the kernel's own T-term sum adds T eps sum|phi|.
    scale = np.abs(phi).max(axis=1).sum() + fill.lam * (
        t * (width - 1) + budget_units
    )
    return GridScreen(
        bound=fill.bound,
        lam=fill.lam,
        margin=float(4.0 * (t + 2) * np.finfo(np.float64).eps * scale),
        units=units,
        witness_sum=float(np.cumsum(phi[np.arange(t), units])[-1]),
        hull="gap_loop" if peak is None else "concave_prefix",
    )


def _upper_hull(v: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Which vertices lie on each row's upper concave hull.

    Vertex ``j`` is on it iff some ``lam`` makes it an argmax of
    ``phi - lam v``, i.e. iff no later vertex's slope from ``j``
    exceeds any earlier vertex's slope into ``j``.  Equal positions
    give ``0/0`` (or ``+-inf``): the later copy drops out.
    """
    t, size = phi.shape
    # Work column-major, one row per vertex, so each gap's slices are
    # contiguous blocks of whole rows.
    phi_t = np.ascontiguousarray(phi.T)
    v_t = np.ascontiguousarray(np.atleast_2d(v).T)
    lowest = np.full((size, t), -np.inf)
    highest = np.full((size, t), np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        for gap in range(1, size):
            # Slopes from every vertex to the one ``gap`` columns later.
            # A 0/0 slope counts as -inf: fmax skips it, and the minimum
            # keeps the NaN until it is mapped below.
            slope = (phi_t[gap:] - phi_t[:-gap]) / (v_t[gap:] - v_t[:-gap])
            np.fmax(lowest[:-gap], slope, out=lowest[:-gap])
            np.minimum(highest[gap:], slope, out=highest[gap:])
    highest[np.isnan(highest)] = -np.inf
    return (lowest <= highest).T


def _bound(v: np.ndarray, phi: np.ndarray, lam: float, resources: float) -> float:
    return float(lam * resources + (phi - lam * v).max(axis=1).sum())
