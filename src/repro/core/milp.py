"""The per-step CUBIS MILP (paper Eqs. 33-40).

At each binary-search step, CUBIS must decide feasibility of (P1) at the
candidate utility ``c`` by maximising the piecewise-linearised
``G(x, beta)`` (Proposition 2).  After Proposition 3 eliminates ``beta``
and the big-M constraints (22-24) linearise the product
``v_i = [U_i - L_i] beta_i``, the problem becomes the MILP

.. math::

    \\max \\; \\sum_i \\bar f_i^1(x_i) - \\sum_i v_i

over segment variables ``x_{i,k}``, products ``v_i``, indicator binaries
``q_i`` and fill-order binaries ``h_{i,k}``, where
``f_i^1(x) = L_i(x) (U_i^d(x) - c)`` and
``f_i^2(x) = U_i(x) (U_i^d(x) - c)`` are tabulated on the ``K``-segment
grid and ``bar`` denotes the piecewise-linear approximant.

Only the candidate ``c`` changes between binary-search steps; the
variable layout, sparsity pattern and the rows (37)-(40) do not.
:class:`CubisMilpSkeleton` therefore assembles the structure **once per
game** and :meth:`CubisMilpSkeleton.patch` rewrites just the
``c``-dependent coefficients — the big-M column of (34), the slope rows
(35)-(36) and their right-hand sides, the objective, and the ``v``
bounds — per step.  :func:`build_cubis_milp` (skeleton + single patch)
remains the one-shot entry point.

On top of the patch path, :meth:`CubisMilpSkeleton.diff` compares two
candidates and emits a :class:`SkeletonPatch` — the *sparse* set of
coefficient updates taking the ``c_old`` model to the ``c_new`` model.
Both :meth:`~CubisMilpSkeleton.patch` and
:meth:`~CubisMilpSkeleton.diff` tabulate through the same private
helper, so an in-place application of the patch set reproduces a
fresh build bit for bit.  No solve path applies one: every
CUBIS step builds its model with :meth:`~CubisMilpSkeleton.patch`.
``diff``, ``diff_from``, :class:`SkeletonPatch` and
``entry_data_slots`` stay because perfbench's probes
(``perfbench/tracing.py``) resolve ``diff`` and ``diff_from`` by name.

Structure sharing also extends *across games*: every structural array
depends only on the shape ``(T, K, R, constraint set)``, never on the
payoff grids, so :meth:`CubisMilpSkeleton.rebind` produces a skeleton
for a different game of the same shape by sharing the assembly and
swapping only the bound grids — the mechanism behind the fleet solver's
shape cache (:mod:`repro.solvers.fleet`).
:meth:`CubisMilpSkeleton.diff_from` is the general form of ``diff``: the
sparse patch from a sibling's model at one candidate to this skeleton's
model at another.

This module only *builds* the MILP (as a
:class:`~repro.solvers.milp_backend.MILPProblem` plus index metadata); the
solve and the feasibility verdict live in :mod:`repro.core.cubis`.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from repro.solvers.assembly import ConstraintBuilder, VariableLayout
from repro.solvers.milp_backend import MILPProblem
from repro.solvers.piecewise import SegmentGrid

__all__ = [
    "CubisMilp",
    "CubisMilpSkeleton",
    "SkeletonPatch",
    "StrategyCertificate",
    "build_cubis_milp",
    "step_grids",
]

#: Extra slack added to the data-driven big-M constants; keeps the
#: indicator constraints strictly inactive on the off branch despite
#: solver round-off.
_BIG_M_SLACK = 1.0


@dataclass(frozen=True)
class CubisMilp:
    """A built CUBIS MILP plus the metadata needed to interpret solutions.

    Attributes
    ----------
    problem:
        The minimisation-form MILP (objective is ``-(G - f1_constant)``).
    layout:
        Variable index groups ``x``, ``v``, ``q``, ``h``.
    grid:
        The segment grid the ``x_{i,k}`` variables live on.
    f1_constant:
        ``sum_i f_i^1(0)`` — the constant dropped from the MILP objective;
        ``G_bar = f1_constant - problem_objective_value``.
    c:
        The candidate defender utility this MILP tests.
    """

    problem: MILPProblem
    layout: VariableLayout
    grid: SegmentGrid
    f1_constant: float
    c: float

    def strategy_from_solution(self, solution: np.ndarray) -> np.ndarray:
        """Recover the coverage vector ``x_i = sum_k x_{i,k}``."""
        num_targets = len(self.layout["v"])
        xik = solution[self.layout["x"]].reshape(num_targets, self.grid.num_segments)
        return xik.sum(axis=1)

    def g_bar_from_objective(self, milp_objective: float) -> float:
        """Translate the solver's (minimisation) objective into
        ``G_bar(x*, beta*)`` — the quantity Proposition 2 compares to 0."""
        return self.f1_constant - milp_objective


@dataclass(frozen=True)
class StrategyCertificate:
    """A fixed strategy's piecewise-linear objective, reduced to ``O(T)``
    per candidate utility.

    For a fixed coverage ``x``, every term of
    ``G_bar(x; c) = sum_i min(fbar1_i(x_i), fbar2_i(x_i))`` is affine in
    ``c`` — ``fbar1_i(x_i) = interp(L U^d, x)_i - c * interp(L, x)_i`` and
    likewise for ``fbar2`` — so evaluating feasibility of a candidate
    costs four precomputed vectors and one ``min``/``sum``.  Since
    ``G_bar(x; c) >= 0`` proves ``c`` feasible (Proposition 2 with witness
    ``x``), certificates let the binary search skip MILP solves: any
    cached feasible strategy that still certifies the new candidate
    answers the oracle for free.
    """

    strategy: np.ndarray
    #: ``interp(L * U^d, x)`` / ``interp(L, x)`` per target.
    p1: np.ndarray
    q1: np.ndarray
    #: ``interp(U * U^d, x)`` / ``interp(U, x)`` per target.
    p2: np.ndarray
    q2: np.ndarray

    def g_bar(self, c: float) -> float:
        """``G_bar(strategy; c)`` — a lower bound on the MILP optimum."""
        return float(
            np.minimum(self.p1 - c * self.q1, self.p2 - c * self.q2).sum()
        )

    def guaranteed_level(self, lo: float, hi: float) -> float:
        """The largest ``c`` in ``[lo, hi]`` with ``G_bar(strategy; c) >= 0``.

        Returns ``-inf`` when ``lo`` itself is not certified and ``hi``
        when all of ``[lo, hi]`` is.  ``G_bar(x; .)`` is a sum of minima of
        two lines of slopes ``-q1, -q2 < 0``, so it is concave,
        decreasing and piecewise linear with at most ``T`` kinks; the
        level is the root of its linear piece there, found in closed form
        (:meth:`_root`).  Float rounding can put that root a few ulps
        past the float threshold, so the level then steps down until
        ``g_bar(level) >= 0`` holds as evaluated: the returned level is
        certified in float, as a bisection's would be.  The warm start's
        and the binary search's sound lower bound, no MILP involved.
        """
        lo, hi = float(lo), float(hi)
        if not (np.isfinite(lo) and np.isfinite(hi)) or lo > hi:
            raise ValueError(
                f"guaranteed_level needs a finite interval lo <= hi, got [{lo}, {hi}]"
            )
        if self.g_bar(lo) < 0.0:
            return -float("inf")
        if self.g_bar(hi) >= 0.0:
            return hi
        level = min(max(self._root(), lo), hi)
        step = 0.0
        while self.g_bar(level) < 0.0:
            # 1, 2, 4, ... ulps: ends at lo, which is certified, at worst.
            step = max(2.0 * step, level - float(np.nextafter(level, -np.inf)))
            level = max(level - step, lo)
        return level

    def _root(self) -> float:
        """The root of ``G_bar(strategy; .)`` over the whole real line.

        Any choice of one line per target sums to a line ``A - c B``
        (``B > 0``) that lies on or above ``G_bar``, and on each linear
        piece of ``G_bar`` one choice is exact.  So ``G_bar`` is the
        minimum of its pieces' lines and its root is the smallest of
        their roots ``A / B``.  A target's smaller-``q`` line is its
        minimum below the kink ``(p2 - p1) / (q2 - q1)`` and the other
        one above it, so the running sums over the sorted kinks
        enumerate every piece.  A target with ``q1 == q2`` has a kink
        at ``+-inf`` (or NaN, sorted last, when its lines coincide):
        its smaller-``p`` line is active on every finite piece.
        """
        p1, q1, p2, q2 = self.p1, self.q1, self.p2, self.q2
        d_p, d_q = p2 - p1, q2 - q1
        below_is_2 = d_q < 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            order = np.argsort(d_p / d_q)
        a0 = np.where(below_is_2, p2, p1).sum()
        b0 = np.minimum(q1, q2).sum()
        a = a0 + np.cumsum(np.where(below_is_2, -d_p, d_p)[order])
        b = b0 + np.cumsum(np.abs(d_q)[order])
        return float(min(a0 / b0, (a / b).min()))


@dataclass(frozen=True)
class _CandidateBlocks:
    """Every ``c``-dependent coefficient block, tabulated for one candidate.

    This is the single source both :meth:`CubisMilpSkeleton.patch` and
    :meth:`CubisMilpSkeleton.diff` draw from — identical float operations
    on both paths is what makes in-place patching bit-identical to a
    fresh build.
    """

    vals_34: np.ndarray
    vals_35: np.ndarray
    vals_36: np.ndarray
    rhs: np.ndarray
    cost_x: np.ndarray
    ub_v: np.ndarray
    f1_constant: float


@dataclass(frozen=True)
class SkeletonPatch:
    """Sparse coefficient delta between two binary-search candidates.

    Emitted by :meth:`CubisMilpSkeleton.diff`; applying it in place to
    the ``c_old`` model's arrays yields exactly the arrays
    :meth:`CubisMilpSkeleton.patch` would build from scratch for
    ``c_new`` (property-tested bit identity).

    ``vals_index`` addresses the skeleton's COO *entry order* (the order
    constraints were assembled in) — translate through
    :attr:`CubisMilpSkeleton.entry_data_slots` to index a CSR ``data``
    array.  ``rhs_index`` addresses ``b_ub`` rows; ``cost_index`` /
    ``ub_index`` address variables in the objective / upper-bound
    vectors.
    """

    c_old: float
    c_new: float
    vals_index: np.ndarray
    vals: np.ndarray
    rhs_index: np.ndarray
    rhs: np.ndarray
    cost_index: np.ndarray
    cost: np.ndarray
    ub_index: np.ndarray
    ub: np.ndarray
    f1_constant: float

    @property
    def num_updates(self) -> int:
        """Total scalar writes this patch performs."""
        return (
            len(self.vals_index)
            + len(self.rhs_index)
            + len(self.cost_index)
            + len(self.ub_index)
        )


class CubisMilpSkeleton:
    """Once-per-game immutable structure of the MILP (33-40).

    The constructor validates and tabulates the game data, lays out the
    variables, and assembles the full sparsity pattern a single time —
    recording which entries of the CSR ``data`` array, which right-hand
    sides, and which bounds depend on the binary-search candidate ``c``.
    :meth:`patch` then produces a :class:`CubisMilp` for any ``c`` by
    rewriting only those coefficients (same float operations as a from-
    scratch build, so patched and fresh models are bit-identical).

    Parameters match :func:`build_cubis_milp` minus ``c``.
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
        coverage_constraints=None,
    ) -> None:
        import scipy.sparse as sp

        ud = np.asarray(defender_utility_grid, dtype=np.float64)
        lo = np.asarray(lower_grid, dtype=np.float64)
        hi = np.asarray(upper_grid, dtype=np.float64)
        k = grid.num_segments
        if ud.ndim != 2 or ud.shape[1] != k + 1:
            raise ValueError(
                f"defender_utility_grid must have shape (T, {k + 1}), got {ud.shape}"
            )
        if lo.shape != ud.shape or hi.shape != ud.shape:
            raise ValueError(
                "lower_grid and upper_grid must match defender_utility_grid"
            )
        num_targets = ud.shape[0]
        self._ud = ud
        self._lo = lo
        self._hi = hi
        self.grid = grid
        self._cert_base, self._cert_slopes = _certificate_tables(ud, lo, hi, grid)
        self.num_targets = num_targets
        self.num_resources = float(num_resources)

        layout = VariableLayout()
        x_idx = layout.add("x", num_targets * k).reshape(num_targets, k)
        v_idx = layout.add("v", num_targets)
        q_idx = layout.add("q", num_targets)
        h_idx = (
            layout.add("h", num_targets * (k - 1)).reshape(num_targets, k - 1)
            if k > 1
            else layout.add("h", 0).reshape(num_targets, 0)
        )
        n = layout.size
        self.layout = layout
        self._x_idx = x_idx
        self._v_idx = v_idx
        self._q_idx = q_idx
        self._h_idx = h_idx

        builder = ConstraintBuilder(n)
        t = num_targets
        ones_t = np.ones(t)
        # The c-dependent blocks are assembled with placeholder ones so the
        # sparsity pattern never loses an entry to a coincidental zero;
        # patch() overwrites every value in these slices.
        # (34) v_i - M_i q_i <= 0.
        builder.add_block(
            columns=np.column_stack([v_idx, q_idx]),
            coefficients=np.column_stack([ones_t, ones_t]),
            rhs=np.zeros(t),
        )
        self._vals_34 = slice(0, builder.num_entries)
        # (35) sum_k (s1-s2)_{i,k} x_{i,k} - v_i <= -(f1 - f2)(0)_i.
        builder.add_block(
            columns=np.column_stack([x_idx, v_idx]),
            coefficients=np.ones((t, k + 1)),
            rhs=np.zeros(t),
        )
        self._vals_35 = slice(self._vals_34.stop, builder.num_entries)
        # (36) v_i - sum_k (s1-s2)_{i,k} x_{i,k} + M_i q_i <= (f1-f2)(0)_i + M_i.
        builder.add_block(
            columns=np.column_stack([x_idx, v_idx, q_idx]),
            coefficients=np.ones((t, k + 2)),
            rhs=np.zeros(t),
        )
        self._vals_36 = slice(self._vals_35.stop, builder.num_entries)
        self._rhs_patch = slice(t, 3 * t)  # rows of (35) and (36)

        # (38) h_{i,k} / K - x_{i,k} <= 0   for k = 1..K-1.
        if k > 1:
            builder.add_block(
                columns=np.column_stack([h_idx.ravel(), x_idx[:, :-1].ravel()]),
                coefficients=np.column_stack(
                    [
                        np.full(t * (k - 1), grid.segment_length),
                        -np.ones(t * (k - 1)),
                    ]
                ),
                rhs=np.zeros(t * (k - 1)),
            )
            # (39) x_{i,k+1} - h_{i,k} <= 0.
            builder.add_block(
                columns=np.column_stack([x_idx[:, 1:].ravel(), h_idx.ravel()]),
                coefficients=np.column_stack(
                    [
                        np.ones(t * (k - 1)),
                        -np.ones(t * (k - 1)),
                    ]
                ),
                rhs=np.zeros(t * (k - 1)),
            )
        # (37) sum_{i,k} x_{i,k} <= R  (or = R).
        self._A_eq = None
        self._b_eq = None
        if equality_resources:
            data = np.ones(t * k)
            self._A_eq = sp.csr_matrix(
                (data, (np.zeros(t * k, dtype=np.int64), x_idx.ravel())),
                shape=(1, n),
            )
            self._b_eq = np.array([self.num_resources])
        else:
            builder.add_row(x_idx.ravel(), np.ones(t * k), self.num_resources)

        if coverage_constraints is not None:
            if coverage_constraints.num_targets != num_targets:
                raise ValueError(
                    f"coverage constraints cover {coverage_constraints.num_targets} "
                    f"targets but the game has {num_targets}"
                )
            rows = coverage_constraints.num_constraints
            builder.add_block(
                columns=np.tile(x_idx.ravel(), (rows, 1)),
                coefficients=np.repeat(coverage_constraints.matrix, k, axis=1),
                rhs=coverage_constraints.rhs,
            )

        rows, cols, vals, rhs = builder.build_coo()
        num_rows = builder.num_rows
        # Map COO insertion order onto CSR data order once: a marker matrix
        # whose values are the 1-based entry indices survives the
        # conversion (no duplicate coordinates, asserted below), giving a
        # permanent entry -> data-slot permutation.
        marker = sp.coo_matrix(
            (np.arange(1, len(vals) + 1, dtype=np.float64), (rows, cols)),
            shape=(num_rows, n),
        ).tocsr()
        if marker.nnz != len(vals):
            raise AssertionError(
                "CUBIS MILP blocks produced duplicate (row, col) entries; "
                "the memoised sparsity pattern requires unique coordinates"
            )
        self._csr_order = marker.data.astype(np.int64) - 1
        self._entry_data_slots: np.ndarray | None = None
        self._csr_indices = marker.indices
        self._csr_indptr = marker.indptr
        self._shape = (num_rows, n)
        self._vals_template = vals
        self._rhs_template = rhs

        # Fixed bound / integrality patterns (v's upper bound is patched).
        ub = np.full(n, np.inf)
        ub[x_idx.ravel()] = grid.segment_length
        ub[q_idx] = 1.0
        if h_idx.size:
            ub[h_idx.ravel()] = 1.0
        self._ub_template = ub
        integrality = np.zeros(n, dtype=np.int64)
        integrality[q_idx] = 1
        if h_idx.size:
            integrality[h_idx.ravel()] = 1
        self._integrality = integrality

    def _tabulate(self, c: float) -> _CandidateBlocks:
        """Tabulate every ``c``-dependent coefficient block for ``c``.

        Breakpoint tabulation of f^1, f^2 and their slopes (Eqs. 31-32),
        the data-driven big-M constants (|f1 - f2| peaks at a breakpoint
        of the piecewise approximant), and the objective/bound columns.
        Both :meth:`patch` and :meth:`diff` go through here, so the two
        paths perform the same float operations on the same data.
        """
        ud, lo, hi = self._ud, self._lo, self._hi
        grid = self.grid
        t = self.num_targets
        margin = ud - c  # (T, K+1): U_i^d(t) - c
        f1 = lo * margin
        f2 = hi * margin
        s1 = grid.slopes(f1)  # (T, K)
        s2 = grid.slopes(f2)
        diff_slopes = s1 - s2  # slopes of f1 - f2 = -(U - L)(U^d - c)
        g0 = f1[:, 0] - f2[:, 0]  # (f1 - f2)(0) per target
        big_m = np.abs(f1 - f2).max(axis=1) + _BIG_M_SLACK
        return _CandidateBlocks(
            vals_34=np.column_stack([np.ones(t), -big_m]).ravel(),
            vals_35=np.column_stack([diff_slopes, -np.ones(t)]).ravel(),
            vals_36=np.column_stack([-diff_slopes, np.ones(t), big_m]).ravel(),
            rhs=np.concatenate([-g0, g0 + big_m]),
            cost_x=-s1.ravel(),
            ub_v=big_m,
            f1_constant=float(f1[:, 0].sum()),
        )

    @property
    def entry_data_slots(self) -> np.ndarray:
        """Inverse of the entry → CSR permutation.

        ``entry_data_slots[e]`` is the slot of COO entry ``e`` (assembly
        order, the order :class:`SkeletonPatch.vals_index` uses) in the
        built CSR ``data`` array.  Computed lazily and cached;
        :class:`~repro.solvers.session.MilpSession` uses it to write patch
        values straight into a live matrix.
        """
        slots = self._entry_data_slots
        if slots is None:
            order = self._csr_order
            slots = np.empty(len(order), dtype=np.int64)
            slots[order] = np.arange(len(order), dtype=np.int64)
            self._entry_data_slots = slots
        return slots

    def patch(self, c: float) -> CubisMilp:
        """Assemble the MILP for candidate utility ``c``.

        Only the ``c``-dependent coefficients are recomputed; the
        structure is shared with every other patch of this skeleton.
        """
        import scipy.sparse as sp

        n = self._shape[1]
        x_idx, v_idx = self._x_idx, self._v_idx
        blocks = self._tabulate(c)

        vals = self._vals_template.copy()
        vals[self._vals_34] = blocks.vals_34
        vals[self._vals_35] = blocks.vals_35
        vals[self._vals_36] = blocks.vals_36
        rhs = self._rhs_template.copy()
        rhs[self._rhs_patch] = blocks.rhs
        A_ub = sp.csr_matrix(
            (vals[self._csr_order], self._csr_indices, self._csr_indptr),
            shape=self._shape,
        )

        # Objective (33), minimisation form: min  -sum s1 x + sum v.
        cost = np.zeros(n)
        cost[x_idx.ravel()] = blocks.cost_x
        cost[v_idx] = 1.0

        ub = self._ub_template.copy()
        ub[v_idx] = blocks.ub_v

        problem = MILPProblem(
            c=cost,
            A_ub=A_ub,
            b_ub=rhs,
            A_eq=self._A_eq,
            b_eq=None if self._b_eq is None else self._b_eq.copy(),
            lb=np.zeros(n),
            ub=ub,
            integrality=self._integrality.copy(),
        )
        return CubisMilp(
            problem=problem,
            layout=self.layout,
            grid=self.grid,
            f1_constant=blocks.f1_constant,
            c=float(c),
        )

    def diff(self, c_old: float, c_new: float) -> SkeletonPatch:
        """The sparse update set taking the ``c_old`` model to ``c_new``.

        Tabulates both candidates through :meth:`_tabulate` and keeps
        only the entries whose values actually differ (bitwise float
        comparison, so an applied patch reproduces :meth:`patch`
        exactly).  Typical binary-search steps change every tabulated
        entry — the win over :meth:`patch` is skipping the CSR
        re-assembly and the template copies, not the tabulation.
        """
        return self.diff_from(self, c_old, c_new)

    def rebind(
        self,
        defender_utility_grid: np.ndarray,
        lower_grid: np.ndarray,
        upper_grid: np.ndarray,
    ) -> "CubisMilpSkeleton":
        """A structure-sharing view of this skeleton bound to another game.

        The view shares every structural array with ``self`` — sparsity
        pattern, coefficient/RHS/bound templates, integrality marks,
        variable layout, and the lazy ``entry_data_slots`` table — and
        carries only the new payoff grids, so "building" it costs three
        shape checks plus tabulating the view's own certificate grids
        (``O(T*K)``) instead of a full assembly; the prototype's tables
        belong to the old game and are never shared.  Because
        :meth:`_tabulate` reads nothing but the bound grids,
        ``view.patch(c)`` is bit-identical to building a fresh skeleton
        for the new game and patching it.

        The resource budget and constraint set are inherited: rebinding
        is only valid across games of identical shape (same ``T``, ``K``,
        ``R``, and equality/coverage structure) — exactly the grouping
        the fleet shape cache keys on.
        """
        ud = np.asarray(defender_utility_grid, dtype=np.float64)
        lo = np.asarray(lower_grid, dtype=np.float64)
        hi = np.asarray(upper_grid, dtype=np.float64)
        if ud.shape != self._ud.shape:
            raise ValueError(
                f"rebind grids must have shape {self._ud.shape}, got {ud.shape}"
            )
        if lo.shape != ud.shape or hi.shape != ud.shape:
            raise ValueError(
                "lower_grid and upper_grid must match defender_utility_grid"
            )
        # Materialise the lazy slot table first so every sibling view
        # shares one copy instead of each computing its own.
        _ = self.entry_data_slots
        view = copy.copy(self)
        view._ud, view._lo, view._hi = ud, lo, hi
        view._cert_base, view._cert_slopes = _certificate_tables(
            ud, lo, hi, self.grid
        )
        return view

    def shares_structure(self, other: "CubisMilpSkeleton") -> bool:
        """Whether ``other`` shares this skeleton's assembly.

        True for the skeleton itself and for any :meth:`rebind` sibling
        (identity of the structural arrays, not value equality — two
        independently assembled skeletons are never considered sharing,
        which keeps cross-game patching an explicit opt-in through the
        shape cache).
        """
        return isinstance(other, CubisMilpSkeleton) and (
            other is self
            or (
                other._csr_order is self._csr_order
                and other._vals_template is self._vals_template
            )
        )

    def diff_from(
        self, base: "CubisMilpSkeleton", c_old: float, c_new: float
    ) -> SkeletonPatch:
        """Cross-game patch: the sparse update set taking ``base``'s model
        at ``c_old`` to *this* skeleton's model at ``c_new``.

        ``base`` must be a structure-sharing sibling (see
        :meth:`rebind`): entries outside the candidate-dependent blocks
        are then bitwise identical between the two games, so patching
        only the tabulated differences reproduces ``self.patch(c_new)``
        exactly — even though the live model being patched was built for
        a different game.
        """
        if not self.shares_structure(base):
            raise ValueError(
                "diff_from requires a structure-sharing sibling skeleton "
                "(a rebind() view of the same assembly)"
            )
        return self._emit_patch(
            base._tabulate(c_old), self._tabulate(c_new), c_old, c_new
        )

    def _emit_patch(
        self,
        old: _CandidateBlocks,
        new: _CandidateBlocks,
        c_old: float,
        c_new: float,
    ) -> SkeletonPatch:
        vals_index: list[np.ndarray] = []
        vals: list[np.ndarray] = []
        for sl, o, n in (
            (self._vals_34, old.vals_34, new.vals_34),
            (self._vals_35, old.vals_35, new.vals_35),
            (self._vals_36, old.vals_36, new.vals_36),
        ):
            changed = np.flatnonzero(o != n)
            vals_index.append(changed + sl.start)
            vals.append(n[changed])
        rhs_changed = np.flatnonzero(old.rhs != new.rhs)
        cost_changed = np.flatnonzero(old.cost_x != new.cost_x)
        ub_changed = np.flatnonzero(old.ub_v != new.ub_v)
        return SkeletonPatch(
            c_old=float(c_old),
            c_new=float(c_new),
            vals_index=np.concatenate(vals_index),
            vals=np.concatenate(vals),
            rhs_index=rhs_changed + self._rhs_patch.start,
            rhs=new.rhs[rhs_changed],
            cost_index=self._x_idx.ravel()[cost_changed],
            cost=new.cost_x[cost_changed],
            ub_index=self._v_idx[ub_changed],
            ub=new.ub_v[ub_changed],
            f1_constant=new.f1_constant,
        )

    def certificate(self, strategy: np.ndarray) -> StrategyCertificate:
        """Reduce ``strategy`` to its :class:`StrategyCertificate`.

        The four interpolants are of the *c-free* grids, exploiting that
        ``fbar(x; c)`` is affine in ``c`` at fixed ``x`` (interpolation is
        linear in the tabulated values).  Their slopes are tabulated once
        per skeleton, so a certificate costs one fill-order decomposition
        and one multiply-sum, with the same float operations (and so the
        same bits) as four :meth:`SegmentGrid.interpolate` calls.
        """
        x = np.clip(np.asarray(strategy, dtype=np.float64), 0.0, 1.0)
        if x.shape != (self.num_targets,):
            raise ValueError(
                f"strategy must have shape ({self.num_targets},), got {x.shape}"
            )
        p1, q1, p2, q2 = self._cert_base + (
            self._cert_slopes * self.grid._fill(x)
        ).sum(axis=-1)
        return StrategyCertificate(strategy=x, p1=p1, q1=q1, p2=p2, q2=q2)


def _certificate_tables(ud, lo, hi, grid: SegmentGrid):
    """Breakpoint-0 values ``(4, T)`` and segment slopes ``(4, T, K)`` of
    the certificate grids ``[L U^d, L, U U^d, U]``."""
    values = np.stack([lo * ud, lo, hi * ud, hi])
    return values[..., 0], grid.slopes(values)


def step_grids(game, uncertainty, grid: SegmentGrid, *, execution_alpha: float = 0.0):
    """``U^d``, ``L`` and ``U`` at the grid's breakpoints, shape ``(T, K+1)``
    each — the data every CUBIS step problem is built from.

    Under execution noise a planned coverage ``t`` realises (worst case)
    as ``max(t - alpha, 0)``, so all three grids are evaluated there.
    The attack probabilities, and hence the sign of ``G``, are invariant
    to a global scaling of ``(L, U)``; both are normalised so the largest
    upper bound is 1, keeping the MILP's big-M coefficients
    well-conditioned however large the raw ``exp(...)`` attractiveness
    values are.
    """
    realised = np.maximum(grid.breakpoints - execution_alpha, 0.0)
    ud_grid = (
        np.outer(game.payoffs.defender_reward, realised)
        + np.outer(game.payoffs.defender_penalty, 1.0 - realised)
    )
    lower_grid = uncertainty.lower_on_grid(realised)
    upper_grid = uncertainty.upper_on_grid(realised)
    if not (np.all(np.isfinite(upper_grid)) and np.all(lower_grid > 0)):
        raise ValueError(
            "uncertainty bounds must be positive and finite on the grid; "
            "extreme model parameters (e.g. SUQR weights fitted at their "
            "bounds) can overflow the exponential attractiveness"
        )
    scale = 1.0 / upper_grid.max()
    return ud_grid, lower_grid * scale, upper_grid * scale


def build_cubis_milp(
    defender_utility_grid: np.ndarray,
    lower_grid: np.ndarray,
    upper_grid: np.ndarray,
    num_resources: float,
    c: float,
    grid: SegmentGrid,
    *,
    equality_resources: bool = False,
    coverage_constraints=None,
) -> CubisMilp:
    """Assemble the MILP (33-40) for candidate utility ``c``.

    One-shot convenience over :class:`CubisMilpSkeleton`; callers that
    sweep many candidates on one game should build the skeleton once and
    :meth:`~CubisMilpSkeleton.patch` per candidate instead.

    Parameters
    ----------
    defender_utility_grid:
        ``U_i^d`` tabulated at the ``K + 1`` breakpoints, shape ``(T, K+1)``.
    lower_grid, upper_grid:
        ``L_i`` / ``U_i`` tabulated at the breakpoints, shape ``(T, K+1)``.
    num_resources:
        The defender's resource budget ``R`` (constraint 37).
    c:
        The candidate utility of this binary-search step.
    grid:
        The :class:`~repro.solvers.piecewise.SegmentGrid` (defines ``K``).
    equality_resources:
        Constrain ``sum x = R`` instead of ``<= R``.  The paper uses the
        inequality (Eq. 37); worst-case utility is monotone in coverage so
        both give the same value, but equality keeps strategies comparable
        across solvers.
    coverage_constraints:
        Optional :class:`~repro.game.constraints.CoverageConstraints`
        ``A x <= b``; each row is lifted onto the segment variables via
        ``x_i = sum_k x_{i,k}`` (an extension beyond the paper's Eq. 37).
    """
    skeleton = CubisMilpSkeleton(
        defender_utility_grid,
        lower_grid,
        upper_grid,
        num_resources,
        grid,
        equality_resources=equality_resources,
        coverage_constraints=coverage_constraints,
    )
    return skeleton.patch(c)
