"""Mixed-integer linear programming: problem container and backends.

The paper solves its per-step MILP (33-40) with CPLEX.  We provide two
interchangeable substitutes behind one interface:

* ``"highs"`` — :func:`scipy.optimize.milp` (the HiGHS branch-and-cut
  engine), the default production backend;
* ``"bnb"`` — :mod:`repro.solvers.bnb`, a from-scratch pure-Python
  branch-and-bound over LP relaxations, included per DESIGN.md's
  substitution rule so the whole pipeline runs without any external solver
  binary and the MILP layer itself is testable code.

Both receive a :class:`MILPProblem` (minimisation form) and return a
:class:`MILPResult`; cross-backend equality is asserted in the test suite.

LP-relaxation screens on the ``"highs"`` backend can instead run through
a :class:`LiveLp`: one HiGHS instance from scipy's private binding
(``scipy.optimize._highspy._core``), kept alive for the screens of one
solve and warm-started from the previous screen's optimal basis.  The
binding and the array form of its ``passModel`` are feature-detected on
first use (:func:`highs_binding`); without them, and for any live solve
that fails, the screen runs through :func:`scipy.optimize.milp`.  LP
screens run with presolve off on both paths: it saves no simplex
iterations here, yet doubles the cost.  MILPs keep the HiGHS defaults.

Importing this module loads no scipy: ``scipy.sparse`` and
``scipy.optimize`` load at the first solve or probe that needs them, so
processes that never solve a MILP or LP (the DP oracle, evaluation, the
CLI's help) never pay for them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro import telemetry

__all__ = [
    "LiveLp", "MILPProblem", "MILPResult", "backend_label", "highs_binding",
    "relax_integrality", "solve_milp",
]


@dataclass
class MILPProblem:
    """``min c @ x`` s.t. ``A_ub x <= b_ub``, ``A_eq x = b_eq``, bounds,
    with ``integrality[j] == 1`` marking integer variables.

    ``A_ub`` / ``A_eq`` may be dense arrays or scipy sparse matrices.
    ``lb`` / ``ub`` are per-variable bound vectors (``+-inf`` allowed).
    """

    c: np.ndarray
    A_ub: object | None = None
    b_ub: np.ndarray | None = None
    A_eq: object | None = None
    b_eq: np.ndarray | None = None
    lb: np.ndarray | None = None
    ub: np.ndarray | None = None
    integrality: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.c = np.asarray(self.c, dtype=np.float64)
        n = len(self.c)
        lb, ub, marks = self.lb, self.ub, self.integrality
        self.lb = np.asarray(np.zeros(n) if lb is None else lb, dtype=np.float64)
        self.ub = np.asarray(np.full(n, np.inf) if ub is None else ub, dtype=np.float64)
        self.integrality = np.asarray(
            np.zeros(n) if marks is None else marks, dtype=np.int64
        )
        for name, arr in (("lb", self.lb), ("ub", self.ub), ("integrality", self.integrality)):
            if arr.shape != (n,):
                raise ValueError(f"{name} must have shape ({n},), got {arr.shape}")
        if np.any(self.lb > self.ub):
            raise ValueError("variable bounds must satisfy lb <= ub")
        for mat, vec, mname in ((self.A_ub, self.b_ub, "A_ub"), (self.A_eq, self.b_eq, "A_eq")):
            if (mat is None) != (vec is None):
                raise ValueError(f"{mname} and its RHS must be given together")
            if mat is not None and mat.shape[1] != n:
                raise ValueError(
                    f"{mname} must have {n} columns, got {mat.shape[1]}"
                )
        if self.b_ub is not None:
            self.b_ub = np.asarray(self.b_ub, dtype=np.float64)
        if self.b_eq is not None:
            self.b_eq = np.asarray(self.b_eq, dtype=np.float64)

    @property
    def num_variables(self) -> int:
        """Number of decision variables."""
        return len(self.c)

    @property
    def num_integer(self) -> int:
        """Number of integer-constrained variables."""
        return int(self.integrality.sum())


@dataclass(frozen=True)
class MILPResult:
    """Outcome of a MILP solve.

    ``status``: ``"optimal"``, ``"infeasible"``, ``"unbounded"`` or
    ``"error"``.  ``x`` / ``objective`` are ``None`` unless optimal.
    ``nodes`` counts branch-and-bound nodes when the backend reports them.
    """

    status: str
    x: np.ndarray | None
    objective: float | None
    nodes: int = 0
    message: str = ""

    @property
    def optimal(self) -> bool:
        """Whether an optimal solution was found."""
        return self.status == "optimal"


def relax_integrality(problem: MILPProblem) -> MILPProblem:
    """The LP relaxation of ``problem`` — identical but with every
    integrality mark dropped.

    The relaxation's optimum bounds the MILP's from below (minimisation
    form), which makes it a sound one-sided screen: callers can reject a
    candidate whenever even the relaxed problem cannot reach the required
    level, and solving an LP costs a fraction of a branch-and-cut run.
    Matrices are shared with the original problem, not copied.
    """
    return MILPProblem(
        c=problem.c,
        A_ub=problem.A_ub,
        b_ub=problem.b_ub,
        A_eq=problem.A_eq,
        b_eq=problem.b_eq,
        lb=problem.lb,
        ub=problem.ub,
        integrality=None,
    )


def backend_label(backend) -> str:
    """A backend's display name: a name as given, else the callable's
    ``__name__`` (its type's name when it has none)."""
    if isinstance(backend, str):
        return backend
    return getattr(backend, "__name__", type(backend).__name__)


def solve_milp(
    problem: MILPProblem,
    *,
    backend="highs",
    warm_start: np.ndarray | None = None,
    live: LiveLp | None = None,
    **backend_options,
) -> MILPResult:
    """Solve a :class:`MILPProblem` with the selected backend.

    ``backend`` is a name (``"highs"`` / ``"bnb"``) or any callable
    ``(problem, **options) -> MILPResult`` — the hook used by the
    resilience layer to interpose fault injectors and custom solvers.

    ``warm_start`` is a candidate solution (a MIP start) from a related
    solve, typically the previous binary-search step's optimum carried
    by a :class:`~repro.solvers.session.MilpSession`.  It is advisory:
    only backends with a MIP-start hook receive it — ``"bnb"`` seeds its
    incumbent after re-validating feasibility; ``scipy.optimize.milp``
    exposes no warm-start parameter, so the ``"highs"`` MILP path (and
    any callable backend) silently drops it.  The optimum is identical
    either way.

    ``live`` is a :class:`LiveLp` owned by the caller.  An LP (no
    integrality marks) on the ``"highs"`` backend is then solved by that
    live HiGHS instance, warm-started from its previous optimal basis;
    if the live solve is unavailable or fails, this call falls back to
    :func:`scipy.optimize.milp` as if ``live`` were not given.  Other
    problems and backends ignore it.

    Every call is traced as a ``milp.solve`` span and observed into the
    ``repro_oracle_seconds`` histogram under an oracle-kind label:
    ``"lp:<backend>"`` when the problem carries no integrality marks
    (the LP-relaxation screen), else ``"milp:<backend>"``.  Screens the
    live LP answers also carry ``warm`` (whether a basis was accepted)
    and ``simplex_iterations`` span attributes.
    """
    label = backend_label(backend)
    if warm_start is not None and backend == "bnb":
        backend_options["incumbent"] = warm_start
    kind = ("lp:" if problem.num_integer == 0 else "milp:") + label
    t0 = time.perf_counter()
    with telemetry.span(
        "milp.solve", kind=kind, variables=problem.num_variables,
        integers=problem.num_integer,
    ) as span:
        result = None
        if live is not None and backend == "highs" and problem.num_integer == 0:
            answered = live.solve(problem)
            if answered is not None:
                result, warm, iterations = answered
                span.set(warm=warm, simplex_iterations=iterations)
        if result is None:
            result = _dispatch(problem, backend, backend_options)
        span.set(status=result.status, nodes=result.nodes)
    telemetry.histogram("repro_oracle_seconds", kind=kind).observe(
        time.perf_counter() - t0
    )
    return result


def _dispatch(problem: MILPProblem, backend, backend_options) -> MILPResult:
    if callable(backend):
        result = backend(problem, **backend_options)
        if not isinstance(result, MILPResult):
            raise TypeError(
                f"callable backend must return a MILPResult, got "
                f"{type(result).__name__}"
            )
        return result
    if backend == "highs":
        return _solve_highs(problem)
    if backend == "bnb":
        from repro.solvers.bnb import solve_bnb

        return solve_bnb(problem, **backend_options)
    raise ValueError(
        f"unknown MILP backend {backend!r}; use 'highs', 'bnb', or a callable"
    )


def milp(*args, **kwargs):
    """:func:`scipy.optimize.milp`, imported on the first call.

    ``_solve_highs`` calls it through this module's global, so a wrapper
    patched over ``milp_backend.milp`` sees every scipy MILP and LP call.
    """
    from scipy.optimize import milp as scipy_milp

    return scipy_milp(*args, **kwargs)


def _solve_highs(problem: MILPProblem) -> MILPResult:
    from scipy.optimize import Bounds, LinearConstraint

    constraints = []
    if problem.A_ub is not None:
        constraints.append(
            LinearConstraint(problem.A_ub, -np.inf, problem.b_ub)
        )
    if problem.A_eq is not None:
        constraints.append(
            LinearConstraint(problem.A_eq, problem.b_eq, problem.b_eq)
        )
    res = milp(
        c=problem.c,
        constraints=constraints or None,
        integrality=problem.integrality,
        bounds=Bounds(problem.lb, problem.ub),
        # LPs run without presolve, as on the live screen; MILPs keep the
        # HiGHS defaults.
        options={"presolve": False} if problem.num_integer == 0 else None,
    )
    if res.status == 0:
        return MILPResult("optimal", np.asarray(res.x), float(res.fun), message=res.message)
    status = {2: "infeasible", 3: "unbounded"}.get(res.status, "error")
    return MILPResult(status, None, None, message=res.message)


class LiveLp:
    """One HiGHS LP kept alive across the LP-relaxation screens of a solve.

    Each :meth:`solve` passes the problem's current arrays to the same
    presolve-free HiGHS instance (``passModel``'s array form), hands it
    the previous optimal basis (``setBasis``) and runs the simplex from
    there.  Consecutive binary-search screens differ only in their
    ``c``-dependent coefficients, so the old basis is a few pivots from
    the new optimum.  A cold solve (the first, or the first after a
    failure) is bit-identical to ``scipy.optimize.milp(..., options=
    {"presolve": False})`` on the same problem; a warm one reaches the
    same optimal value, possibly at another vertex of a degenerate
    optimal face.

    The instance is created on the first solve and lives as long as the
    :class:`LiveLp` does; callers scope one to a single solve.
    """

    def __init__(self) -> None:
        self._highs = None
        self._basis = None

    def solve(self, problem: MILPProblem):
        """``(result, warm, simplex_iterations)`` for an LP, or ``None``
        when the binding is absent or the live solve raised or did not
        reach an optimum; a failure drops the basis, so the next solve
        runs cold."""
        core = highs_binding()
        if core is None:
            return None
        try:
            answered = self._run(problem, core)
        except Exception:
            answered = None
        if answered is None:
            self._basis = None
        return answered

    def _run(self, problem: MILPProblem, core):
        highs = self._highs
        if highs is None:
            highs = self._highs = core._Highs()
            highs.setOptionValue("log_to_console", False)
            highs.setOptionValue("presolve", "off")
        error = core.HighsStatus.kError
        if highs.passModel(*_lp_arrays(problem)) == error:
            return None
        warm = self._basis is not None and highs.setBasis(self._basis) != error
        if highs.run() == error:
            return None
        status = highs.getModelStatus()
        if status != core.HighsModelStatus.kOptimal:
            return None
        info = highs.getInfo()
        result = MILPResult(
            "optimal",
            np.array(highs.getSolution().col_value),
            float(info.objective_function_value),
            message=highs.modelStatusToString(status),
        )
        self._basis = highs.getBasis()
        return result, warm, int(info.simplex_iteration_count)


def _lp_arrays(problem: MILPProblem) -> tuple:
    """``problem`` as the arguments of the array ``passModel``: a
    row-wise minimisation ``lhs <= A x <= rhs`` with every column
    continuous (HiGHS rejects an empty integrality array)."""
    import scipy.sparse as sp

    n = problem.num_variables
    blocks = []
    if problem.A_ub is not None:
        blocks.append((problem.A_ub, np.full(len(problem.b_ub), -np.inf), problem.b_ub))
    if problem.A_eq is not None:
        blocks.append((problem.A_eq, problem.b_eq, problem.b_eq))
    mats, lower, upper = zip(*blocks)
    one_csr = len(mats) == 1 and getattr(mats[0], "format", None) == "csr"
    A = mats[0] if one_csr else sp.vstack([sp.csr_array(m) for m in mats], format="csr")
    # 2 and 1 are HiGHS's kRowwise matrix format and kMinimize sense.
    return (
        n, A.shape[0], A.nnz, 2, 1, 0.0, problem.c, problem.lb, problem.ub,
        np.concatenate(lower), np.concatenate(upper), A.indptr, A.indices,
        A.data, np.zeros(n, dtype=np.int32),
    )


def _array_form(core):
    """``core`` if its ``passModel`` takes the arrays :func:`_lp_arrays`
    builds (some scipy releases lack that overload), else ``None``."""
    import scipy.sparse as sp

    probe = MILPProblem(np.ones(1), A_ub=sp.csr_array(np.ones((1, 1))), b_ub=np.ones(1))
    try:
        highs = core._Highs()
        highs.setOptionValue("log_to_console", False)
        status = highs.passModel(*_lp_arrays(probe))
    except (AttributeError, TypeError):  # no binding API or no such overload
        return None
    return None if status == core.HighsStatus.kError else core


#: Marks :data:`_HIGHS` as not yet probed.
_UNPROBED = object()

#: scipy's private HiGHS binding with the array ``passModel``, ``None``
#: when it is absent, or :data:`_UNPROBED` until :func:`highs_binding`
#: first runs.
_HIGHS = _UNPROBED


def highs_binding():
    """The HiGHS binding live LP screens run on, or ``None``.

    The first call imports ``scipy.optimize`` and probes the binding
    (:func:`_array_form`); later calls return the stored answer.  Two
    threads that race on the first call may both probe, but the probe is
    deterministic, so both store the same answer.
    """
    global _HIGHS
    if _HIGHS is _UNPROBED:
        try:  # scipy's private HiGHS binding, absent on older scipy
            from scipy.optimize._highspy import _core
        except ImportError:
            _HIGHS = None
        else:
            _HIGHS = _array_form(_core)
    return _HIGHS
