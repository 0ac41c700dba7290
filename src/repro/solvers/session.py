"""An incremental CUBIS MILP session that no solve path uses.

:class:`MilpSession` keeps **one live model** across binary-search
candidates: the first :meth:`~MilpSession.prepare` builds it via
:meth:`~repro.core.milp.CubisMilpSkeleton.patch`, every later candidate
applies the sparse :class:`~repro.core.milp.SkeletonPatch` from
:meth:`~repro.core.milp.CubisMilpSkeleton.diff` *in place*, through the
skeleton's ``entry_data_slots`` permutation.  Patched and freshly built
models are bit-identical (property-tested).

No solve path creates a session: every CUBIS step builds its model with
``skeleton.patch(c)`` (:func:`~repro.core.cubis.solve_cubis`), which is
cheaper than a sparse in-place patch at T=50-200.  The class
stays only because perfbench's probes (``perfbench/tracing.py``,
``install_probes``) resolve ``MilpSession.prepare``, ``solve`` and
``retarget`` and this module's ``solve_milp`` by name; it goes when
those probes stop naming it.
"""

from __future__ import annotations

from repro import telemetry
from repro.solvers.milp_backend import MILPResult, solve_milp

__all__ = ["MilpSession"]


class MilpSession:
    """One live CUBIS MILP, re-coefficiented in place per candidate.

    Parameters
    ----------
    skeleton:
        The :class:`~repro.core.milp.CubisMilpSkeleton` of the game.
    backend:
        MILP backend name or callable, forwarded to
        :func:`~repro.solvers.milp_backend.solve_milp`.

    Attributes
    ----------
    fresh_builds, patches_applied, solves:
        Lifetime counters: full template builds, in-place sparse
        patches, and backend solves performed through this session.
    fallbacks:
        Times the owning caller reported a failed solve via
        :meth:`invalidate` after at least one successful prepare.
    """

    def __init__(self, skeleton, *, backend="highs") -> None:
        self.skeleton = skeleton
        self.backend = backend
        self._model = None
        self._c: float | None = None
        self._incumbent = None
        self.fresh_builds = 0
        self.patches_applied = 0
        self.solves = 0
        self.fallbacks = 0
        self.last_patch_updates: int | None = None

    @property
    def live(self) -> bool:
        """Whether a model is currently held (next prepare patches it)."""
        return self._model is not None

    @property
    def model(self):
        """The currently prepared :class:`~repro.core.milp.CubisMilp`."""
        return self._model

    def invalidate(self) -> None:
        """Drop the live model (and incumbent); the next
        :meth:`prepare` rebuilds from the skeleton templates.  Callers
        invoke this after a backend failure so a possibly-corrupted
        in-place state cannot carry into later steps."""
        if self._model is not None:
            self.fallbacks += 1
        self._model = None
        self._c = None
        self._incumbent = None

    # Unused here; perfbench's frozen probes still resolve this name.
    def retarget(self, skeleton) -> None:
        """Point the session at ``skeleton`` and drop its live model and
        incumbent, so the next :meth:`prepare` is a fresh build."""
        self.skeleton = skeleton
        self._model = None
        self._c = None
        self._incumbent = None

    def prepare(self, c: float):
        """Point the live model at candidate ``c`` and return it.

        First call (or first after :meth:`invalidate`): a full
        :meth:`~repro.core.milp.CubisMilpSkeleton.patch` build.  Later
        calls apply the sparse diff in place — the CSR structure, bound
        and integrality arrays are reused, only changed values are
        written.  Each call is traced as a ``milp.patch`` span carrying
        the candidate and the write count (no-op span off the telemetry
        thread).
        """
        c = float(c)
        with telemetry.span("milp.patch", c=c, live=self.live) as span:
            if self._model is None:
                model = self.skeleton.patch(c)
                self.fresh_builds += 1
                self.last_patch_updates = None
                span.set(mode="fresh-build")
            elif c == self._c:
                model = self._model
                self.last_patch_updates = 0
                span.set(mode="noop", updates=0)
            else:
                patch = self.skeleton.diff(self._c, c)
                problem = self._model.problem
                slots = self.skeleton.entry_data_slots
                problem.A_ub.data[slots[patch.vals_index]] = patch.vals
                problem.b_ub[patch.rhs_index] = patch.rhs
                problem.c[patch.cost_index] = patch.cost
                problem.ub[patch.ub_index] = patch.ub
                model = type(self._model)(
                    problem=problem,
                    layout=self._model.layout,
                    grid=self._model.grid,
                    f1_constant=patch.f1_constant,
                    c=c,
                )
                self.patches_applied += 1
                self.last_patch_updates = patch.num_updates
                span.set(mode="patch", updates=patch.num_updates)
        self._model = model
        self._c = c
        return model

    def solve(self, **backend_options) -> MILPResult:
        """Solve the currently prepared model with the session backend.

        The previous step's optimum rides along as ``warm_start`` (the
        backend decides whether it can use it); an optimal result
        becomes the next incumbent.
        """
        if self._model is None:
            raise RuntimeError("MilpSession.solve() requires a prepared model; "
                               "call prepare(c) first")
        if self._incumbent is not None:
            backend_options.setdefault("warm_start", self._incumbent)
        result = solve_milp(
            self._model.problem, backend=self.backend, **backend_options
        )
        self.solves += 1
        if result.optimal:
            self._incumbent = result.x
        return result
