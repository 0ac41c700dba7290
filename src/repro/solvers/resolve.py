"""Incremental re-solve after interval drift — the online hot path.

The paper computes one robust strategy for fixed ``[L_i, U_i]``; in
deployment the intervals *move* — PAC estimation tightens them as attack
data arrives (:func:`repro.behavior.fitting.estimate_intervals`), a
model refresh occasionally widens them — and the defender re-solves
with the previous answer as a hint.  This module keeps a **standing
solve** per instance:

:func:`start_resolve`
    Performs the initial cold solve and returns a :class:`ResolveHandle`
    holding the game, the pinned solve options, the current result and
    the raw (unscaled) interval grids used to classify the next drift.
    Like every memoised solve, each one leases its skeleton from the
    process-wide :class:`~repro.solvers.fleet.SkeletonShapeCache`, so a
    re-entry pays no structure assembly.

:func:`resolve`
    Drift classification plus one warm-started
    :func:`~repro.core.cubis.solve_cubis`.  When :func:`classify_drift`
    reports a pure shrink (``L`` rose and ``U`` fell pointwise on the
    breakpoint grid), the exact robust value is monotone non-decreasing
    — the adversary's feasible set only lost points — so the prior
    solve's ``[lb, ub]`` seeds the new search and the prior optimum
    joins the certificate pool.  The bracket is *probed, never trusted*
    (``binary_search_max``'s ``initial_guesses`` contract): the
    certificate re-validation usually confirms the prior level without
    any MILP solve, and once that level (or a feasible probe of the
    prior upper end) passes the bracket the search gallops up from it
    instead of bisecting the whole utility range (docs/ONLINE.md).  Any widening falls back to the full utility-range
    bracket; the prior strategy still rides along (screened, so it can
    never corrupt the result).  Each solve builds its own MILP models
    inside its ``solve_cubis`` call.

Every resolve emits a ``resolve.solve`` telemetry span and ticks
``repro_resolve_solves_total`` plus the two engine counters
``repro_resolve_warm_hits_total`` (the re-validated prior certificate
answered at least one oracle step with no solver call) and
``repro_resolve_bracket_reuses_total`` (a shrink let the prior bracket
seed the search).

**On the monotonicity predicate.**  For the *exact* robust objective,
shrink-monotonicity is immediate: at any fixed strategy ``x`` the
worst case is an infimum over attractiveness curves inside the bands,
and a shrink only removes curves, so the infimum — and hence the
maximin value — cannot decrease.  The *piecewise approximant* the MILP
optimises inherits this at every breakpoint (each tabulated
``min(L·(U^d-c), U·(U^d-c))`` is non-decreasing under ``L↑, U↓``) but
not always between them: on a segment where ``U^d - c`` changes sign,
interpolating ``f^1`` and ``f^2`` separately can let the approximant
dip by ``O(span/K)`` even though the exact objective rose.  That is
exactly why the warm bracket is probed through the oracle instead of
asserted: soundness never depends on approximant monotonicity, only
the expected probe count does.  ``resolve`` returns exactly what
:func:`~repro.core.cubis.solve_cubis` returns given the same warm hints
on the same post-drift intervals (property-tested bit for bit), for
every drift direction.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from repro import telemetry
from repro.behavior.interval import UncertaintyModel
from repro.core.cubis import CubisResult, WarmStart, solve_cubis
from repro.game.ssg import IntervalSecurityGame
from repro.solvers.piecewise import SegmentGrid

__all__ = [
    "DriftReport",
    "ResolveHandle",
    "ResolveOutcome",
    "classify_drift",
    "resolve",
    "start_resolve",
]


@dataclass(frozen=True)
class DriftReport:
    """How the interval bands moved on the breakpoint grid.

    Attributes
    ----------
    kind:
        ``"none"`` — bitwise-identical grids; ``"shrink"`` — ``L`` rose
        and ``U`` fell pointwise (at least one strictly); ``"widen"`` —
        the opposite inclusion; ``"mixed"`` — neither band nests inside
        the other.
    changed_targets:
        Targets whose lower or upper curve moved at any breakpoint.
    max_rel_change:
        Largest ``|Δ| / |old|`` over both grids — the drift magnitude.
    """

    kind: str
    changed_targets: int
    max_rel_change: float

    @property
    def bracket_reusable(self) -> bool:
        """Whether the prior ``[lb, ub]`` may seed the next search.

        True for ``"none"`` and ``"shrink"`` — the exact robust value
        is monotone non-decreasing, so the prior lower bound remains an
        excellent (probed) guess.  Widening or mixed drift must fall
        back to the full bracket: a stale lower bound from a larger
        feasible set could cost wasted probes and is never offered.
        """
        return self.kind in ("none", "shrink")


def classify_drift(
    old_lower: np.ndarray,
    old_upper: np.ndarray,
    new_lower: np.ndarray,
    new_upper: np.ndarray,
) -> DriftReport:
    """Classify an interval drift from the raw tabulated band grids.

    All four arrays are ``(T, K+1)`` tabulations of the *unscaled*
    bounds at the realised breakpoints (``solve_cubis`` rescales its
    grids per solve; classification must happen before that, on
    comparable values).  Comparison is pointwise and exact — drift
    classification feeds a probed warm start, so there is no tolerance
    to tune: a misclassification costs probes, never correctness.
    """
    ol = np.asarray(old_lower, dtype=np.float64)
    ou = np.asarray(old_upper, dtype=np.float64)
    nl = np.asarray(new_lower, dtype=np.float64)
    nu = np.asarray(new_upper, dtype=np.float64)
    if not (ol.shape == ou.shape == nl.shape == nu.shape):
        raise ValueError(
            f"drift grids must share one shape, got {ol.shape}/{ou.shape}"
            f"/{nl.shape}/{nu.shape}"
        )
    lower_moved = nl != ol
    upper_moved = nu != ou
    moved = lower_moved | upper_moved
    if not moved.any():
        return DriftReport(kind="none", changed_targets=0, max_rel_change=0.0)
    if np.all(nl >= ol) and np.all(nu <= ou):
        kind = "shrink"
    elif np.all(nl <= ol) and np.all(nu >= ou):
        kind = "widen"
    else:
        kind = "mixed"
    denom_l = np.maximum(np.abs(ol), np.finfo(np.float64).tiny)
    denom_u = np.maximum(np.abs(ou), np.finfo(np.float64).tiny)
    max_rel = float(max(
        (np.abs(nl - ol) / denom_l).max(),
        (np.abs(nu - ou) / denom_u).max(),
    ))
    return DriftReport(
        kind=kind,
        changed_targets=int(moved.any(axis=1).sum()),
        max_rel_change=max_rel,
    )


@dataclass(frozen=True)
class ResolveOutcome:
    """One :func:`resolve` step's result plus its re-entry accounting.

    ``result`` is the full :class:`~repro.core.cubis.CubisResult` for
    the post-drift instance — identical (bit for bit) to what
    ``solve_cubis`` returns for the same intervals and the same
    ``warm_start``.  The remaining fields say what the re-entry did:
    ``warm_start`` is the exact hint set handed to the search
    (reproducibility anchor for the identity property),
    ``bracket_reused`` whether the prior ``[lb, ub]`` seeded it, and
    ``warm_hit`` whether a re-validated certificate answered at least
    one oracle step with no solver call.
    """

    result: CubisResult
    drift: DriftReport
    warm_start: WarmStart
    bracket_reused: bool
    warm_hit: bool
    prior_lower_bound: float
    prior_upper_bound: float


class ResolveHandle:
    """A standing CUBIS solve that drifted intervals re-enter.

    Created by :func:`start_resolve`; advanced by :func:`resolve`.  A
    ``threading.Lock`` serialises re-solves — the service keeps one
    handle per (tenant, instance) and may route concurrent drifts at it.

    Attributes
    ----------
    game, uncertainty, result:
        The standing instance and its current solution (``uncertainty``
        and ``result`` advance on every :func:`resolve`).
    resolves, warm_hits, bracket_reuses:
        Lifetime counters across every re-solve through this handle.
    """

    def __init__(
        self,
        game: IntervalSecurityGame,
        uncertainty: UncertaintyModel,
        result: CubisResult,
        options: dict,
    ) -> None:
        self.game = game
        self.uncertainty = uncertainty
        self.result = result
        self.options = dict(options)
        self._lower, self._upper = self.raw_grids(uncertainty)
        self._lock = threading.Lock()
        self.resolves = 0
        self.warm_hits = 0
        self.bracket_reuses = 0

    def raw_grids(
        self, uncertainty: UncertaintyModel
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(L, U)`` tabulated at this handle's realised breakpoints,
        *unscaled* — the grids :func:`classify_drift` compares."""
        grid = SegmentGrid(int(self.options["num_segments"]))
        realised = np.maximum(
            grid.breakpoints - float(self.options.get("execution_alpha", 0.0)),
            0.0,
        )
        return (
            uncertainty.lower_on_grid(realised),
            uncertainty.upper_on_grid(realised),
        )

    def stats(self) -> dict:
        """JSON-ready lifetime counters for manifests and the service."""
        return {
            "resolves": int(self.resolves),
            "warm_hits": int(self.warm_hits),
            "bracket_reuses": int(self.bracket_reuses),
        }


#: solve_cubis keywords a standing solve accepts.  coverage_constraints
#: is deliberately absent: constrained games embed their matrix in the
#: MILP structure and cannot lease rebind siblings from a shape cache.
_RESOLVE_OPTIONS = (
    "num_segments",
    "epsilon",
    "backend",
    "equality_resources",
    "execution_alpha",
    "feasibility_tolerance",
    "max_iterations",
    "speculation",
)


def start_resolve(
    game: IntervalSecurityGame,
    uncertainty: UncertaintyModel,
    *,
    warm_start: WarmStart | None = None,
    **options,
) -> ResolveHandle:
    """Cold-solve ``(game, uncertainty)`` and open a standing solve.

    ``options`` are the :func:`~repro.core.cubis.solve_cubis` accuracy
    and backend knobs (``num_segments``, ``epsilon``, ``backend``,
    ``equality_resources``, ``execution_alpha``,
    ``feasibility_tolerance``, ``max_iterations``, ``speculation``);
    they are pinned into the handle so every later :func:`resolve`
    re-enters the *same* problem family.  ``coverage_constraints`` are
    not supported — side constraints embed their matrix in the MILP
    structure, which the standing skeleton lease cannot share.

    The initial solve leases its skeleton from the process-wide shape
    cache, so the first drift pays no structure assembly.
    """
    unknown = set(options) - set(_RESOLVE_OPTIONS)
    if unknown:
        raise ValueError(
            f"unsupported standing-solve options {sorted(unknown)}; "
            f"choose from {sorted(_RESOLVE_OPTIONS)}"
        )
    options.setdefault("num_segments", 10)
    options.setdefault("epsilon", 1e-3)
    options.setdefault("backend", "highs")
    result = solve_cubis(game, uncertainty, warm_start=warm_start, **options)
    return ResolveHandle(game, uncertainty, result, options)


def resolve(
    handle: ResolveHandle, uncertainty: UncertaintyModel
) -> ResolveOutcome:
    """Re-solve the handle's game under drifted ``uncertainty``.

    Classifies the drift against the standing intervals, assembles the
    warm start (prior bracket on shrink, prior strategy always), and
    runs ``solve_cubis(handle.game, uncertainty, warm_start=warm,
    **handle.options)``.  The handle's ``uncertainty``/``result``
    advance to the new solution; the returned :class:`ResolveOutcome`
    carries the full result plus the re-entry accounting.

    Correctness never leans on the warm start: every hint is probed or
    screened by ``solve_cubis``, so the answer is exactly what that
    solve with the same hints returns, bit for bit.
    """
    with handle._lock:
        new_lower, new_upper = handle.raw_grids(uncertainty)
        drift = classify_drift(handle._lower, handle._upper,
                               new_lower, new_upper)
        prior = handle.result
        if drift.bracket_reusable:
            warm = WarmStart(
                bracket=(float(prior.lower_bound), float(prior.upper_bound)),
                strategies=(prior.strategy,),
            )
        else:
            # Widening (or mixed) drift: the prior lower bound is stale
            # — the feasible set may have shrunk below it — so only the
            # screened prior strategy rides along.
            warm = WarmStart(bracket=None, strategies=(prior.strategy,))
        meter = telemetry.metrics()
        with telemetry.span(
            "resolve.solve",
            targets=int(handle.game.num_targets),
            drift=drift.kind,
            changed_targets=int(drift.changed_targets),
            bracket_reused=bool(drift.bracket_reusable),
        ) as span:
            result = solve_cubis(
                handle.game,
                uncertainty,
                warm_start=warm,
                **handle.options,
            )
            warm_hit = result.cache_hits > 0
            span.set(
                warm_hit=bool(warm_hit),
                milp_solves=int(result.milp_solves),
                lp_solves=int(result.lp_solves),
                cache_hits=int(result.cache_hits),
                guess_probes=int(result.guess_probes),
                worst_case_value=float(result.worst_case_value),
            )
        meter.counter("repro_resolve_solves_total").inc()
        if warm_hit:
            meter.counter("repro_resolve_warm_hits_total").inc()
        if drift.bracket_reusable:
            meter.counter("repro_resolve_bracket_reuses_total").inc()

        handle.uncertainty = uncertainty
        handle.result = result
        handle._lower, handle._upper = new_lower, new_upper
        handle.resolves += 1
        handle.warm_hits += int(warm_hit)
        handle.bracket_reuses += int(drift.bracket_reusable)
        return ResolveOutcome(
            result=result,
            drift=drift,
            warm_start=warm,
            bracket_reused=drift.bracket_reusable,
            warm_hit=warm_hit,
            prior_lower_bound=float(prior.lower_bound),
            prior_upper_bound=float(prior.upper_bound),
        )
