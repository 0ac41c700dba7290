"""Structure-sharing batched solving for fleets of games.

The F1/F2 sweeps — and any production workload that re-solves families
of near-identical instances — solve thousands of games that share one
``(T, K, R)`` shape, yet every solve used to assemble its own
:class:`~repro.core.milp.CubisMilpSkeleton` from scratch.  Every
*structural* array in that assembly (sparsity pattern, templates,
bounds, integrality, variable layout) depends only on the shape, never
on the payoffs, so the assembly can be paid **once per shape** and
shared across the whole fleet.  This module provides the two pieces:

:class:`SkeletonShapeCache`
    A bounded LRU of prototype skeletons keyed by shape.  ``lease()``
    returns a :meth:`~repro.core.milp.CubisMilpSkeleton.rebind` view —
    the shared assembly bound to the requesting game's payoff grids —
    and ticks the ``repro_skeleton_shape_hits_total`` /
    ``repro_skeleton_shape_misses_total`` counters.  Activate it for a
    region of code with :func:`use_shape_cache`; ``solve_cubis`` (and
    therefore every sweep cell under ``run_grid(fleet=True)``) consults
    the active cache at its skeleton-build site.  Rebinding is
    bit-identical to a fresh build, so the cache changes only cost,
    never answers.

:func:`solve_fleet`
    The batched solver: a loop of ``solve_cubis`` calls under one shape
    cache, with **δ-continuation** between neighbouring games: each
    solve's final bracket and strategy seed the next solve's binary
    search (as a probed :class:`~repro.core.cubis.WarmStart`).
    Continuation changes which candidates are probed (it is a
    different, cheaper schedule), so it is a *mode*:
    ``continuation=False`` reproduces the independent per-game results
    bit for bit.  Every solve builds its own MILP models inside its
    ``solve_cubis`` call; the shape cache is all the games share.

``oracle="dp"`` fleets run the same per-game loop without continuation:
the grid hull screen leaves each memoised game about one knapsack
kernel run, so there is nothing left to share or batch across games.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np

from repro import telemetry
# Unused here; perfbench's frozen probes still resolve this name on fleet.
from repro.core.dp import maximize_separable_on_grid_batch  # noqa: F401
from repro.obs import progress
from repro.core.milp import CubisMilpSkeleton
from repro.solvers.milp_backend import backend_label
from repro.utils.timing import Timer

__all__ = [
    "FleetResult",
    "SkeletonShapeCache",
    "active_shape_cache",
    "process_shape_cache",
    "solve_fleet",
    "use_shape_cache",
]


class SkeletonShapeCache:
    """Bounded LRU of prototype skeletons, one per MILP shape.

    The key is ``(T, K, R, equality_resources)`` — exactly the inputs
    the structural arrays depend on.  Games with side
    ``coverage_constraints`` are never cached (their structure embeds
    the constraint matrix); callers skip the cache for them.

    ``capacity`` bounds live prototypes; eviction is least-recently
    leased.  Leases are cheap (three shape checks + a shallow copy), so
    the cache is safe to keep process-global across sweeps.
    """

    def __init__(self, capacity: int = 8) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._entries: OrderedDict[tuple, CubisMilpSkeleton] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def lease(
        self,
        defender_utility_grid: np.ndarray,
        lower_grid: np.ndarray,
        upper_grid: np.ndarray,
        num_resources: float,
        grid,
        *,
        equality_resources: bool = False,
    ) -> CubisMilpSkeleton:
        """A skeleton for this game, sharing structure with its shape class.

        On a miss the skeleton is assembled in full, registered as the
        shape's prototype, and returned as-is (the prototype *is* a
        valid skeleton for the game that built it).  On a hit the
        prototype is rebound to the new game's grids — bit-identical to
        a fresh assembly, minus the assembly.
        """
        ud = np.asarray(defender_utility_grid, dtype=np.float64)
        key = (
            ud.shape[0],
            grid.num_segments,
            float(num_resources),
            bool(equality_resources),
        )
        with self._lock:
            proto = self._entries.get(key)
            if proto is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                hit = True
            else:
                self.misses += 1
                hit = False
        if hit:
            telemetry.metrics().counter("repro_skeleton_shape_hits_total").inc()
            return proto.rebind(ud, lower_grid, upper_grid)
        telemetry.metrics().counter("repro_skeleton_shape_misses_total").inc()
        proto = CubisMilpSkeleton(
            ud,
            lower_grid,
            upper_grid,
            num_resources,
            grid,
            equality_resources=equality_resources,
        )
        with self._lock:
            if key not in self._entries:
                self._entries[key] = proto
                self._entries.move_to_end(key)
                while len(self._entries) > self.capacity:
                    self._entries.popitem(last=False)
                    self.evictions += 1
        return proto

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict:
        """JSON-ready counters for manifests and benchmarks."""
        with self._lock:
            return {
                "shapes": len(self._entries),
                "capacity": self.capacity,
                "hits": int(self.hits),
                "misses": int(self.misses),
                "evictions": int(self.evictions),
            }


_active_cache: ContextVar[SkeletonShapeCache | None] = ContextVar(
    "repro_shape_cache", default=None
)

_process_cache: SkeletonShapeCache | None = None
_process_cache_lock = threading.Lock()


def active_shape_cache() -> SkeletonShapeCache | None:
    """The shape cache active in this context, or ``None``.

    ``solve_cubis`` consults this at its skeleton-build site: with a
    cache active (and no side constraints), the skeleton is leased
    instead of assembled.
    """
    return _active_cache.get()


@contextmanager
def use_shape_cache(cache: SkeletonShapeCache | None = None):
    """Activate ``cache`` (or a fresh one) for the enclosed block.

    Yields the active cache.  Context-local, so nested sweeps and
    library callers compose; worker threads spawned inside the block do
    *not* inherit it (contextvars do not cross thread starts), which is
    what keeps skeleton sharing single-threaded by construction.
    """
    if cache is None:
        cache = SkeletonShapeCache()
    token = _active_cache.set(cache)
    try:
        yield cache
    finally:
        _active_cache.reset(token)


def process_shape_cache() -> SkeletonShapeCache:
    """The lazily created process-global cache.

    ``run_grid(fleet=True)`` activates this one around each cell it
    executes — in the serial loop and inside every pool worker process —
    so skeleton sharing survives across cells without shipping cache
    objects (and their live skeletons) through the pool.
    """
    global _process_cache
    with _process_cache_lock:
        if _process_cache is None:
            _process_cache = SkeletonShapeCache()
        return _process_cache


@dataclass(frozen=True)
class FleetResult:
    """Outcome of :func:`solve_fleet`.

    ``results[i]`` is the :class:`~repro.core.cubis.CubisResult` for
    ``games[i]``; the remaining fields describe how the fleet ran.
    """

    results: tuple
    oracle: str
    continuation: bool
    solve_seconds: float
    shape_stats: dict
    #: Always 0: DP fleets no longer run lockstep kernel rounds.  Kept
    #: because perfbench's frozen probes still read it.
    dp_rounds: int = 0

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    def totals(self) -> dict:
        """Summed per-game solve counters, for benchmarks."""
        return {
            "oracle_calls": sum(r.oracle_calls for r in self.results),
            "milp_solves": sum(r.milp_solves for r in self.results),
            "lp_solves": sum(r.lp_solves for r in self.results),
            "cache_hits": sum(r.cache_hits for r in self.results),
        }


def solve_fleet(
    games,
    uncertainties,
    *,
    oracle: str = "milp",
    backend="highs",
    continuation: bool = True,
    cache: SkeletonShapeCache | None = None,
    **solve_options,
) -> FleetResult:
    """Solve a fleet of games through one shared solver substrate.

    Parameters
    ----------
    games, uncertainties:
        Parallel sequences: ``uncertainties[i]`` models ``games[i]``.
    oracle:
        ``"milp"`` (shape cache + continuation) or ``"dp"`` (the games
        solved in order, each exactly as ``solve_cubis(oracle="dp")``).
    backend:
        MILP backend of every solve (``"milp"`` oracle only).
    continuation:
        δ-continuation between neighbouring games: each solve's final
        bracket and strategy seed the next solve's
        :class:`~repro.core.cubis.WarmStart`.  Everything carried is
        *probed, never trusted* (stale seeds cost at most two extra
        oracle calls), but the probe schedule differs from an
        independent solve, so turn this off when per-game
        results must match ``solve_cubis`` bit for bit.  Ignored by the
        ``"dp"`` oracle, whose games carry nothing between them and so
        stay bit-identical to independent ``solve_cubis`` calls.
    cache:
        The :class:`SkeletonShapeCache` every game leases its skeleton
        from, one assembly per shape (default: a fresh one, whose stats
        land in the result).  Leasing is bit-identical to fresh per-game
        builds — property-tested — so it changes only cost.
    **solve_options:
        Forwarded to every :func:`~repro.core.cubis.solve_cubis` call
        (``num_segments``, ``epsilon``, ``memoise``, …).  ``session``,
        ``warm_start`` and ``oracle`` are owned by the fleet driver and
        must not be passed.

    Returns
    -------
    FleetResult
        Per-game results in input order plus fleet-level statistics.
    """
    from repro.core.cubis import solve_cubis  # local: cubis consults us

    games = list(games)
    uncertainties = list(uncertainties)
    if len(games) != len(uncertainties):
        raise ValueError(
            f"got {len(games)} games but {len(uncertainties)} uncertainty models"
        )
    if oracle not in ("milp", "dp"):
        raise ValueError(f"oracle must be 'milp' or 'dp', got {oracle!r}")
    for owned in ("session", "warm_start", "oracle"):
        if owned in solve_options:
            raise TypeError(
                f"solve_fleet() owns the {owned!r} argument; configure the "
                "fleet through continuation=/oracle= instead"
            )
    if cache is None:
        cache = SkeletonShapeCache()

    timer = Timer()
    with telemetry.span(
        "fleet.solve",
        games=len(games),
        oracle=oracle,
        backend=backend_label(backend),
        continuation=bool(continuation),
    ) as span, timer:
        progress.publish(
            "fleet",
            total=len(games), done=0, oracle=oracle,
            continuation=bool(continuation),
            shape_hits=0, shape_misses=0, shape_hit_rate=None,
        )
        carries = continuation and oracle == "milp"
        results = []
        carry = None
        for game, uncertainty in zip(games, uncertainties):
            with use_shape_cache(cache):
                result = solve_cubis(
                    game,
                    uncertainty,
                    oracle=oracle,
                    backend=backend,
                    warm_start=carry,
                    **solve_options,
                )
            results.append(result)
            if carries:
                carry = result.as_warm_start()
            stats = cache.stats()
            leases = stats["hits"] + stats["misses"]
            progress.bump(
                "fleet", 1,
                shape_hits=stats["hits"],
                shape_misses=stats["misses"],
                shape_hit_rate=(
                    round(stats["hits"] / leases, 4) if leases else None
                ),
                continuation_carried=max(0, len(results) - 1) if carries else 0,
                oracle_calls=sum(r.oracle_calls for r in results),
            )
        span.set(
            shape_hits=cache.stats()["hits"],
            shape_misses=cache.stats()["misses"],
        )
    return FleetResult(
        results=tuple(results),
        oracle=oracle,
        continuation=bool(continuation),
        solve_seconds=timer.elapsed,
        shape_stats=cache.stats(),
    )

