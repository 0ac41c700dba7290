"""Structure-sharing batched solving for fleets of games.

The F1/F2 sweeps — and any production workload that re-solves families
of near-identical instances — solve thousands of games that share one
``(T, K, R)`` shape, yet every solve used to assemble its own
:class:`~repro.core.milp.CubisMilpSkeleton` from scratch.  Every
*structural* array in that assembly (sparsity pattern, templates,
bounds, integrality, variable layout) depends only on the shape, never
on the payoffs, so the assembly can be paid **once per shape** and
shared across the whole fleet.  This module provides the three pieces:

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
    The batched driver: one :class:`~repro.solvers.session.MilpSession`
    is *leased* across the whole fleet — each game retargets it
    (:meth:`~repro.solvers.session.MilpSession.retarget`) and enters the
    live model through one cross-game
    :meth:`~repro.core.milp.CubisMilpSkeleton.diff_from` patch — with
    **δ-continuation** between neighbouring games: each solve's final
    bracket and strategy seed the next solve's binary search (as a
    probed :class:`~repro.core.cubis.WarmStart`) and its first MIP
    start (``carry_incumbent=True``).  Continuation changes which
    candidates are probed (it is a different, cheaper schedule), so it
    is a *mode*: ``continuation=False`` reproduces the independent
    per-game results bit for bit.

:class:`DpBatcher`
    For ``oracle="dp"`` fleets: games run in lockstep (one thread per
    game) and each knapsack kernel run lands in
    :func:`~repro.core.dp.maximize_separable_on_grid_batch` as one
    stacked sliding-window max-plus correlation over every game that
    reached its next run — ``G`` small kernel launches collapse into
    one large one, and the batched kernel is bit-identical per game to
    the scalar one.  The grid hull screen decides most steps without
    the kernel, so a memoised game usually submits a single run, its
    final re-solve.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np

from repro import telemetry
from repro.core.dp import maximize_separable_on_grid_batch
from repro.obs import progress
from repro.core.milp import CubisMilpSkeleton
from repro.solvers.session import MilpSession
from repro.utils.timing import Timer

__all__ = [
    "DpBatcher",
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


class DpBatcher:
    """Lockstep batcher for the DP oracle across a fleet of games.

    Each of ``num_participants`` game threads calls its
    :meth:`participant` kernel once per kernel run (a step the grid
    hull screen left open, or the final re-solve).  A *round*
    fires when every still-active participant has a pending submission:
    the submissions are grouped by ``(phi shape, budget)`` and each
    group runs as one
    :func:`~repro.core.dp.maximize_separable_on_grid_batch` call, whose
    per-item results are bit-identical to the scalar kernel — so the
    fleet's answers never depend on which games happened to share a
    round.  Participants that finish early :meth:`retire`, shrinking
    the quorum instead of deadlocking it.
    """

    def __init__(self, num_participants: int) -> None:
        if num_participants < 1:
            raise ValueError(
                f"num_participants must be >= 1, got {num_participants}"
            )
        self._cond = threading.Condition()
        self._active: set[int] = set(range(num_participants))
        self._pending: dict[int, tuple[np.ndarray, int]] = {}
        self._results: dict[int, object] = {}
        self._failure: BaseException | None = None
        self.rounds = 0
        self.batched_calls = 0
        #: Per-round stats (items, groups, wall/cpu seconds), appended as
        #: each round fires.  Rounds run on whichever participant thread
        #: completed the quorum — where tracing is off — so the caller
        #: re-emits these as ``fleet.dp_round`` events after the join
        #: (deterministically: round composition depends only on each
        #: game's step count, never on thread scheduling).
        self.round_log: list[dict] = []

    def participant(self, pid: int):
        """The kernel callable for participant ``pid`` (pass as
        ``solve_cubis(dp_kernel=...)``)."""

        def kernel(phi_grid, budget_units: int):
            return self._exchange(pid, phi_grid, budget_units)

        return kernel

    def retire(self, pid: int) -> None:
        """Mark ``pid`` done (idempotent); may complete a waiting round."""
        with self._cond:
            self._active.discard(pid)
            self._pending.pop(pid, None)
            self._maybe_run_round()
            self._cond.notify_all()

    def _exchange(self, pid: int, phi_grid, budget_units: int):
        with self._cond:
            if pid not in self._active:
                raise RuntimeError(f"participant {pid} already retired")
            self._pending[pid] = (
                np.asarray(phi_grid, dtype=np.float64),
                int(budget_units),
            )
            self._maybe_run_round()
            self._cond.notify_all()
            while pid not in self._results and self._failure is None:
                self._cond.wait()
            if pid in self._results:
                return self._results.pop(pid)
            raise RuntimeError(
                "fleet DP batch failed in another participant"
            ) from self._failure

    def _maybe_run_round(self) -> None:
        # Called with the lock held.  The batched kernel itself runs
        # under the lock: every waiter is blocked on this round anyway,
        # so there is no concurrency to lose, and holding it keeps the
        # pending/results bookkeeping trivially consistent.
        if not self._active or len(self._pending) != len(self._active):
            return
        try:
            wall0 = time.perf_counter()
            cpu0 = time.process_time_ns()
            items = len(self._pending)
            groups: dict[tuple, list[int]] = {}
            for pid in sorted(self._pending):
                phi, budget = self._pending[pid]
                groups.setdefault((phi.shape, budget), []).append(pid)
            for (shape, budget), pids in groups.items():
                stacked = np.stack([self._pending[p][0] for p in pids])
                allocations = maximize_separable_on_grid_batch(stacked, budget)
                self.batched_calls += 1
                for p, allocation in zip(pids, allocations):
                    self._results[p] = allocation
            self._pending.clear()
            self.rounds += 1
            self.round_log.append({
                "round": self.rounds,
                "items": items,
                "groups": len(groups),
                "wall": time.perf_counter() - wall0,
                "cpu": (time.process_time_ns() - cpu0) / 1e9,
            })
            progress.publish("fleet", dp_rounds=self.rounds)
        except BaseException as exc:  # propagate to every waiter
            self._failure = exc
            # Wake the blocked participants *before* re-raising: the
            # raise unwinds past the caller's own notify_all, and a
            # failure nobody is woken for is a deadlock.
            self._cond.notify_all()
            raise


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
    session_stats: dict | None
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
            "session_patches": sum(r.session_patches for r in self.results),
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
        ``"milp"`` (leased session + shape cache) or ``"dp"`` (lockstep
        :class:`DpBatcher` over the batched kernel).
    backend:
        MILP backend for the leased session (``"milp"`` oracle only).
    continuation:
        δ-continuation between neighbouring games: each solve's final
        bracket and strategy seed the next solve's
        :class:`~repro.core.cubis.WarmStart`, and the leased session
        carries its incumbent across the game boundary as a MIP start.
        Everything carried is *probed, never trusted* (stale seeds cost
        at most two extra oracle calls), but the probe schedule differs
        from an independent solve, so turn this off when per-game
        results must match ``solve_cubis`` bit for bit.  Ignored by the
        ``"dp"`` oracle (lockstep games have no solve order to chain).
    cache:
        The :class:`SkeletonShapeCache` every game leases its skeleton
        from, one assembly per shape (default: a fresh one, whose stats
        land in the result).  Leasing is bit-identical to fresh per-game
        builds — property-tested — so it changes only cost.
    **solve_options:
        Forwarded to every :func:`~repro.core.cubis.solve_cubis` call
        (``num_segments``, ``epsilon``, ``memoise``, …).  ``session``,
        ``warm_start``, ``oracle`` and ``dp_kernel`` are owned by the
        fleet driver and must not be passed.

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
    for owned in ("session", "warm_start", "dp_kernel", "oracle"):
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
        backend=backend if isinstance(backend, str)
        else getattr(backend, "__name__", type(backend).__name__),
        continuation=bool(continuation),
    ) as span, timer:
        progress.publish(
            "fleet",
            total=len(games), done=0, oracle=oracle,
            continuation=bool(continuation),
            shape_hits=0, shape_misses=0, shape_hit_rate=None,
        )
        if oracle == "dp":
            results, dp_rounds = _solve_fleet_dp(
                solve_cubis, games, uncertainties, solve_options
            )
            session = None
        else:
            dp_rounds = 0
            # A leased session needs the memoised pipeline; resilience
            # ladders and memoise=False fleets solve game by game.
            session = (
                MilpSession(
                    None, backend=backend, carry_incumbent=bool(continuation)
                )
                if solve_options.get("resilience") is None
                and solve_options.get("memoise", True)
                else None
            )
            results = []
            carry = None
            for game, uncertainty in zip(games, uncertainties):
                with use_shape_cache(cache):
                    result = solve_cubis(
                        game,
                        uncertainty,
                        oracle="milp",
                        backend=backend,
                        session=session,
                        warm_start=carry,
                        **solve_options,
                    )
                results.append(result)
                if continuation:
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
                    continuation_carried=(
                        max(0, len(results) - 1) if continuation else 0
                    ),
                    oracle_calls=sum(r.oracle_calls for r in results),
                )
        span.set(
            shape_hits=cache.stats()["hits"],
            shape_misses=cache.stats()["misses"],
            dp_rounds=dp_rounds,
        )
    return FleetResult(
        results=tuple(results),
        oracle=oracle,
        continuation=bool(continuation),
        solve_seconds=timer.elapsed,
        shape_stats=cache.stats(),
        session_stats=session.stats() if session is not None else None,
        dp_rounds=dp_rounds,
    )


def _solve_fleet_dp(solve_cubis, games, uncertainties, solve_options):
    """Lockstep DP fleet: one thread per game, kernels batched per round.

    Each game thread runs under its own fresh ``Telemetry`` (tracing
    off — the tracer is not thread-safe); the exports are absorbed into
    the caller's context in game order after the join, so counters and
    histograms are deterministic and span streams never interleave.
    Results are bit-identical to sequential per-game solves: the
    batched kernel matches the scalar one per item, and no state is
    shared between games.
    """
    batcher = DpBatcher(len(games))
    contexts = [telemetry.Telemetry(enabled=False) for _ in games]
    results: list = [None] * len(games)
    errors: list = [None] * len(games)

    def worker(i: int) -> None:
        try:
            with telemetry.use(contexts[i]):
                results[i] = solve_cubis(
                    games[i],
                    uncertainties[i],
                    oracle="dp",
                    dp_kernel=batcher.participant(i),
                    **solve_options,
                )
        except BaseException as exc:  # noqa: BLE001 — re-raised in order below
            errors[i] = exc
        finally:
            batcher.retire(i)
            progress.bump("fleet", 1)

    threads = [
        threading.Thread(
            target=worker, args=(i,), name=f"repro-fleet-dp-{i}", daemon=True
        )
        for i in range(len(games))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    parent = telemetry.current()
    for context in contexts:
        parent.absorb(context.export())
    # Re-emit the batcher's round log as events *here*, on the caller
    # thread where tracing is live.  Round composition (items, groups)
    # is a pure function of each game's step count, so these events are
    # identical across thread schedules and worker counts; wall/cpu are
    # float attributes, excluded from span signatures by construction.
    for entry in batcher.round_log:
        parent.event(
            "fleet.dp_round",
            round=entry["round"], items=entry["items"],
            groups=entry["groups"], wall=entry["wall"], cpu=entry["cpu"],
        )
    for error in errors:
        if error is not None:
            raise error
    return results, batcher.rounds
