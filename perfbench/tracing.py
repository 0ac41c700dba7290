"""In-memory span tracing of the program's layers, installed from outside.

The program under test is not modified.  :func:`install_probes` replaces
public functions and methods of each layer *where the caller looks them
up* (for example ``repro.core.cubis.solve_milp`` and
``repro.solvers.session.solve_milp``) with thin wrappers that record a
span around the original call, plus a few counters taken from the
returned values.  :meth:`Tracer.uninstall` puts every original back.

Spans live in memory (name, layer, start, end, parent, thread, request
id) and are written out once the run ends.  Self time is attributed by a
sweep over the workload's root span: every instant goes to the deepest
span open at that instant (ties go to the earliest start), so on one
thread a span's self time is its duration minus the time its children
cover, and across threads the per-span self times add up to the root's
wall time exactly.
"""

from __future__ import annotations

import functools
import heapq
import json
import threading
import time
from collections import defaultdict

_MISSING = object()


class Span:
    __slots__ = ("id", "name", "layer", "start", "end", "parent", "depth",
                 "thread", "request")

    def as_dict(self) -> dict:
        return {
            "id": self.id, "name": self.name, "layer": self.layer,
            "start": self.start, "end": self.end,
            "parent": None if self.parent is None else self.parent.id,
            "thread": self.thread, "request": self.request,
        }


class Tracer:
    """Span recorder plus the counters and samples the probes collect."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list] = defaultdict(list)
        #: request id -> timestamps taken by the service probes.
        self.enqueued: dict[str, float] = {}
        self.solve_end: dict[str, float] = {}
        self.resolved: dict[str, float] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._stacks: dict[int, list] = {}
        self._main = threading.get_ident()
        self._patches: list[tuple] = []

    # -- span stack ---------------------------------------------------- #

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            with self._lock:
                self._stacks[threading.get_ident()] = stack
        return stack

    def begin(self, name: str, layer: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else self._foreign_parent()
        span = Span()
        span.name, span.layer, span.parent = name, layer, parent
        span.depth = parent.depth + 1 if parent is not None else 0
        span.thread = threading.current_thread().name
        span.request = getattr(self._local, "request", None) or (
            parent.request if parent is not None else None
        )
        span.end = None
        with self._lock:
            span.id = len(self.spans)
            self.spans.append(span)
        stack.append(span)
        span.start = self.clock()
        return span

    def end(self, span: Span) -> None:
        span.end = self.clock()
        self._stack().pop()

    def _foreign_parent(self) -> Span | None:
        # A worker thread's outermost span hangs under whatever the
        # workload thread has open when the worker starts it.
        if threading.get_ident() == self._main:
            return None
        main = self._stacks.get(self._main)
        try:
            return main[-1] if main else None
        except IndexError:
            return None

    def set_request(self, request_id: str | None) -> None:
        self._local.request = request_id

    def thread_value(self, key: str, default=None):
        return getattr(self._local, key, default)

    def set_thread_value(self, key: str, value) -> None:
        setattr(self._local, key, value)

    # -- patching ------------------------------------------------------ #

    def patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name: str, layer: str, *,
             before=None, after=None) -> None:
        """Record a span around every call of ``owner.attr``.

        ``before(args, kwargs)`` may return state handed to
        ``after(span, args, kwargs, result, state)``, which runs once the
        span has closed.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            state = before(args, kwargs) if before is not None else None
            span = tracer.begin(name, layer)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(span)
            if after is not None:
                after(span, args, kwargs, result, state)
            return result

        self.patch(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------ #

    def finished(self) -> list[Span]:
        return [s for s in self.spans if s.end is not None]

    def self_times(self, root: Span) -> dict[int, float]:
        """Self time per span id inside ``root``; the values sum to
        ``root.end - root.start``."""
        lo, hi = root.start, root.end
        events = []
        for span in self.finished():
            a, b = max(span.start, lo), min(span.end, hi)
            if b > a or span is root:
                events.append((a, 1, span.id, span))
                events.append((b, 0, span.id, span))
        events.sort(key=lambda e: (e[0], e[1], e[2]))
        heap: list = []
        open_ids: set[int] = set()
        own: dict[int, float] = defaultdict(float)
        prev = lo
        for t, kind, sid, span in events:
            if t > prev:
                while heap and heap[0][2] not in open_ids:
                    heapq.heappop(heap)
                if heap:
                    own[heap[0][2]] += t - prev
                prev = t
            if kind == 1:
                open_ids.add(sid)
                heapq.heappush(heap, (-span.depth, span.start, sid))
            else:
                open_ids.discard(sid)
        return own

    def layer_self_times(self, root: Span) -> dict[str, float]:
        own = self.self_times(root)
        by_layer: dict[str, float] = defaultdict(float)
        for span in self.finished():
            if span.id in own:
                by_layer[span.layer] += own[span.id]
        return dict(by_layer)

    def durations(self, name: str) -> list[float]:
        return [s.end - s.start for s in self.finished() if s.name == name]

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.finished():
                fh.write(json.dumps(span.as_dict()) + "\n")


def install_probes(tracer: Tracer) -> None:
    """Wrap the public functions of every layer the benchmark reports."""
    import repro.behavior as behavior_pkg
    import repro.core.cubis as cubis
    import repro.core.milp as core_milp
    import repro.service.admission as admission
    import repro.service.engine as engine
    import repro.solvers.fleet as fleet
    import repro.solvers.milp_backend as milp_backend
    import repro.solvers.resolve as resolve_mod
    import repro.solvers.session as session_mod
    from repro.behavior.interval import UncertaintyModel
    from repro.resilience.policy import OracleLadder

    counts, samples = tracer.counts, tracer.samples

    # core.cubis ---------------------------------------------------------- #
    def solve_before(args, kwargs):
        game = args[0] if args else kwargs["game"]
        previous = tracer.thread_value("targets")
        tracer.set_thread_value("targets", int(game.num_targets))
        return previous

    def solve_after(span, args, kwargs, result, previous):
        tracer.set_thread_value("targets", previous)
        counts["cubis.solves"] += 1
        counts["cubis.oracle_calls"] += result.iterations
        counts["cubis.cache_hits"] += result.cache_hits
        report = result.resilience
        if report is not None:
            counts["resilience.solves"] += 1
            counts["resilience.attempts"] += len(report.events)
            counts["resilience.fallbacks"] += (
                report.failed_attempts + sum(report.rung_counts[1:])
            )
        note_solve_end(span)

    def note_solve_end(span):
        request = tracer.thread_value("request")
        if request is not None:
            tracer.solve_end[request] = span.end

    for owner in (cubis, resolve_mod):
        tracer.wrap(owner, "solve_cubis", "cubis.solve", "cubis",
                    before=solve_before, after=solve_after)

    # solvers.binary_search: the oracle callbacks belong to core.cubis,
    # so the search's self time is bisection bookkeeping only.
    def traced_callback(fn, name):
        if fn is None:
            return None

        def callback(*args, **kwargs):
            span = tracer.begin(name, "cubis")
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(span)
        return callback

    original_search = cubis.binary_search_max

    @functools.wraps(original_search)
    def binary_search_max(oracle, *args, **kwargs):
        oracle = traced_callback(oracle, "cubis.oracle")
        for key in ("payload_bound", "probe_batch"):
            if kwargs.get(key) is not None:
                kwargs[key] = traced_callback(kwargs[key], f"cubis.{key}")
        span = tracer.begin("binary_search.search", "binary_search")
        try:
            result = original_search(oracle, *args, **kwargs)
        finally:
            tracer.end(span)
        counts["binary_search.searches"] += 1
        counts["binary_search.steps"] += result.iterations
        return result

    tracer.patch(cubis, "binary_search_max", binary_search_max)

    # solvers.milp_backend ------------------------------------------------ #
    def traced_solve_milp(original):
        @functools.wraps(original)
        def solve_milp(problem, *args, **kwargs):
            kind = "lp" if problem.num_integer == 0 else "milp"
            span = tracer.begin(f"milp_backend.{kind}", "milp_backend")
            try:
                return original(problem, *args, **kwargs)
            finally:
                tracer.end(span)
                if kind == "lp":
                    targets = tracer.thread_value("targets")
                    samples[f"lp_s.t{targets}"].append(span.end - span.start)
        return solve_milp

    for owner in (cubis, session_mod):
        tracer.patch(owner, "solve_milp", traced_solve_milp(owner.solve_milp))
    tracer.wrap(cubis, "relax_integrality", "milp_backend.relax",
                "milp_backend")
    tracer.wrap(milp_backend, "milp", "highs.milp", "highs")

    # solvers.session ----------------------------------------------------- #
    def prepare_before(args, kwargs):
        return args[0].fresh_builds

    def prepare_after(span, args, kwargs, result, fresh_before):
        counts["session.prepare_calls"] += 1
        counts["session.fresh_builds"] += args[0].fresh_builds - fresh_before

    tracer.wrap(session_mod.MilpSession, "prepare", "session.prepare",
                "session", before=prepare_before, after=prepare_after)
    for method in ("solve", "retarget"):
        tracer.wrap(session_mod.MilpSession, method, f"session.{method}",
                    "session")

    # core.milp ----------------------------------------------------------- #
    skeleton = core_milp.CubisMilpSkeleton
    tracer.wrap(skeleton, "__init__", "milp.skeleton_build", "milp")
    for method in ("patch", "diff", "diff_from", "rebind", "certificate"):
        tracer.wrap(skeleton, method, f"milp.{method}", "milp")
    tracer.wrap(cubis, "build_cubis_milp", "milp.build", "milp")

    # core.dp ------------------------------------------------------------- #
    def dp_after(span, args, kwargs, result, state):
        phi = args[0]
        budget = args[1] if len(args) > 1 else kwargs["budget_units"]
        items = phi.shape[0] if phi.ndim == 3 else 1
        counts["dp.calls"] += 1
        counts["dp.items"] += items
        counts["dp.cells_computed"] += items * phi.shape[-2] * (int(budget) + 1)

    tracer.wrap(cubis, "maximize_separable_on_grid", "dp.kernel", "dp",
                after=dp_after)
    tracer.wrap(fleet, "maximize_separable_on_grid_batch", "dp.batch", "dp",
                after=dp_after)

    # solvers.fleet ------------------------------------------------------- #
    def fleet_after(span, args, kwargs, result, state):
        counts["fleet.calls"] += 1
        counts["fleet.games"] += len(result)
        counts["fleet.dp_rounds"] += result.dp_rounds
        counts["fleet.shape_hits"] += result.shape_stats["hits"]
        counts["fleet.shape_leases"] += (
            result.shape_stats["hits"] + result.shape_stats["misses"]
        )

    tracer.wrap(fleet, "solve_fleet", "fleet.solve", "fleet", after=fleet_after)
    tracer.wrap(fleet.SkeletonShapeCache, "lease", "fleet.lease", "fleet")

    # behavior ------------------------------------------------------------ #
    models = {
        obj for obj in vars(behavior_pkg).values()
        if isinstance(obj, type) and issubclass(obj, UncertaintyModel)
    }
    import repro.behavior.interval as interval_mod

    models |= {
        obj for obj in vars(interval_mod).values()
        if isinstance(obj, type) and issubclass(obj, UncertaintyModel)
    }
    for model in sorted(models, key=lambda m: m.__qualname__):
        for method in ("lower_on_grid", "upper_on_grid"):
            if method in model.__dict__:
                tracer.wrap(model, method, f"behavior.{method}", "behavior")

    # solvers.resolve ----------------------------------------------------- #
    def resolve_after(span, args, kwargs, outcome, state):
        kind = "shrink" if outcome.bracket_reused else "mixed"
        counts["resolve.steps"] += 1
        counts["resolve.bracket_reuses"] += bool(outcome.bracket_reused)
        counts["resolve.warm_hits"] += bool(outcome.warm_hit)
        counts[f"resolve.steps.{kind}"] += 1
        counts[f"resolve.calls.{kind}"] += outcome.result.iterations
        note_solve_end(span)

    tracer.wrap(resolve_mod, "resolve", "resolve.resolve", "resolve",
                after=resolve_after)
    tracer.wrap(resolve_mod, "start_resolve", "resolve.start", "resolve",
                after=lambda span, *_: note_solve_end(span))
    tracer.wrap(resolve_mod, "classify_drift", "resolve.classify", "resolve")
    tracer.wrap(resolve_mod.ResolveHandle, "raw_grids", "resolve.raw_grids",
                "resolve")

    # service (engine, requests, admission) ------------------------------- #
    for fn in ("canonicalize_request", "canonicalize_resolve_request"):
        tracer.wrap(engine, fn, "service.canonicalize", "service")
    tracer.wrap(engine, "build_instance", "service.build_instance", "service")
    tracer.wrap(engine, "solve_payload", "service.solve_payload", "service")

    def submit_after(span, args, kwargs, ticket, state):
        span.request = ticket.request_id
        counts["service.submits"] += 1
        counts["service.cache_hits"] += bool(ticket.cached)
        counts["service.coalesced"] += bool(ticket.coalesced)

    for method in ("submit", "submit_resolve"):
        tracer.wrap(engine.SolveEngine, method, "service.submit", "service",
                    after=submit_after)

    queue = admission.BoundedQueue
    original_put, original_get = queue.try_put, queue.get

    @functools.wraps(original_put)
    def try_put(self, item):
        stamp = tracer.clock()
        accepted = original_put(self, item)
        if accepted:
            tracer.enqueued[item.request_id] = stamp
        return accepted

    @functools.wraps(original_get)
    def get(self, timeout=None):
        item = original_get(self, timeout)
        if item is not None:
            now = tracer.clock()
            tracer.set_request(item.request_id)
            enqueued = tracer.enqueued.get(item.request_id)
            if enqueued is not None:
                samples["service.queue_wait_s"].append(now - enqueued)
        return item

    tracer.patch(queue, "try_put", try_put)
    tracer.patch(queue, "get", get)

    original_resolve = engine.SolveTicket.resolve

    @functools.wraps(original_resolve)
    def ticket_resolve(self, result):
        tracer.resolved.setdefault(self.request_id, tracer.clock())
        return original_resolve(self, result)

    tracer.patch(engine.SolveTicket, "resolve", ticket_resolve)

    # resilience ---------------------------------------------------------- #
    tracer.wrap(OracleLadder, "__call__", "resilience.step", "resilience")
