"""The solve engine: coalescing, caching, admission, and the worker pool.

This is the transport-free heart of the daemon (the asyncio HTTP layer
in :mod:`repro.service.daemon` is a thin shell over it, and the
concurrency tests drive it directly).  One :meth:`SolveEngine.submit`
call runs the whole admission pipeline under a single lock:

1. **Response cache** — completed solves are kept as encoded response
   bytes in an LRU keyed by the canonical request hash; a hit completes
   the ticket immediately (``repro_service_cache_hits_total``).
2. **Coalescing** — an in-flight entry for the same hash means some
   earlier request is already solving this exact problem; the new
   ticket joins its waiter list (``repro_service_coalesced_total``)
   and every waiter later receives *the same bytes object*, so
   byte-identical responses are structural, not incidental.
3. **Quota** — per-tenant token buckets; an over-rate tenant gets a
   :class:`~repro.service.admission.RejectedError` with the exact
   ``Retry-After``.  Quotas gate only *new* solve admissions: cache
   hits and coalesced joins consume no tokens, because they consume no
   solver capacity.
4. **Queue** — the bounded queue; full means an immediate
   ``queue_full`` rejection, never unbounded buffering.

Worker threads drain the queue.  Each runs its job under a private
:class:`~repro.telemetry.runtime.Telemetry` (the parent tracer is not
thread-safe) whose metrics are merged into the engine's registry under
the engine lock, leases skeletons from the process-wide
:class:`~repro.solvers.fleet.SkeletonShapeCache` like every other solve
(each solve builds its MILP models inside its ``solve_cubis`` call),
and seeds each solve's :class:`StrategyCertificate` pool
from the warm bank of earlier results on the same instance — the
cross-request certificate reuse the response cache cannot provide when
options differ.

Failure semantics: a failed leader whose group has waiters is
re-dispatched exactly once before the whole group receives a structured
503 carrying the resilience attempt trail.  Failures are never cached.
"""

from __future__ import annotations

import json
import threading
import time
from collections import OrderedDict
from typing import Callable

from repro.service.admission import (
    BoundedQueue,
    QueueClosedError,
    QuotaRegistry,
    RejectedError,
)
from repro.service.requests import (
    RESOLVE_OPTION_KEYS,
    build_instance,
    canonicalize_request,
    canonicalize_resolve_request,
    instance_hash,
    request_hash,
    shape_hash,
    solve_payload,
    standing_key,
)
from repro.store import stable_hash
from repro.telemetry.runtime import Telemetry, use as use_telemetry

__all__ = ["ServiceResult", "SolveTicket", "SolveEngine"]

#: Retry-After hint (seconds) for queue-full rejections; the queue is
#: drained by solves, so "one typical small solve" is the honest unit.
QUEUE_FULL_RETRY_AFTER = 1.0


class ServiceResult:
    """A finished request: HTTP status plus the encoded JSON body.

    ``body`` is shared by every waiter of a coalesced group — one bytes
    object, many tickets — which is what makes the byte-identity
    guarantee trivial to uphold and to test (``is``, not just ``==``).
    """

    __slots__ = ("status", "body", "error")

    def __init__(self, status: int, body: bytes, error: dict | None = None) -> None:
        self.status = status
        self.body = body
        self.error = error

    @property
    def ok(self) -> bool:
        return self.status == 200


class SolveTicket:
    """One caller's handle on a (possibly shared) solve.

    ``coalesced`` / ``cached`` record how admission classified this
    ticket; :meth:`wait` blocks a thread, :meth:`add_done_callback`
    serves the asyncio bridge (the callback fires immediately when the
    ticket is already done, so there is no completion/registration
    race).
    """

    __slots__ = ("request_id", "coalesced", "cached", "_event", "_result",
                 "_callbacks", "_lock")

    def __init__(self, request_id: str, *, coalesced: bool = False,
                 cached: bool = False) -> None:
        self.request_id = request_id
        self.coalesced = coalesced
        self.cached = cached
        self._event = threading.Event()
        self._result: ServiceResult | None = None
        self._callbacks: list[Callable[[ServiceResult], None]] = []
        self._lock = threading.Lock()

    @property
    def done(self) -> bool:
        return self._event.is_set()

    def resolve(self, result: ServiceResult) -> None:
        with self._lock:
            if self._event.is_set():
                return
            self._result = result
            self._event.set()
            callbacks, self._callbacks = self._callbacks, []
        for cb in callbacks:
            cb(result)

    def wait(self, timeout: float | None = None) -> ServiceResult | None:
        """Block until resolved; ``None`` on timeout."""
        if not self._event.wait(timeout):
            return None
        return self._result

    def add_done_callback(self, fn: Callable[[ServiceResult], None]) -> None:
        with self._lock:
            if not self._event.is_set():
                self._callbacks.append(fn)
                return
            result = self._result
        assert result is not None
        fn(result)


class _Job:
    """One admitted solve: the canonical request plus its waiters."""

    __slots__ = ("request_id", "canonical", "tickets", "redispatched",
                 "kind", "tenant")

    def __init__(self, request_id: str, canonical: dict,
                 ticket: SolveTicket, *, kind: str = "solve",
                 tenant: str = "default") -> None:
        self.request_id = request_id
        self.canonical = canonical
        self.tickets = [ticket]
        self.redispatched = False
        self.kind = kind
        self.tenant = tenant


class _LruBytes:
    """Tiny LRU for response bytes / warm starts (capacity 0 disables)."""

    def __init__(self, capacity: int) -> None:
        self.capacity = max(0, int(capacity))
        self._items: OrderedDict = OrderedDict()

    def get(self, key):
        if key not in self._items:
            return None
        self._items.move_to_end(key)
        return self._items[key]

    def put(self, key, value) -> None:
        if self.capacity == 0:
            return
        self._items[key] = value
        self._items.move_to_end(key)
        while len(self._items) > self.capacity:
            self._items.popitem(last=False)

    def __len__(self) -> int:
        return len(self._items)


def _default_solve(game, uncertainty, options, *, warm_start=None,
                   policy=None):
    from repro.core.cubis import solve_cubis

    # The canonical options are solve_cubis keywords, except the
    # service's session selector and resilience flag (the policy).
    solve_options = {
        name: value for name, value in options.items()
        if name not in ("session", "resilience")
    }
    return solve_cubis(
        game, uncertainty, resilience=policy, warm_start=warm_start,
        **solve_options,
    )


class SolveEngine:
    """The daemon's brain: admission, coalescing, caching, workers.

    Parameters
    ----------
    workers:
        Worker threads draining the queue.
    queue_depth:
        Bound of the request queue (the memory ceiling).
    quota_rate / quota_burst:
        Per-tenant token-bucket refill rate (requests/second; ``None``
        disables quotas) and burst capacity.
    cache_size:
        Response-cache entries (canonical-hash keyed); also bounds the
        warm-start bank.
    request_timeout:
        Soft per-request wall-clock budget (seconds).  A solve that
        overruns still finishes (threads cannot be killed) but its
        waiters receive a 503 and the result is not cached.
    solve_fn:
        Override for tests: ``f(game, uncertainty, options, *,
        warm_start, policy) -> result``.  The default runs
        :func:`repro.core.cubis.solve_cubis`.
    policy_factory:
        ``f(options) -> ResiliencePolicy | None``, consulted per job.
        The default builds the standard fallback ladder when the
        request asked for resilience (wrapped by ``fault_injector``
        when one is configured).
    fault_injector:
        Optional :class:`~repro.resilience.faults.FaultInjector` applied
        to every MILP rung of the default policy — the chaos switch the
        fault tests and ``repro serve --inject-faults`` flip.
    telemetry:
        The engine's own :class:`Telemetry`; metrics land in
        ``telemetry.metrics`` (scraped by ``/metrics``), spans/events
        are only recorded when it is enabled.  Defaults to a fresh
        enabled context.
    clock:
        Injectable monotonic clock for quotas and timing.
    """

    def __init__(
        self,
        *,
        workers: int = 2,
        queue_depth: int = 16,
        quota_rate: float | None = None,
        quota_burst: int = 8,
        cache_size: int = 64,
        request_timeout: float | None = None,
        solve_fn=None,
        policy_factory=None,
        fault_injector=None,
        telemetry: Telemetry | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.request_timeout = request_timeout
        self._clock = clock
        self._solve_fn = solve_fn if solve_fn is not None else _default_solve
        self._policy_factory = (
            policy_factory if policy_factory is not None
            else self._default_policy_factory(fault_injector)
        )
        self._queue = BoundedQueue(queue_depth)
        self._quotas = QuotaRegistry(quota_rate, quota_burst, clock)
        self._lock = threading.RLock()
        self._inflight: dict[str, _Job] = {}
        self._cache = _LruBytes(cache_size)
        self._warm_bank = _LruBytes(cache_size)
        # Drift-tolerant secondary warm bank: keyed by the game alone, so
        # a request whose uncertainty intervals moved (and whose exact
        # instance hash therefore missed) still finds the nearest prior
        # solve of the same game as a probed warm start.
        self._warm_shape_bank = _LruBytes(cache_size)
        # Standing resolve handles for POST /v1/resolve, keyed by
        # (tenant, game, pinned options); bounded LRU of handles.
        self._standing = _LruBytes(max(4, workers * 2))
        self._closed = False
        self._threads = [
            threading.Thread(target=self._worker_loop, args=(index,),
                             name=f"repro-service-worker-{index}", daemon=True)
            for index in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    # -- policy wiring ------------------------------------------------ #

    @staticmethod
    def _default_policy_factory(fault_injector):
        def factory(options):
            if not options["resilience"]:
                return None
            from repro.resilience.policy import ResiliencePolicy

            base = ResiliencePolicy(max_retries=1)
            if fault_injector is None:
                return base
            from repro.resilience.faults import injected_policy

            return injected_policy(fault_injector, base)

        return factory

    # -- metrics (all updates under self._lock: the registry has no
    #    locks of its own, and workers + the HTTP thread both write) --- #

    def _counter(self, name: str, **labels):
        return self.telemetry.metrics.counter(name, **labels)

    def record_request(self, endpoint: str) -> None:
        """Count one HTTP request (called by the transport layer)."""
        with self._lock:
            self._counter("repro_service_requests_total",
                          endpoint=endpoint).inc()

    def metric_value(self, name: str, **labels) -> float:
        """Read one counter's value (tests and health reports)."""
        with self._lock:
            return self.telemetry.metrics.counter(name, **labels).value

    # -- public state probes ------------------------------------------ #

    @property
    def queue_depth(self) -> int:
        return self._queue.depth

    @property
    def queue_size(self) -> int:
        return len(self._queue)

    @property
    def inflight(self) -> int:
        with self._lock:
            return len(self._inflight)

    @property
    def workers(self) -> int:
        return len(self._threads)

    def health(self) -> dict:
        """Extra ``/healthz`` fields (mounted via ``ObsRoutes``)."""
        return {
            "queue_depth": self.queue_depth,
            "queue_size": self.queue_size,
            "inflight": self.inflight,
            "workers": self.workers,
            "draining": self._queue.closed,
        }

    # -- admission ----------------------------------------------------- #

    def submit(self, body, tenant: str = "default") -> SolveTicket:
        """Admit one solve request; returns the caller's ticket.

        Raises :class:`~repro.service.requests.RequestError` (→ 400),
        :class:`~repro.service.admission.RejectedError` (→ 429), or
        :class:`~repro.service.admission.QueueClosedError` (→ 503).
        """
        canonical = canonicalize_request(body)
        return self.submit_canonical(canonical, tenant)

    def submit_resolve(self, body, tenant: str = "default") -> SolveTicket:
        """Admit one standing-resolve request (``POST /v1/resolve``).

        Same admission pipeline as :meth:`submit` — response cache,
        coalescing, quota, bounded queue — but keyed per tenant (standing
        handles carry a tenant's drift history and are never shared
        across tenants) and executed against the tenant's standing
        :class:`~repro.solvers.resolve.ResolveHandle` for the game: the
        first request on a (tenant, game, options) key cold-starts the
        handle, every later one re-enters it through
        :func:`repro.solvers.resolve.resolve`.
        """
        canonical = canonicalize_resolve_request(body)
        key = stable_hash({"op": "resolve", "tenant": tenant,
                           "request": canonical})
        return self._admit(key, canonical, tenant, kind="resolve")

    def submit_canonical(self, canonical: dict, tenant: str = "default") -> SolveTicket:
        """Admission for an already-canonical request (see :meth:`submit`)."""
        return self._admit(request_hash(canonical), canonical, tenant,
                           kind="solve")

    def _admit(self, key: str, canonical: dict, tenant: str,
               kind: str) -> SolveTicket:
        with self._lock:
            cached = self._cache.get(key)
            if cached is not None:
                self._counter("repro_service_cache_hits_total").inc()
                ticket = SolveTicket(key, cached=True)
                ticket.resolve(cached)
                return ticket
            self._counter("repro_service_cache_misses_total").inc()

            job = self._inflight.get(key)
            if job is not None:
                ticket = SolveTicket(key, coalesced=True)
                job.tickets.append(ticket)
                self._counter("repro_service_coalesced_total").inc()
                return ticket

            retry_after = self._quotas.try_acquire(tenant)
            if retry_after > 0:
                self._counter("repro_service_rejected_total",
                              reason="quota").inc()
                raise RejectedError("quota", retry_after)

            ticket = SolveTicket(key)
            job = _Job(key, canonical, ticket, kind=kind, tenant=tenant)
            self._inflight[key] = job
            try:
                accepted = self._queue.try_put(job)
            except QueueClosedError:
                del self._inflight[key]
                raise
            if not accepted:
                del self._inflight[key]
                self._counter("repro_service_rejected_total",
                              reason="queue_full").inc()
                raise RejectedError("queue_full", QUEUE_FULL_RETRY_AFTER)
            self.telemetry.metrics.gauge(
                "repro_service_queue_size").set(len(self._queue))
            return ticket

    def lookup(self, request_id: str) -> tuple[str, ServiceResult | None]:
        """State of a request id: ``("done", result)``, ``("pending",
        None)``, or ``("unknown", None)`` — the ``GET /v1/result``
        backend."""
        with self._lock:
            cached = self._cache.get(request_id)
            if cached is not None:
                return ("done", cached)
            if request_id in self._inflight:
                return ("pending", None)
            return ("unknown", None)

    # -- worker side --------------------------------------------------- #

    def _worker_loop(self, index: int) -> None:
        while True:
            job = self._queue.get(timeout=0.2)
            if job is None:
                if self._queue.closed:
                    return
                continue
            with self._lock:
                self.telemetry.metrics.gauge(
                    "repro_service_queue_size").set(len(self._queue))
            self._run_job(job)

    def _lookup_warm(self, canonical: dict):
        """Warm-start lookup: exact instance first, then the
        drift-tolerant game-shape key (same game, moved intervals — the
        nearest prior optimum is still a sound probed hint)."""
        with self._lock:
            warm = self._warm_bank.get(instance_hash(canonical))
            if warm is not None:
                self._counter("repro_service_warm_hits_total").inc()
                return warm
            warm = self._warm_shape_bank.get(shape_hash(canonical))
            if warm is not None:
                self._counter("repro_service_warm_drift_hits_total").inc()
            return warm

    def _store_warm(self, canonical: dict, warm_start) -> None:
        """Bank a finished solve's warm start under both keys (caller
        holds the engine lock)."""
        if warm_start is None:
            return
        self._warm_bank.put(instance_hash(canonical), warm_start)
        self._warm_shape_bank.put(shape_hash(canonical), warm_start)

    def _execute_resolve(self, job: _Job):
        """Run one resolve job against the tenant's standing handle.

        Returns ``(result, resolve_info)`` — the post-drift
        :class:`~repro.core.cubis.CubisResult` plus the JSON-ready
        re-entry accounting for the response body.
        """
        from repro.solvers.resolve import resolve, start_resolve

        game, uncertainty, options = build_instance(job.canonical)
        ropts = {name: options[name] for name in RESOLVE_OPTION_KEYS}
        skey = standing_key(job.canonical, job.tenant)
        with self._lock:
            handle = self._standing.get(skey)
        if handle is None:
            warm = self._lookup_warm(job.canonical)
            handle = start_resolve(game, uncertainty, warm_start=warm, **ropts)
            with self._lock:
                winner = self._standing.get(skey)
                if winner is None:
                    self._standing.put(skey, handle)
                    self._counter("repro_service_standing_started_total").inc()
            if winner is None:
                info = {
                    "standing": False,
                    "drift": None,
                    "bracket_reused": False,
                    "warm_hit": bool(handle.result.cache_hits > 0),
                    "guess_probes": int(handle.result.guess_probes),
                }
                return handle.result, info
            handle = winner  # lost a creation race: re-enter the winner
        outcome = resolve(handle, uncertainty)
        info = {
            "standing": True,
            "drift": {
                "kind": outcome.drift.kind,
                "changed_targets": int(outcome.drift.changed_targets),
                "max_rel_change": float(outcome.drift.max_rel_change),
            },
            "bracket_reused": bool(outcome.bracket_reused),
            "warm_hit": bool(outcome.warm_hit),
            "guess_probes": int(outcome.result.guess_probes),
        }
        return outcome.result, info

    def _run_job(self, job: _Job) -> None:
        t0 = self._clock()
        worker_tele = Telemetry()
        error: Exception | None = None
        result = None
        resolve_info = None
        try:
            if job.kind == "resolve":
                with use_telemetry(worker_tele):
                    with worker_tele.span("service.resolve",
                                          request=job.request_id,
                                          redispatch=job.redispatched):
                        result, resolve_info = self._execute_resolve(job)
            else:
                game, uncertainty, options = build_instance(job.canonical)
                policy = self._policy_factory(options)
                warm = self._lookup_warm(job.canonical)
                with use_telemetry(worker_tele):
                    with worker_tele.span("service.solve", request=job.request_id,
                                          redispatch=job.redispatched):
                        result = self._solve_fn(
                            game, uncertainty, options,
                            warm_start=warm, policy=policy,
                        )
        except Exception as exc:  # noqa: BLE001 — every failure becomes a 503
            error = exc
        elapsed = self._clock() - t0

        timed_out = (error is None and self.request_timeout is not None
                     and elapsed > self.request_timeout)
        if error is None and not timed_out:
            payload = solve_payload(result)
            payload["request_id"] = job.request_id
            payload["coalesced_waiters"] = len(job.tickets) - 1
            if resolve_info is not None:
                payload["resolve"] = resolve_info
            body = json.dumps(payload, sort_keys=True).encode()
            outcome = ServiceResult(200, body)
            warm_start = (result.as_warm_start()
                          if hasattr(result, "as_warm_start") else None)
            with self._lock:
                self.telemetry.metrics.merge(worker_tele.metrics)
                self._cache.put(job.request_id, outcome)
                self._store_warm(job.canonical, warm_start)
                self._inflight.pop(job.request_id, None)
                self._counter("repro_service_solves_total").inc()
                self.telemetry.metrics.histogram(
                    "repro_service_request_seconds").observe(elapsed)
            for ticket in job.tickets:
                ticket.resolve(outcome)
            return

        # Failure path: one redispatch for a coalesced group, then a
        # structured 503 carrying the resilience attempt trail.
        attempts = [
            {key: record.attributes.get(key)
             for key in ("step", "rung", "oracle", "backend", "attempt",
                         "outcome", "message")}
            for record in worker_tele.spans
            if record.name == "resilience.attempt"
        ]
        with self._lock:
            self.telemetry.metrics.merge(worker_tele.metrics)
            if (error is not None and not job.redispatched
                    and len(job.tickets) > 1):
                job.redispatched = True
                try:
                    requeued = self._queue.try_put(job)
                except QueueClosedError:
                    requeued = False
                if requeued:
                    self._counter("repro_service_redispatch_total").inc()
                    return  # job stays in-flight; a worker will retry it
            self._inflight.pop(job.request_id, None)
            self._counter("repro_service_errors_total").inc()
            self.telemetry.metrics.histogram(
                "repro_service_request_seconds").observe(elapsed)
        if timed_out:
            detail = {
                "type": "Timeout",
                "message": (f"solve exceeded the {self.request_timeout:.3f}s "
                            f"request budget (took {elapsed:.3f}s)"),
                "attempts": attempts,
            }
        else:
            detail = {
                "type": type(error).__name__,
                "message": str(error),
                "attempts": attempts,
            }
        body = json.dumps({"error": detail}, sort_keys=True).encode()
        outcome = ServiceResult(503, body, error=detail)
        for ticket in job.tickets:
            ticket.resolve(outcome)

    # -- lifecycle ----------------------------------------------------- #

    def close(self, timeout: float | None = 30.0) -> None:
        """Drain and stop: no new work is accepted, queued jobs finish,
        worker threads join.  Idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._queue.close()
        for thread in self._threads:
            thread.join(timeout=timeout)

    def __enter__(self) -> "SolveEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False
