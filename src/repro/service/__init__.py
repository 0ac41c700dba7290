"""Solve-as-a-service: the daemon, its engine, and the client.

The ROADMAP's "millions of users" front door (docs/SERVICE.md):

* :mod:`repro.service.requests` — canonical request validation and
  content hashing (the coalescing key, built on ``repro.store``).
* :mod:`repro.service.admission` — per-tenant token-bucket quotas and
  the bounded work queue (the 429 machinery).
* :mod:`repro.service.engine` — coalescing, the response cache, the
  warm-start bank, and the worker pool.
* :mod:`repro.service.daemon` — the stdlib asyncio HTTP front end,
  mounting ``/healthz`` ``/metrics`` ``/progress`` from
  :mod:`repro.obs.routes`.
* :mod:`repro.service.client` — the thin blocking client the tests and
  the CI smoke job drive the daemon with.

Everything is dependency-free stdlib + the repo's own solver stack;
importing :mod:`repro.service` pulls in no solver code until the first
request is actually solved.  The package re-exports the engine, its
admission and its request helpers, not the daemon or the client: those
load ``asyncio``, ``ssl`` and ``http.client``, which an in-process
engine never needs, so import :class:`ServiceDaemon` from
:mod:`repro.service.daemon` and :class:`ServiceClient` and
:class:`ServiceError` from :mod:`repro.service.client`.
"""

from repro.service.admission import (
    BoundedQueue,
    QueueClosedError,
    QuotaRegistry,
    RejectedError,
    TokenBucket,
)
from repro.service.engine import ServiceResult, SolveEngine, SolveTicket
from repro.service.requests import (
    RequestError,
    canonicalize_request,
    request_hash,
)

__all__ = [
    "BoundedQueue",
    "QueueClosedError",
    "QuotaRegistry",
    "RejectedError",
    "TokenBucket",
    "ServiceResult",
    "SolveEngine",
    "SolveTicket",
    "RequestError",
    "canonicalize_request",
    "request_hash",
]
