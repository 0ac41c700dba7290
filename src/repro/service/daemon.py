"""The asyncio HTTP front door for the solve engine.

:class:`ServiceDaemon` runs a hand-rolled HTTP/1.1 server (stdlib
``asyncio`` streams — no third-party web framework, in the spirit of
:mod:`repro.obs.server`) on a dedicated background thread, so it embeds
in the CLI, in tests, and in notebooks alike::

    engine = SolveEngine(workers=2, queue_depth=16)
    with ServiceDaemon(engine, port=0) as daemon:
        print(daemon.url)        # http://127.0.0.1:<ephemeral>
        ...

Routes
------
* ``POST /v1/solve`` — admit a solve request.  Synchronous by default
  (the response is the solve result, or a structured 503); with
  ``"mode": "async"`` in the body the daemon answers 202 with the
  request id for later ``GET /v1/result/<id>`` polling.  Tenant comes
  from the ``X-Tenant`` header or the body's ``tenant`` field.
* ``POST /v1/resolve`` — re-solve against the tenant's *standing*
  session for the game (see :mod:`repro.solvers.resolve`): the first
  request on a (tenant, game, options) key cold-starts a
  :class:`~repro.solvers.resolve.ResolveHandle`; later requests with
  drifted uncertainty re-enter it via warm-bracket bisection and sparse
  interval patches.  Same envelope, modes, and error mapping as
  ``/v1/solve``; the response adds a ``"resolve"`` accounting object.
* ``POST /v1/verify`` — stateless re-certification of a solve response
  against its game/uncertainty via
  :func:`repro.resilience.certify_result`.
* ``GET /v1/result/<id>`` — 200 with the cached response, 202 while the
  solve is in flight, 404 otherwise.
* ``GET /healthz`` / ``/metrics`` / ``/progress`` — mounted from the
  *same* :class:`~repro.obs.routes.ObsRoutes` implementation the
  threaded :class:`~repro.obs.server.ObsServer` uses; ``/healthz``
  additionally reports engine queue/worker state, and ``/metrics``
  answers 503 when no registry is attached (``--no-telemetry``).

Error mapping: malformed request → 400, quota/queue rejection → 429
with ``Retry-After``, shutdown or solve failure → 503, unknown path →
404, unsupported method → 405, oversized body → 413.  Every request is
counted in ``repro_service_requests_total{endpoint=...}`` and recorded
as a ``service.request`` telemetry event (events, not nested spans: the
handler coroutines interleave on one loop thread, so open-span nesting
across them would lie about causality).

Start-up (:meth:`start`) pays the solver imports: it loads
``scipy.optimize`` and probes the HiGHS binding before it accepts a
connection.  The in-process :class:`SolveEngine` stays lazy.

Shutdown (:meth:`stop`) is drain-first: the listener closes, in-flight
HTTP handlers finish, then the engine drains its queue and joins its
workers — accepted work is never dropped, matching the bounded queue's
close semantics.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from urllib.parse import unquote

from repro.obs.routes import OBS_PATHS, ObsRoutes
from repro.service.admission import QueueClosedError, RejectedError
from repro.service.engine import ServiceResult, SolveEngine
from repro.service.requests import RequestError, result_from_payload
from repro.solvers.milp_backend import highs_binding

__all__ = ["ServiceDaemon", "MAX_BODY_BYTES"]

#: Request bodies above this are refused with 413 — the admission
#: story is "never unbounded memory", and that includes the parser.
MAX_BODY_BYTES = 8 * 1024 * 1024

_JSON = "application/json"


def _json_body(obj) -> bytes:
    return json.dumps(obj, sort_keys=True).encode()


def _error_body(kind: str, message: str, **extra) -> bytes:
    detail = {"type": kind, "message": message}
    detail.update(extra)
    return _json_body({"error": detail})


class _HttpError(Exception):
    def __init__(self, status: int, body: bytes,
                 headers: tuple[tuple[str, str], ...] = ()) -> None:
        self.status = status
        self.body = body
        self.headers = headers


_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    429: "Too Many Requests", 500: "Internal Server Error",
    503: "Service Unavailable",
}


class ServiceDaemon:
    """Solve-as-a-service HTTP daemon over a :class:`SolveEngine`.

    Parameters
    ----------
    engine:
        The engine to front.  The daemon owns its shutdown: closing the
        daemon drains and closes the engine.
    port / host:
        Bind address; port ``0`` is ephemeral (read :attr:`port` after
        :meth:`start`).
    registry:
        The metrics registry ``/metrics`` exposes.  Defaults to the
        engine's own registry; pass ``None`` explicitly (the
        ``--no-telemetry`` wiring) to make ``/metrics`` answer 503.
    board:
        Optional :class:`~repro.obs.progress.ProgressBoard` for
        ``/progress`` (falls back to the process-wide active board).
    """

    _UNSET = object()

    def __init__(self, engine: SolveEngine, *, port: int = 0,
                 host: str = "127.0.0.1", registry=_UNSET,
                 board=None) -> None:
        self.engine = engine
        self.registry = (engine.telemetry.metrics
                         if registry is ServiceDaemon._UNSET else registry)
        self.board = board
        self.routes = ObsRoutes(self, health_extra=engine.health)
        self._requested = (host, int(port))
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.AbstractServer | None = None
        self._thread: threading.Thread | None = None
        self._handlers: set[asyncio.Task] = set()
        self._t0: float | None = None
        self._port: int | None = None
        self._stopping = False

    # -- ObsRoutes host protocol -------------------------------------- #

    def uptime(self) -> float:
        return time.time() - self._t0 if self._t0 is not None else 0.0

    # -- lifecycle ----------------------------------------------------- #

    @property
    def port(self) -> int:
        if self._port is None:
            raise RuntimeError("ServiceDaemon not started")
        return self._port

    @property
    def url(self) -> str:
        return f"http://{self._requested[0]}:{self.port}"

    def start(self) -> "ServiceDaemon":
        """Bind and serve on a background event-loop thread.

        Loads ``scipy.optimize`` and probes the HiGHS binding first, so
        the daemon's first request does not pay for them.
        """
        if self._thread is not None:
            raise RuntimeError("ServiceDaemon already started")
        highs_binding()
        ready = threading.Event()
        failure: list[BaseException] = []

        def run() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop
            try:
                server = loop.run_until_complete(asyncio.start_server(
                    self._handle_connection, *self._requested))
            except BaseException as exc:  # bind failure → surface in start()
                failure.append(exc)
                ready.set()
                loop.close()
                return
            self._server = server
            self._port = server.sockets[0].getsockname()[1]
            self._t0 = time.time()
            ready.set()
            try:
                loop.run_forever()
            finally:
                loop.run_until_complete(loop.shutdown_asyncgens())
                loop.close()

        thread = threading.Thread(target=run, name="repro-service-daemon",
                                  daemon=True)
        thread.start()
        self._thread = thread
        ready.wait()
        if failure:
            self._thread = None
            raise failure[0]
        return self

    def stop(self, timeout: float | None = 30.0) -> None:
        """Drain-first shutdown: stop accepting connections, let active
        handlers finish, then drain + close the engine.  Idempotent."""
        if self._stopping:
            return
        self._stopping = True
        loop, thread = self._loop, self._thread
        if loop is not None and thread is not None and thread.is_alive():
            done = threading.Event()

            async def shutdown() -> None:
                if self._server is not None:
                    self._server.close()
                    await self._server.wait_closed()
                pending = {task for task in self._handlers if not task.done()}
                if pending:
                    await asyncio.wait(pending, timeout=timeout)
                done.set()
                loop.stop()

            asyncio.run_coroutine_threadsafe(shutdown(), loop)
            done.wait(timeout)
            thread.join(timeout)
        self.engine.close()

    def __enter__(self) -> "ServiceDaemon":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False

    # -- HTTP transport ------------------------------------------------ #

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._handlers.add(task)
            task.add_done_callback(self._handlers.discard)
        t0 = time.monotonic()
        method = path = "?"
        status = 500
        try:
            try:
                method, path, headers, body = await self._read_request(reader)
            except _HttpError as exc:
                status = exc.status
                await self._write_response(writer, exc.status, exc.body,
                                           extra=exc.headers)
                return
            except (asyncio.IncompleteReadError, ConnectionError,
                    ValueError):
                return  # peer vanished or sent garbage before a request line
            endpoint = (path if not path.startswith("/v1/result")
                        else "/v1/result")
            self.engine.record_request(endpoint)
            try:
                status, resp_body, content_type, resp_headers = \
                    await self._dispatch(method, path, headers, body)
            except _HttpError as exc:
                status, resp_body, content_type, resp_headers = (
                    exc.status, exc.body, _JSON, exc.headers)
            except Exception as exc:  # noqa: BLE001 — never kill the loop
                status, resp_body, content_type, resp_headers = (
                    500, _error_body(type(exc).__name__, str(exc)), _JSON, ())
            await self._write_response(writer, status, resp_body,
                                       content_type=content_type,
                                       extra=resp_headers)
        finally:
            self.engine.telemetry.event(
                "service.request", method=method, path=path, status=status,
                seconds=round(time.monotonic() - t0, 6))
            try:
                writer.close()
            except Exception:  # noqa: BLE001
                pass

    async def _read_request(self, reader: asyncio.StreamReader):
        request_line = (await reader.readline()).decode("latin-1").strip()
        if not request_line:
            raise ValueError("empty request")
        parts = request_line.split()
        if len(parts) != 3:
            raise _HttpError(400, _error_body(
                "BadRequest", f"malformed request line: {request_line!r}"))
        method, target, _version = parts
        headers: dict[str, str] = {}
        while True:
            line = (await reader.readline()).decode("latin-1")
            if line in ("\r\n", "\n", ""):
                break
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        if length > MAX_BODY_BYTES:
            raise _HttpError(413, _error_body(
                "PayloadTooLarge",
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit"))
        body = await reader.readexactly(length) if length else b""
        return method, unquote(target.split("?", 1)[0]), headers, body

    async def _write_response(self, writer: asyncio.StreamWriter, status: int,
                              body: bytes, content_type: str = _JSON,
                              extra: tuple[tuple[str, str], ...] = ()) -> None:
        reason = _REASONS.get(status, "Unknown")
        head = [f"HTTP/1.1 {status} {reason}",
                f"Content-Type: {content_type}",
                f"Content-Length: {len(body)}",
                "Connection: close"]
        head.extend(f"{name}: {value}" for name, value in extra)
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1"))
        writer.write(body)
        try:
            await writer.drain()
        except ConnectionError:
            pass

    # -- routing ------------------------------------------------------- #

    async def _dispatch(self, method: str, path: str,
                        headers: dict[str, str], body: bytes):
        if path in OBS_PATHS:
            if method != "GET":
                raise _HttpError(405, _error_body(
                    "MethodNotAllowed", f"{path} only supports GET"))
            status, content_type, resp = self.routes.handle(path)
            return status, resp, content_type, ()
        if path.startswith("/v1/result/"):
            if method != "GET":
                raise _HttpError(405, _error_body(
                    "MethodNotAllowed", "/v1/result only supports GET"))
            return self._handle_result(path[len("/v1/result/"):])
        if path == "/v1/solve":
            if method != "POST":
                raise _HttpError(405, _error_body(
                    "MethodNotAllowed", "/v1/solve only supports POST"))
            return await self._handle_solve(headers, body)
        if path == "/v1/resolve":
            if method != "POST":
                raise _HttpError(405, _error_body(
                    "MethodNotAllowed", "/v1/resolve only supports POST"))
            return await self._handle_solve(headers, body,
                                            submit=self.engine.submit_resolve)
        if path == "/v1/verify":
            if method != "POST":
                raise _HttpError(405, _error_body(
                    "MethodNotAllowed", "/v1/verify only supports POST"))
            return self._handle_verify(body)
        raise _HttpError(404, _error_body("NotFound", f"no route for {path}"))

    def _parse_json(self, body: bytes):
        try:
            return json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _HttpError(400, _error_body(
                "BadRequest", f"request body is not valid JSON: {exc}"))

    def _handle_result(self, request_id: str):
        state, result = self.engine.lookup(request_id)
        if state == "done":
            assert result is not None
            return result.status, result.body, _JSON, ()
        if state == "pending":
            return 202, _json_body(
                {"id": request_id, "status": "pending"}), _JSON, ()
        raise _HttpError(404, _error_body(
            "NotFound", f"no result for request id {request_id!r}"))

    async def _handle_solve(self, headers: dict[str, str], body: bytes,
                            *, submit=None):
        payload = self._parse_json(body)
        if submit is None:
            submit = self.engine.submit
        tenant = headers.get("x-tenant") or "default"
        mode = "sync"
        if isinstance(payload, dict):
            tenant = payload.get("tenant") or tenant
            mode = payload.get("mode") or "sync"
        if mode not in ("sync", "async"):
            raise _HttpError(400, _error_body(
                "BadRequest", f"mode must be 'sync' or 'async', got {mode!r}"))
        try:
            ticket = submit(payload, tenant=tenant)
        except RequestError as exc:
            raise _HttpError(400, _error_body("BadRequest", str(exc)))
        except RejectedError as exc:
            raise _HttpError(
                429,
                _error_body("Rejected", str(exc), reason=exc.reason,
                            retry_after=exc.retry_after),
                headers=(("Retry-After",
                          str(max(1, round(exc.retry_after)))),))
        except QueueClosedError:
            raise _HttpError(503, _error_body(
                "ShuttingDown", "the service is draining and no longer "
                "accepts new work"))
        if mode == "async":
            status = "done" if ticket.done else "pending"
            return 202, _json_body(
                {"id": ticket.request_id, "status": status,
                 "coalesced": ticket.coalesced, "cached": ticket.cached}
            ), _JSON, ()
        result = await self._await_ticket(ticket)
        return result.status, result.body, _JSON, ()

    async def _await_ticket(self, ticket) -> ServiceResult:
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()

        def resolved(result: ServiceResult) -> None:
            # Runs on a worker thread (or inline when already done).
            loop.call_soon_threadsafe(
                lambda: future.set_result(result)
                if not future.done() else None)

        ticket.add_done_callback(resolved)
        return await future

    def _handle_verify(self, body: bytes):
        payload = self._parse_json(body)
        if not isinstance(payload, dict) or "result" not in payload:
            raise _HttpError(400, _error_body(
                "BadRequest",
                "verify requests need {'game': ..., 'result': ...} "
                "(optional 'uncertainty')"))
        from repro.resilience.certificate import certify_result
        from repro.service.requests import canonicalize_request, build_instance

        try:
            canonical = canonicalize_request(
                {"game": payload["game"],
                 "uncertainty": payload.get("uncertainty")})
            game, uncertainty, _options = build_instance(canonical)
            result_view = result_from_payload(payload["result"])
        except RequestError as exc:
            raise _HttpError(400, _error_body("BadRequest", str(exc)))
        certificate = certify_result(game, uncertainty, result_view)
        checks = [
            {"name": check.name, "passed": check.passed,
             "detail": check.detail}
            for check in certificate.checks
        ]
        return 200, _json_body(
            {"valid": certificate.valid, "slack": certificate.slack,
             "checks": checks}), _JSON, ()
