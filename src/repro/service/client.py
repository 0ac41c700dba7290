"""Thin blocking client for the solve daemon (stdlib ``http.client``).

Used by the test battery and the CI smoke job; it deliberately exposes
both a low-level :meth:`ServiceClient.request` (raw status + headers +
bytes, for byte-identity assertions) and typed helpers that decode JSON
and raise :class:`ServiceError` on non-2xx answers.

One connection per call: the daemon answers ``Connection: close``, and
the client's callers are threads hammering it concurrently — sharing a
connection object across threads would serialise them.
"""

from __future__ import annotations

import http.client
import json
from urllib.parse import urlsplit

__all__ = ["ServiceClient", "ServiceError"]


class ServiceError(Exception):
    """A non-2xx response from the daemon.

    ``status`` is the HTTP code; ``error`` the decoded ``{"error": ...}``
    detail (or ``None``); ``retry_after`` the parsed ``Retry-After``
    header on 429s.
    """

    def __init__(self, status: int, error: dict | None,
                 retry_after: float | None = None) -> None:
        self.status = status
        self.error = error or {}
        self.retry_after = retry_after
        message = self.error.get("message") or f"HTTP {status}"
        super().__init__(f"{status}: {message}")


class ServiceClient:
    """Blocking client bound to one daemon base URL.

    Parameters
    ----------
    base_url:
        ``http://host:port`` (a :attr:`ServiceDaemon.url`).
    timeout:
        Socket timeout per call, seconds.
    tenant:
        Default ``X-Tenant`` header for solve submissions.
    """

    def __init__(self, base_url: str, *, timeout: float = 60.0,
                 tenant: str | None = None) -> None:
        parts = urlsplit(base_url)
        if parts.scheme != "http" or not parts.hostname:
            raise ValueError(f"expected an http://host:port URL, got {base_url!r}")
        self.host = parts.hostname
        self.port = parts.port or 80
        self.timeout = timeout
        self.tenant = tenant

    # -- transport ----------------------------------------------------- #

    def request(self, method: str, path: str, body: bytes | None = None,
                headers: dict[str, str] | None = None):
        """One HTTP exchange; returns ``(status, headers, body_bytes)``."""
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=self.timeout)
        try:
            all_headers = {"Content-Type": "application/json"}
            if self.tenant is not None:
                all_headers["X-Tenant"] = self.tenant
            if headers:
                all_headers.update(headers)
            conn.request(method, path, body=body, headers=all_headers)
            response = conn.getresponse()
            payload = response.read()
            return response.status, dict(response.getheaders()), payload
        finally:
            conn.close()

    def _json_call(self, method: str, path: str, body=None,
                   ok=(200,), headers=None):
        raw = None if body is None else json.dumps(body).encode()
        status, resp_headers, payload = self.request(
            method, path, raw, headers=headers)
        try:
            decoded = json.loads(payload) if payload else None
        except json.JSONDecodeError:
            decoded = None
        if status not in ok:
            retry_after = None
            for name, value in resp_headers.items():
                if name.lower() == "retry-after":
                    try:
                        retry_after = float(value)
                    except ValueError:
                        pass
            error = decoded.get("error") if isinstance(decoded, dict) else None
            raise ServiceError(status, error, retry_after)
        return status, decoded

    # -- typed helpers ------------------------------------------------- #

    def solve(self, game: dict, *, uncertainty: dict | None = None,
              options: dict | None = None, mode: str = "sync",
              tenant: str | None = None) -> dict:
        """Submit a solve; returns the decoded response body.

        Sync mode returns the solve payload; ``mode="async"`` returns
        ``{"id": ..., "status": ...}`` for :meth:`result` polling.
        Raises :class:`ServiceError` on 4xx/5xx (429s carry
        ``retry_after``).
        """
        body: dict = {"game": game}
        if uncertainty is not None:
            body["uncertainty"] = uncertainty
        if options is not None:
            body["options"] = options
        if mode != "sync":
            body["mode"] = mode
        if tenant is not None:
            body["tenant"] = tenant
        ok = (200,) if mode == "sync" else (200, 202)
        _status, decoded = self._json_call("POST", "/v1/solve", body, ok=ok)
        return decoded

    def resolve(self, game: dict, *, uncertainty: dict | None = None,
                options: dict | None = None, mode: str = "sync",
                tenant: str | None = None) -> dict:
        """Submit a standing re-solve (``POST /v1/resolve``).

        Same envelope as :meth:`solve`; the sync response additionally
        carries a ``"resolve"`` accounting object (drift kind, bracket
        reuse, warm hit, guess probes).  Consecutive calls with the
        same game and options but drifted uncertainty re-enter the
        tenant's standing resolve handle server-side.
        """
        body: dict = {"game": game}
        if uncertainty is not None:
            body["uncertainty"] = uncertainty
        if options is not None:
            body["options"] = options
        if mode != "sync":
            body["mode"] = mode
        if tenant is not None:
            body["tenant"] = tenant
        ok = (200,) if mode == "sync" else (200, 202)
        _status, decoded = self._json_call("POST", "/v1/resolve", body, ok=ok)
        return decoded

    def result(self, request_id: str) -> tuple[str, dict | None]:
        """Poll ``GET /v1/result/<id>``: ``("done", payload)`` or
        ``("pending", None)``; raises :class:`ServiceError` (404) for
        unknown ids."""
        status, decoded = self._json_call(
            "GET", f"/v1/result/{request_id}", ok=(200, 202))
        if status == 200:
            return "done", decoded
        return "pending", None

    def verify(self, game: dict, result: dict,
               uncertainty: dict | None = None) -> dict:
        """Re-certify a solve payload; returns the certificate dict."""
        body: dict = {"game": game, "result": result}
        if uncertainty is not None:
            body["uncertainty"] = uncertainty
        _status, decoded = self._json_call("POST", "/v1/verify", body)
        return decoded

    def healthz(self) -> dict:
        _status, decoded = self._json_call("GET", "/healthz")
        return decoded

    def progress(self) -> dict:
        _status, decoded = self._json_call("GET", "/progress")
        return decoded

    def metrics_text(self) -> str:
        status, _headers, payload = self.request("GET", "/metrics")
        if status != 200:
            raise ServiceError(status, {"message": payload.decode(errors="replace")})
        return payload.decode()
