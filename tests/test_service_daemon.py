"""HTTP surface of the solve daemon + obs-route parity across hosts.

The observability satellite lives here: ``/healthz``, ``/metrics``, and
``/progress`` are mounted from one :class:`repro.obs.routes.ObsRoutes`
implementation by both the threaded :class:`ObsServer` and the asyncio
:class:`ServiceDaemon`, so their behaviours — including the
``--no-telemetry`` "no registry -> /metrics answers 503" contract — are
asserted against *both* hosts side by side.
"""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.analysis.io import game_to_dict, uncertainty_to_dict
from repro.obs import ProgressBoard
from repro.obs.server import ObsServer
from repro.service import QueueClosedError, SolveEngine
from repro.service.client import ServiceClient, ServiceError
from repro.service.daemon import ServiceDaemon
from repro.telemetry.metrics import MetricsRegistry
from tests import fixtures_games
from tests.test_service_coalescing import GatedSolver, small_body


def _get(url: str):
    request = urllib.request.Request(url)
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


@pytest.fixture
def gated_daemon():
    solver = GatedSolver()
    solver.gate.set()
    engine = SolveEngine(workers=2, queue_depth=8, solve_fn=solver)
    daemon = ServiceDaemon(engine, port=0).start()
    try:
        yield daemon, engine, solver
    finally:
        daemon.stop()


class TestObsRouteParity:
    """One route implementation, two hosts, identical behaviour."""

    def _both_hosts(self, registry, board=None):
        obs = ObsServer(registry=registry, board=board, port=0).start()
        engine = SolveEngine(workers=1, queue_depth=2,
                             solve_fn=lambda *a, **k: None)
        daemon = ServiceDaemon(engine, port=0, registry=registry,
                               board=board).start()
        try:
            yield obs.url
            yield daemon.url
        finally:
            obs.stop()
            daemon.stop()

    def test_metrics_503_without_registry_in_both_hosts(self):
        # The --no-telemetry wiring passes registry=None in both the
        # ObsServer (--serve) and the daemon (repro serve) paths.
        hosts = self._both_hosts(registry=None)
        for url in hosts:
            status, body = _get(url + "/metrics")
            assert status == 503
            assert b"no metrics registry" in body

    def test_metrics_exposes_live_registry_in_both_hosts(self):
        registry = MetricsRegistry()
        registry.counter("repro_test_total").inc(3)
        for url in self._both_hosts(registry=registry):
            status, body = _get(url + "/metrics")
            assert status == 200
            assert b"repro_test_total 3" in body

    def test_progress_snapshot_in_both_hosts(self):
        board = ProgressBoard()
        board.update("solve", total=10, done=4)
        for url in self._both_hosts(registry=None, board=board):
            status, body = _get(url + "/progress")
            assert status == 200
            snap = json.loads(body)
            assert snap["sections"]["solve"]["total"] == 10

    def test_healthz_in_both_hosts(self):
        for url in self._both_hosts(registry=None):
            status, body = _get(url + "/healthz")
            assert status == 200
            assert json.loads(body)["status"] == "ok"

    def test_daemon_healthz_adds_engine_state(self, gated_daemon):
        daemon, engine, _solver = gated_daemon
        health = ServiceClient(daemon.url).healthz()
        assert health["workers"] == 2
        assert health["queue_depth"] == 8
        assert health["inflight"] == 0
        assert health["draining"] is False


class TestHttpSurface:
    def test_unknown_path_is_404(self, gated_daemon):
        daemon, _engine, _solver = gated_daemon
        status, _headers, body = ServiceClient(daemon.url).request(
            "GET", "/v2/solve")
        assert status == 404
        assert json.loads(body)["error"]["type"] == "NotFound"

    def test_wrong_method_is_405(self, gated_daemon):
        daemon, _engine, _solver = gated_daemon
        client = ServiceClient(daemon.url)
        assert client.request("GET", "/v1/solve")[0] == 405
        assert client.request("POST", "/healthz", b"{}")[0] == 405
        assert client.request("POST", "/v1/result/abc", b"{}")[0] == 405

    def test_invalid_json_is_400(self, gated_daemon):
        daemon, _engine, _solver = gated_daemon
        status, _headers, body = ServiceClient(daemon.url).request(
            "POST", "/v1/solve", b"{not json")
        assert status == 400
        assert "JSON" in json.loads(body)["error"]["message"]

    def test_malformed_game_is_400(self, gated_daemon):
        daemon, _engine, _solver = gated_daemon
        client = ServiceClient(daemon.url)
        status, _headers, body = client.request(
            "POST", "/v1/solve", json.dumps({"game": {"kind": "nope"}}).encode())
        assert status == 400
        assert json.loads(body)["error"]["type"] == "BadRequest"

    def test_unknown_option_is_400_with_detail(self, gated_daemon):
        daemon, _engine, _solver = gated_daemon
        body = small_body()
        body["options"] = {"turbo": True}
        with pytest.raises(ServiceError) as excinfo:
            ServiceClient(daemon.url).solve(
                body["game"], uncertainty=body["uncertainty"],
                options=body["options"])
        assert excinfo.value.status == 400
        assert "turbo" in excinfo.value.error["message"]

    def test_fresh_session_is_400(self, gated_daemon):
        daemon, _engine, _solver = gated_daemon
        body = small_body()
        with pytest.raises(ServiceError) as excinfo:
            ServiceClient(daemon.url).solve(
                body["game"], uncertainty=body["uncertainty"],
                options={"session": "fresh"})
        assert excinfo.value.status == 400
        assert "session" in excinfo.value.error["message"]

    def test_oversized_body_is_413(self, gated_daemon):
        daemon, _engine, _solver = gated_daemon
        from repro.service.daemon import MAX_BODY_BYTES

        client = ServiceClient(daemon.url)
        status, _h, _b = client.request(
            "POST", "/v1/solve", b"x",
            headers={"Content-Length": str(MAX_BODY_BYTES + 1)})
        assert status == 413

    def test_unknown_result_id_is_404(self, gated_daemon):
        daemon, _engine, _solver = gated_daemon
        with pytest.raises(ServiceError) as excinfo:
            ServiceClient(daemon.url).result("deadbeef")
        assert excinfo.value.status == 404

    def test_async_mode_roundtrip(self, gated_daemon):
        daemon, _engine, _solver = gated_daemon
        client = ServiceClient(daemon.url)
        body = small_body()
        accepted = client.solve(body["game"],
                                uncertainty=body["uncertainty"],
                                mode="async")
        assert set(accepted) >= {"id", "status"}
        deadline = time.monotonic() + 10.0
        state, payload = "pending", None
        while state == "pending" and time.monotonic() < deadline:
            state, payload = client.result(accepted["id"])
            if state == "pending":
                time.sleep(0.02)
        assert state == "done"
        assert payload["request_id"] == accepted["id"]

    def test_requests_metric_labels_endpoints(self, gated_daemon):
        daemon, engine, _solver = gated_daemon
        client = ServiceClient(daemon.url)
        client.healthz()
        body = small_body()
        client.solve(body["game"], uncertainty=body["uncertainty"])
        assert engine.metric_value("repro_service_requests_total",
                                   endpoint="/healthz") == 1
        assert engine.metric_value("repro_service_requests_total",
                                   endpoint="/v1/solve") == 1

    def test_service_request_events_are_recorded(self, gated_daemon):
        daemon, engine, _solver = gated_daemon
        ServiceClient(daemon.url).healthz()
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            events = [s for s in engine.telemetry.spans
                      if s.name == "service.request"]
            if events:
                break
            time.sleep(0.01)
        assert events, "expected a service.request event"
        assert events[-1].attributes["path"] == "/healthz"
        assert events[-1].attributes["status"] == 200


class TestVerifyEndpoint:
    def test_solve_then_verify_roundtrip(self):
        # A real (tiny) solve so the certificate checks have teeth.
        engine = SolveEngine(workers=1, queue_depth=4)
        with ServiceDaemon(engine, port=0) as daemon:
            client = ServiceClient(daemon.url, timeout=120.0)
            game = fixtures_games.small_interval_game()
            gd = game_to_dict(game)
            ud = uncertainty_to_dict(fixtures_games.small_suqr(game))
            solved = client.solve(gd, uncertainty=ud,
                                  options={"num_segments": 4})
            certificate = client.verify(gd, solved, uncertainty=ud)
            assert certificate["valid"] is True
            names = {check["name"] for check in certificate["checks"]}
            assert "strategy_box" in names and "value_in_bracket" in names

    def test_tampered_result_fails_verification(self):
        engine = SolveEngine(workers=1, queue_depth=4)
        with ServiceDaemon(engine, port=0) as daemon:
            client = ServiceClient(daemon.url, timeout=120.0)
            game = fixtures_games.small_interval_game()
            gd = game_to_dict(game)
            ud = uncertainty_to_dict(fixtures_games.small_suqr(game))
            solved = client.solve(gd, uncertainty=ud,
                                  options={"num_segments": 4})
            solved["worst_case_value"] = solved["worst_case_value"] + 5.0
            certificate = client.verify(gd, solved, uncertainty=ud)
            assert certificate["valid"] is False

    def test_verify_without_result_is_400(self, gated_daemon):
        daemon, _engine, _solver = gated_daemon
        status, _h, body = ServiceClient(daemon.url).request(
            "POST", "/v1/verify",
            json.dumps({"game": small_body()["game"]}).encode())
        assert status == 400
        assert "result" in json.loads(body)["error"]["message"]


class TestShutdown:
    def test_submit_after_close_raises_queue_closed(self):
        solver = GatedSolver()
        solver.gate.set()
        engine = SolveEngine(workers=1, queue_depth=2, solve_fn=solver)
        engine.close()
        with pytest.raises(QueueClosedError):
            engine.submit(small_body())

    def test_stop_drains_accepted_work(self):
        solver = GatedSolver()
        engine = SolveEngine(workers=1, queue_depth=8, solve_fn=solver)
        daemon = ServiceDaemon(engine, port=0).start()
        client = ServiceClient(daemon.url)
        body = small_body()
        accepted = client.solve(body["game"],
                                uncertainty=body["uncertainty"],
                                mode="async")
        assert solver.started.wait(10.0)
        # Open the gate from a delayed thread: stop() must block until
        # the in-flight job actually finishes, then report it as done.
        threading.Timer(0.2, solver.gate.set).start()
        daemon.stop()
        state, result = engine.lookup(accepted["id"])
        assert state == "done"
        assert result.status == 200
        assert engine.inflight == 0

    def test_stop_is_idempotent(self):
        solver = GatedSolver()
        solver.gate.set()
        engine = SolveEngine(workers=1, queue_depth=2, solve_fn=solver)
        daemon = ServiceDaemon(engine, port=0).start()
        daemon.stop()
        daemon.stop()  # second stop is a no-op, not an error
