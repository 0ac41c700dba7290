"""The concurrency battery: coalescing, byte identity, and backpressure.

Two layers:

* **Engine-level** tests drive :class:`SolveEngine` directly with a
  *gated* fake solver (an event the test releases), which makes the
  interleavings deterministic: every waiter is provably registered
  while the leader is still in flight, so the coalescing counters are
  exact, not statistical.
* **The acceptance demo** (ISSUE 9): 8 concurrent identical T=50 solve
  requests through the real daemon + client complete with exactly one
  oracle-backed solve, ``repro_service_coalesced_total == 7``, and all
  8 response payloads byte-identical.  This one needs no gate — the
  engine registers the in-flight entry atomically at admission, so
  every later identical submission coalesces no matter how the threads
  interleave (a completed leader would turn stragglers into cache
  hits, which the real solve's duration makes unreachable; the
  assertion is on the deterministic invariant ``coalesced == 7``).
"""

import json
import threading
import time
from types import SimpleNamespace

import pytest

from repro.game.generator import random_interval_game
from repro.service import RejectedError, SolveEngine
from repro.service.client import ServiceClient
from repro.service.daemon import ServiceDaemon
from repro.analysis.io import game_to_dict, uncertainty_to_dict
from tests import fixtures_games


def make_fake_result(value: float = -1.0, targets: int = 4):
    uniform = [1.0 / targets] * targets
    return SimpleNamespace(
        strategy=[0.25] * targets,
        worst_case_value=value,
        worst_case=SimpleNamespace(
            value=value, attack_distribution=uniform, attractiveness=uniform),
        lower_bound=value - 0.05,
        upper_bound=value + 0.05,
        epsilon=1e-3,
        num_segments=10,
        iterations=3,
        converged=True,
        degraded=False,
        session_mode="none",
        milp_solves=1,
        lp_solves=0,
        cache_hits=0,
    )


class GatedSolver:
    """A fake solve_fn that blocks until the test opens the gate."""

    def __init__(self) -> None:
        self.gate = threading.Event()
        self.started = threading.Event()
        self.calls = 0
        self._lock = threading.Lock()

    def __call__(self, game, uncertainty, options, **_kwargs):
        with self._lock:
            self.calls += 1
        self.started.set()
        assert self.gate.wait(30.0), "test never opened the gate"
        return make_fake_result(value=-float(options["num_segments"]))


def small_body(**options) -> dict:
    game = fixtures_games.small_interval_game()
    body = {
        "game": game_to_dict(game),
        "uncertainty": uncertainty_to_dict(fixtures_games.small_suqr(game)),
    }
    if options:
        body["options"] = options
    return body


def distinct_bodies(count: int) -> list[dict]:
    """`count` bodies over semantically different games."""
    bodies = []
    for index in range(count):
        body = small_body()
        body["game"]["defender_reward"][0] += 0.5 * (index + 1)
        bodies.append(body)
    return bodies


class TestEngineCoalescing:
    N = 12

    def test_n_identical_concurrent_requests_one_solve(self):
        solver = GatedSolver()
        engine = SolveEngine(workers=2, queue_depth=8, solve_fn=solver)
        try:
            barrier = threading.Barrier(self.N)
            tickets = [None] * self.N

            def submit(slot: int) -> None:
                barrier.wait()
                tickets[slot] = engine.submit(small_body())

            threads = [threading.Thread(target=submit, args=(i,))
                       for i in range(self.N)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10.0)
            assert all(ticket is not None for ticket in tickets)
            # Every submission has been classified before we open the
            # gate, so the counter assertions below are exact.
            solver.gate.set()
            results = [ticket.wait(timeout=30.0) for ticket in tickets]

            assert solver.calls == 1
            assert all(result is not None and result.status == 200
                       for result in results)
            # Byte identity is structural: one bytes object, N waiters.
            assert all(result.body is results[0].body for result in results)
            assert engine.metric_value(
                "repro_service_coalesced_total") == self.N - 1
            assert engine.metric_value("repro_service_solves_total") == 1
            assert sum(ticket.coalesced for ticket in tickets) == self.N - 1
        finally:
            solver.gate.set()
            engine.close()

    def test_payloads_decode_identically_and_report_waiters(self):
        solver = GatedSolver()
        engine = SolveEngine(workers=1, queue_depth=4, solve_fn=solver)
        try:
            first = engine.submit(small_body())
            assert solver.started.wait(10.0)
            second = engine.submit(small_body())
            solver.gate.set()
            a = first.wait(10.0)
            b = second.wait(10.0)
            assert a.body == b.body
            payload = json.loads(a.body)
            assert payload["coalesced_waiters"] == 1
        finally:
            solver.gate.set()
            engine.close()

    def test_cache_hit_after_completion(self):
        solver = GatedSolver()
        solver.gate.set()
        engine = SolveEngine(workers=1, queue_depth=4, solve_fn=solver)
        try:
            first = engine.submit(small_body())
            assert first.wait(10.0).status == 200
            again = engine.submit(small_body())
            assert again.cached and again.done
            assert again.wait(0.0).body == first.wait(0.0).body
            assert solver.calls == 1
            assert engine.metric_value("repro_service_cache_hits_total") == 1
            assert engine.metric_value("repro_service_coalesced_total") == 0
        finally:
            engine.close()

    def test_different_options_do_not_coalesce(self):
        solver = GatedSolver()
        engine = SolveEngine(workers=2, queue_depth=8, solve_fn=solver)
        try:
            t1 = engine.submit(small_body(num_segments=4))
            t2 = engine.submit(small_body(num_segments=8))
            solver.gate.set()
            r1, r2 = t1.wait(10.0), t2.wait(10.0)
            assert solver.calls == 2
            assert json.loads(r1.body)["worst_case_value"] != \
                json.loads(r2.body)["worst_case_value"]
            assert engine.metric_value("repro_service_coalesced_total") == 0
        finally:
            solver.gate.set()
            engine.close()


class TestBackpressure:
    def test_full_queue_rejects_deterministically(self):
        solver = GatedSolver()
        engine = SolveEngine(workers=1, queue_depth=2, solve_fn=solver)
        try:
            bodies = distinct_bodies(5)
            leader = engine.submit(bodies[0])
            assert solver.started.wait(10.0)  # worker busy, queue empty
            queued = [engine.submit(bodies[1]), engine.submit(bodies[2])]
            # Queue is now at its bound: everything further is a 429.
            for body in bodies[3:]:
                with pytest.raises(RejectedError) as excinfo:
                    engine.submit(body)
                assert excinfo.value.reason == "queue_full"
                assert excinfo.value.retry_after > 0
            assert engine.queue_size <= engine.queue_depth == 2
            assert engine.metric_value(
                "repro_service_rejected_total", reason="queue_full") == 2

            solver.gate.set()
            results = [t.wait(30.0) for t in [leader, *queued]]
            # No lost or duplicated results: every accepted request
            # resolves 200 with its own id, rejected ones left no trace.
            assert [r.status for r in results] == [200, 200, 200]
            ids = [json.loads(r.body)["request_id"] for r in results]
            assert len(set(ids)) == 3
            assert engine.metric_value("repro_service_solves_total") == 3
            assert engine.inflight == 0
        finally:
            solver.gate.set()
            engine.close()

    def test_rejected_request_can_be_resubmitted_later(self):
        solver = GatedSolver()
        engine = SolveEngine(workers=1, queue_depth=1, solve_fn=solver)
        try:
            bodies = distinct_bodies(3)
            leader = engine.submit(bodies[0])
            assert solver.started.wait(10.0)
            engine.submit(bodies[1])
            with pytest.raises(RejectedError):
                engine.submit(bodies[2])
            solver.gate.set()
            assert leader.wait(10.0).status == 200
            # Capacity freed: the formerly-rejected request is welcome.
            retried = engine.submit(bodies[2])
            assert retried.wait(10.0).status == 200
        finally:
            solver.gate.set()
            engine.close()

    def test_quota_rejections_are_per_tenant(self):
        solver = GatedSolver()
        solver.gate.set()
        engine = SolveEngine(workers=1, queue_depth=8, solve_fn=solver,
                             quota_rate=0.001, quota_burst=1)
        try:
            bodies = distinct_bodies(3)
            assert engine.submit(bodies[0], tenant="alice").wait(10.0).status == 200
            with pytest.raises(RejectedError) as excinfo:
                engine.submit(bodies[1], tenant="alice")
            assert excinfo.value.reason == "quota"
            assert excinfo.value.retry_after > 0
            # bob has his own bucket.
            assert engine.submit(bodies[1], tenant="bob").wait(10.0).status == 200
            assert engine.metric_value(
                "repro_service_rejected_total", reason="quota") == 1
        finally:
            engine.close()

    def test_cache_hits_and_coalesced_joins_bypass_quota(self):
        solver = GatedSolver()
        engine = SolveEngine(workers=1, queue_depth=8, solve_fn=solver,
                             quota_rate=0.001, quota_burst=1)
        try:
            first = engine.submit(small_body(), tenant="alice")
            assert solver.started.wait(10.0)
            # Identical request: coalesces, costs no token.
            joined = engine.submit(small_body(), tenant="alice")
            assert joined.coalesced
            solver.gate.set()
            assert first.wait(10.0).status == 200
            # Identical again after completion: cache hit, still free.
            cached = engine.submit(small_body(), tenant="alice")
            assert cached.cached
            # A *different* solve is what exhausts the bucket.
            with pytest.raises(RejectedError):
                engine.submit(distinct_bodies(1)[0], tenant="alice")
        finally:
            solver.gate.set()
            engine.close()


class TestWarmBank:
    def test_second_solve_on_same_instance_reuses_certificates(self):
        # Same game + uncertainty, different accuracy options: distinct
        # request hashes (no coalescing, no cache hit), but the second
        # solve is seeded from the first one's StrategyCertificate pool
        # via the warm bank.
        engine = SolveEngine(workers=1, queue_depth=4)
        try:
            first = engine.submit(small_body(num_segments=4))
            assert first.wait(60.0).status == 200
            second = engine.submit(small_body(num_segments=6))
            result = second.wait(60.0)
            assert result.status == 200
            assert engine.metric_value("repro_service_warm_hits_total") == 1
            assert engine.metric_value("repro_service_cache_hits_total") == 0
            assert engine.metric_value("repro_service_solves_total") == 2
        finally:
            engine.close()


class TestAcceptanceDemo:
    """ISSUE 9 acceptance: 8 identical T=50 requests, 1 real solve."""

    def test_eight_identical_t50_requests_one_oracle_backed_solve(self):
        game = random_interval_game(50, seed=9)
        body = {
            "game": game_to_dict(game),
            "options": {"num_segments": 6, "epsilon": 0.01},
        }
        engine = SolveEngine(workers=2, queue_depth=16)
        with ServiceDaemon(engine, port=0) as daemon:
            client = ServiceClient(daemon.url, timeout=300.0)
            barrier = threading.Barrier(8)
            raw: list = [None] * 8

            def fire(slot: int) -> None:
                barrier.wait()
                raw[slot] = client.request(
                    "POST", "/v1/solve", json.dumps(body).encode())

            threads = [threading.Thread(target=fire, args=(i,))
                       for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300.0)

            statuses = [entry[0] for entry in raw]
            payloads = [entry[2] for entry in raw]
            assert statuses == [200] * 8
            # Byte-identical: all eight waiters share the leader's body.
            assert len(set(payloads)) == 1
            decoded = json.loads(payloads[0])
            assert decoded["num_segments"] == 6
            assert len(decoded["strategy"]) == 50

            metrics = client.metrics_text()
            assert "repro_service_solves_total 1" in metrics
            assert "repro_service_coalesced_total 7" in metrics
            assert engine.metric_value("repro_service_solves_total") == 1
            assert engine.metric_value("repro_service_coalesced_total") == 7

    def test_full_queue_returns_429_without_exceeding_the_bound(self):
        solver = GatedSolver()
        engine = SolveEngine(workers=1, queue_depth=2, solve_fn=solver)
        with ServiceDaemon(engine, port=0) as daemon:
            client = ServiceClient(daemon.url, timeout=60.0)
            bodies = distinct_bodies(6)
            first = client.solve(bodies[0]["game"],
                                 uncertainty=bodies[0]["uncertainty"],
                                 mode="async")
            assert solver.started.wait(10.0)
            for body in bodies[1:3]:
                client.solve(body["game"], uncertainty=body["uncertainty"],
                             mode="async")
            rejected = 0
            for body in bodies[3:]:
                status, headers, payload = client.request(
                    "POST", "/v1/solve", json.dumps(body).encode())
                assert status == 429
                retry_after = {k.lower(): v for k, v in headers.items()}[
                    "retry-after"]
                assert float(retry_after) >= 1
                assert json.loads(payload)["error"]["reason"] == "queue_full"
                rejected += 1
                assert engine.queue_size <= engine.queue_depth
            assert rejected == 3
            solver.gate.set()
            deadline = time.monotonic() + 30.0
            while engine.inflight and time.monotonic() < deadline:
                time.sleep(0.02)
            assert engine.inflight == 0
            state, payload = client.result(first["id"])
            assert state == "done"
            assert engine.metric_value(
                "repro_service_rejected_total", reason="queue_full") == 3
