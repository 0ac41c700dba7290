"""Fault injection against the service: structured 503s, the resilience
attempt trail, queue drainability, and redispatch-once semantics.

The "worker death" scenarios use the existing
:class:`repro.resilience.faults.FaultInjector` at failure rate 1.0 over
MILP-only ladders (no DP survivor), so every rung of every attempt
dies and the engine must surface a structured error instead of hanging
or poisoning the queue.  Redispatch semantics use scripted solvers for
exact call counts.
"""

import json
import threading
import time
from types import SimpleNamespace

import pytest

from repro.analysis.io import game_to_dict, uncertainty_to_dict
from repro.resilience.faults import FaultInjector, injected_policy
from repro.resilience.policy import ResiliencePolicy, Rung
from repro.service import SolveEngine
from repro.service.client import ServiceClient
from repro.service.daemon import ServiceDaemon
from tests import fixtures_games
from tests.test_service_coalescing import (
    GatedSolver,
    distinct_bodies,
    make_fake_result,
    small_body,
)


def doomed_policy_factory(seed: int = 1):
    """A policy factory whose ladder always dies (MILP-only rungs, all
    wrapped by an always-error injector) — but only for requests that
    asked for resilience, so ``resilience=False`` requests run clean
    and prove the queue survived."""
    injector = FaultInjector(1.0, modes=("error",), seed=seed)
    base = ResiliencePolicy(
        rungs=(Rung("milp", "highs"), Rung("milp", "bnb")), max_retries=0)
    doomed = injected_policy(injector, base)

    def factory(options):
        return doomed if options["resilience"] else None

    return factory


class FlakySolver:
    """Scripted solve_fn: the first ``fail_times`` calls raise, later
    calls succeed; optionally gated so a coalesced group can assemble
    before the first failure fires."""

    def __init__(self, fail_times: int, gated: bool = False) -> None:
        self.fail_times = fail_times
        self.calls = 0
        self.started = threading.Event()
        self.gate = threading.Event()
        if not gated:
            self.gate.set()
        self._lock = threading.Lock()

    def __call__(self, game, uncertainty, options, **_kwargs):
        with self._lock:
            self.calls += 1
            call = self.calls
        self.started.set()
        assert self.gate.wait(30.0)
        if call <= self.fail_times:
            raise RuntimeError(f"injected worker death #{call}")
        return make_fake_result()


class TestStructured503:
    def test_ladder_exhaustion_returns_503_with_attempt_trail(self):
        engine = SolveEngine(workers=1, queue_depth=4,
                             policy_factory=doomed_policy_factory())
        try:
            ticket = engine.submit(small_body())
            result = ticket.wait(60.0)
            assert result is not None and result.status == 503
            detail = json.loads(result.body)["error"]
            assert detail["type"] == "LadderExhaustedError"
            # The resilience attempt trail: both rungs tried, both died.
            attempts = detail["attempts"]
            assert len(attempts) >= 2
            assert {a["outcome"] for a in attempts} == {"error"}
            assert {a["rung"] for a in attempts} == {0, 1}
            assert all("injected" in a["message"] for a in attempts)
        finally:
            engine.close()

    def test_queue_stays_drainable_after_worker_death(self):
        engine = SolveEngine(workers=1, queue_depth=4,
                             policy_factory=doomed_policy_factory())
        try:
            dead = engine.submit(small_body())
            assert dead.wait(60.0).status == 503
            assert engine.inflight == 0
            # Same instance, resilience off -> the doomed factory steps
            # aside and the solve must succeed on the same queue/worker.
            survivor = engine.submit(small_body(resilience=False))
            result = survivor.wait(60.0)
            assert result is not None and result.status == 200
            assert engine.metric_value("repro_service_errors_total") == 1
            assert engine.metric_value("repro_service_solves_total") == 1
        finally:
            engine.close()

    def test_failures_are_never_cached(self):
        solver = FlakySolver(fail_times=1)
        engine = SolveEngine(workers=1, queue_depth=4, solve_fn=solver)
        try:
            first = engine.submit(small_body())
            assert first.wait(10.0).status == 503
            # Identical resubmission: no cache hit, a fresh solve runs
            # (and this time the script lets it succeed).
            second = engine.submit(small_body())
            assert not second.cached
            assert second.wait(10.0).status == 200
            assert engine.metric_value("repro_service_cache_hits_total") == 0
        finally:
            engine.close()

    def test_daemon_maps_worker_death_to_http_503(self):
        engine = SolveEngine(workers=1, queue_depth=4,
                             policy_factory=doomed_policy_factory())
        with ServiceDaemon(engine, port=0) as daemon:
            client = ServiceClient(daemon.url, timeout=120.0)
            body = small_body()
            status, _headers, payload = client.request(
                "POST", "/v1/solve", json.dumps(body).encode())
            assert status == 503
            detail = json.loads(payload)["error"]
            assert detail["type"] == "LadderExhaustedError"
            assert detail["attempts"], "503 must carry the attempt trail"
            # The daemon keeps serving after the failure.
            assert client.healthz()["status"] == "ok"


class TestRedispatch:
    def test_coalesced_group_redispatches_once_then_succeeds(self):
        solver = FlakySolver(fail_times=1, gated=True)
        engine = SolveEngine(workers=1, queue_depth=4, solve_fn=solver)
        try:
            leader = engine.submit(small_body())
            assert solver.started.wait(10.0)
            waiters = [engine.submit(small_body()) for _ in range(2)]
            assert all(w.coalesced for w in waiters)
            solver.gate.set()
            results = [t.wait(30.0) for t in [leader, *waiters]]
            # First execution died, the group was re-dispatched once,
            # the retry succeeded: everyone gets the same 200 bytes.
            assert solver.calls == 2
            assert [r.status for r in results] == [200, 200, 200]
            assert all(r.body is results[0].body for r in results)
            assert engine.metric_value("repro_service_redispatch_total") == 1
            assert engine.metric_value("repro_service_errors_total") == 0
        finally:
            solver.gate.set()
            engine.close()

    def test_redispatch_happens_at_most_once(self):
        solver = FlakySolver(fail_times=99, gated=True)  # never recovers
        engine = SolveEngine(workers=1, queue_depth=4, solve_fn=solver)
        try:
            leader = engine.submit(small_body())
            assert solver.started.wait(10.0)
            waiters = [engine.submit(small_body()) for _ in range(2)]
            solver.gate.set()
            results = [t.wait(30.0) for t in [leader, *waiters]]
            # Exactly two executions (original + one redispatch) — the
            # group is not retried forever, and nobody fails silently:
            # every waiter gets the structured 503.
            assert solver.calls == 2
            assert [r.status for r in results] == [503, 503, 503]
            assert all(r.body is results[0].body for r in results)
            detail = json.loads(results[0].body)["error"]
            assert "injected worker death" in detail["message"]
            assert engine.metric_value("repro_service_redispatch_total") == 1
            assert engine.metric_value("repro_service_errors_total") == 1
        finally:
            solver.gate.set()
            engine.close()

    def test_solo_failure_does_not_redispatch(self):
        solver = FlakySolver(fail_times=99)
        engine = SolveEngine(workers=1, queue_depth=4, solve_fn=solver)
        try:
            ticket = engine.submit(small_body())
            assert ticket.wait(10.0).status == 503
            assert solver.calls == 1  # no waiters -> no second chance
            assert engine.metric_value("repro_service_redispatch_total") == 0
        finally:
            engine.close()


class TestTimeouts:
    def test_overrun_returns_503_and_is_not_cached(self):
        def slow_solve(game, uncertainty, options, **_kwargs):
            time.sleep(0.2)
            return make_fake_result()

        engine = SolveEngine(workers=1, queue_depth=4, solve_fn=slow_solve,
                             request_timeout=0.05)
        try:
            ticket = engine.submit(small_body())
            result = ticket.wait(10.0)
            assert result.status == 503
            detail = json.loads(result.body)["error"]
            assert detail["type"] == "Timeout"
            assert "request budget" in detail["message"]
            # Not cached: a resubmission runs (and overruns) again.
            assert not engine.submit(small_body()).cached
            assert engine.metric_value("repro_service_cache_hits_total") == 0
        finally:
            engine.close()

    def test_timeout_does_not_redispatch_a_group(self):
        solver = GatedSolver()
        calls = []

        def slow_solve(game, uncertainty, options, **kwargs):
            calls.append(1)
            out = solver(game, uncertainty, options, **kwargs)
            time.sleep(0.1)
            return out

        engine = SolveEngine(workers=1, queue_depth=4, solve_fn=slow_solve,
                             request_timeout=0.05)
        try:
            leader = engine.submit(small_body())
            assert solver.started.wait(10.0)
            waiter = engine.submit(small_body())
            solver.gate.set()
            results = [leader.wait(10.0), waiter.wait(10.0)]
            # An overrun would overrun again: fail the group now rather
            # than burn a second worker slot.
            assert len(calls) == 1
            assert [r.status for r in results] == [503, 503]
        finally:
            solver.gate.set()
            engine.close()
