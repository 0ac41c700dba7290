"""Service-level tests for the standing-resolve pipeline.

Three layers: request canonicalisation and the standing/shape keys
(pure functions), the engine's ``submit_resolve`` path driving real
small-game solves against per-tenant standing handles, and the HTTP
surface (``POST /v1/resolve`` through the daemon + client, with the
``repro_resolve_*`` counters visible on ``/metrics``).
"""

import json

import pytest

from repro.analysis.io import game_to_dict, uncertainty_to_dict
from repro.behavior.interval import BandScaledModel
from repro.service import SolveEngine
from repro.service.client import ServiceClient
from repro.service.daemon import ServiceDaemon
from repro.service.requests import (
    RequestError,
    canonicalize_resolve_request,
    instance_hash,
    shape_hash,
    standing_key,
)
from tests import fixtures_games


def resolve_body(factor=None, **options) -> dict:
    """A small-game resolve request; ``factor`` band-scales the bands."""
    game = fixtures_games.small_interval_game()
    uncertainty = fixtures_games.small_suqr(game)
    if factor is not None:
        uncertainty = BandScaledModel(uncertainty, factor)
    body = {
        "game": game_to_dict(game),
        "uncertainty": uncertainty_to_dict(uncertainty),
    }
    if options:
        body["options"] = options
    return body


def resolve_payload(ticket) -> dict:
    result = ticket.wait(timeout=60.0)
    assert result.status == 200, result.body
    return json.loads(result.body)


class TestCanonicalizeResolveRequest:
    def test_rejects_standing_incompatible_options(self):
        for key, value in (("oracle", "dp"), ("resilience", True),
                           ("session", "fresh")):
            with pytest.raises(RequestError, match="not supported"):
                canonicalize_resolve_request(resolve_body(**{key: value}))

    def test_disables_resilience_in_canonical_form(self):
        canonical = canonicalize_resolve_request(resolve_body())
        assert canonical["options"]["resilience"] is False

    def test_standing_key_survives_drift_but_not_tenant_or_options(self):
        base = canonicalize_resolve_request(resolve_body())
        drifted = canonicalize_resolve_request(resolve_body(factor=0.9))
        # Drift changes the instance but not the standing session's key.
        assert instance_hash(base) != instance_hash(drifted)
        assert standing_key(base, "a") == standing_key(drifted, "a")
        assert standing_key(base, "a") != standing_key(base, "b")
        other = canonicalize_resolve_request(resolve_body(num_segments=8))
        assert standing_key(base, "a") != standing_key(other, "a")

    def test_shape_hash_ignores_uncertainty(self):
        base = canonicalize_resolve_request(resolve_body())
        drifted = canonicalize_resolve_request(resolve_body(factor=0.8))
        assert shape_hash(base) == shape_hash(drifted)


class TestEngineResolve:
    """submit_resolve drives real (small, fast) solves — the standing
    handle, drift classification, and counters are the product surface."""

    def make_engine(self, workers=1):
        return SolveEngine(workers=workers, queue_depth=8,
                           solve_fn=lambda *a, **k: None)

    def test_first_request_starts_standing_then_reenters(self):
        engine = self.make_engine()
        try:
            first = resolve_payload(engine.submit_resolve(resolve_body()))
            assert first["resolve"]["standing"] is False
            assert first["resolve"]["drift"] is None
            assert engine.metric_value(
                "repro_service_standing_started_total") == 1

            second = resolve_payload(
                engine.submit_resolve(resolve_body(factor=0.9)))
            assert second["resolve"]["standing"] is True
            assert second["resolve"]["drift"]["kind"] == "shrink"
            assert second["resolve"]["bracket_reused"] is True
            assert engine.metric_value(
                "repro_service_standing_started_total") == 1
            assert engine.metric_value("repro_resolve_solves_total") == 1
            assert engine.metric_value("repro_resolve_bracket_reuses_total") == 1
        finally:
            engine.close()

    def test_widening_drift_reported_without_bracket_reuse(self):
        engine = self.make_engine()
        try:
            resolve_payload(engine.submit_resolve(resolve_body()))
            widened = resolve_payload(
                engine.submit_resolve(resolve_body(factor=1.2)))
            assert widened["resolve"]["drift"]["kind"] == "widen"
            assert widened["resolve"]["bracket_reused"] is False
            assert engine.metric_value("repro_resolve_bracket_reuses_total") == 0
        finally:
            engine.close()

    def test_identical_resolve_request_is_cached(self):
        engine = self.make_engine()
        try:
            body = resolve_body(factor=0.95)
            first = engine.submit_resolve(body)
            resolve_payload(first)
            second = engine.submit_resolve(body)
            assert second.cached
            assert resolve_payload(second) == resolve_payload(first)
        finally:
            engine.close()

    def test_tenants_get_separate_standing_sessions(self):
        engine = self.make_engine()
        try:
            resolve_payload(engine.submit_resolve(resolve_body(), tenant="a"))
            other = resolve_payload(
                engine.submit_resolve(resolve_body(), tenant="b"))
            # Same instance, different tenant: a fresh standing handle,
            # never the other tenant's live solver state.
            assert other["resolve"]["standing"] is False
            assert engine.metric_value(
                "repro_service_standing_started_total") == 2
        finally:
            engine.close()

    def test_resolve_sequence_agrees_with_cold_solve(self):
        """The served answer lands within the Theorem 1 slack of a local
        cold solve of the final intervals — the service adds routing and
        warm hints, never looser semantics.  (Exact bit-identity holds
        only for identical hints; that contract is pinned in
        tests/test_solvers_resolve.py.)"""
        from repro.analysis.io import game_from_dict, uncertainty_from_dict
        from repro.core.cubis import solve_cubis
        from repro.resilience.certificate import theorem_slack

        engine = self.make_engine()
        try:
            resolve_payload(engine.submit_resolve(resolve_body()))
            final = resolve_payload(
                engine.submit_resolve(resolve_body(factor=0.81)))
            body = resolve_body(factor=0.81)
            game = game_from_dict(body["game"])
            uncertainty = uncertainty_from_dict(
                body["uncertainty"], game.payoffs)
            cold = solve_cubis(game, uncertainty, num_segments=10,
                               epsilon=1e-3)
            slack = theorem_slack(game, 1e-3, 10)
            assert abs(
                final["worst_case_value"] - float(cold.worst_case_value)
            ) <= slack
        finally:
            engine.close()


class TestResolveHttp:
    @pytest.fixture()
    def daemon(self):
        engine = SolveEngine(workers=1, queue_depth=8,
                             solve_fn=lambda *a, **k: None)
        daemon = ServiceDaemon(engine, port=0).start()
        try:
            yield daemon
        finally:
            daemon.stop()

    def test_resolve_roundtrip_and_metrics(self, daemon):
        client = ServiceClient(daemon.url)
        body = resolve_body()
        first = client.resolve(body["game"], uncertainty=body["uncertainty"])
        assert first["resolve"]["standing"] is False

        drifted = resolve_body(factor=0.9)
        second = client.resolve(
            drifted["game"], uncertainty=drifted["uncertainty"])
        assert second["resolve"]["standing"] is True
        assert second["resolve"]["drift"]["kind"] == "shrink"

        metrics = client.metrics_text()
        assert "repro_resolve_solves_total 1" in metrics
        assert "repro_resolve_bracket_reuses_total 1" in metrics

    def test_incompatible_options_rejected_with_400(self, daemon):
        from repro.service.client import ServiceError

        client = ServiceClient(daemon.url)
        body = resolve_body()
        with pytest.raises(ServiceError) as excinfo:
            client.resolve(body["game"], uncertainty=body["uncertainty"],
                           options={"oracle": "dp"})
        assert excinfo.value.status == 400
