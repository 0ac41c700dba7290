"""Property tests for the daemon's canonical request hashing.

The coalescing key (``repro.service.requests``) must satisfy two
families of properties:

* **Invariance** — JSON key order, equivalent numeric spellings
  (``2`` vs ``2.0``), and spelled-out-default options must not change
  the hash: all of these describe the same solve and must share one
  in-flight entry.
* **Distinctness** — any semantically different game / uncertainty /
  solver-options triple must hash differently, or the service would
  hand one tenant another tenant's answer.

Validation behaviour (400s) is covered at the bottom: canonicalisation
is also the daemon's input firewall.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.requests import (
    RequestError,
    SOLVE_OPTION_SPEC,
    canonicalize_request,
    instance_hash,
    request_hash,
)
from tests import fixtures_games


def _body(game=None, **extra) -> dict:
    """A valid request body over the small fixture instance."""
    from repro.analysis.io import game_to_dict, uncertainty_to_dict

    game = game if game is not None else fixtures_games.small_interval_game()
    body = {
        "game": game_to_dict(game),
        "uncertainty": uncertainty_to_dict(fixtures_games.small_suqr(game)),
    }
    body.update(extra)
    return body


def _shuffle_keys(obj, rng):
    """Deep copy with every mapping's key order permuted."""
    if isinstance(obj, dict):
        keys = list(obj)
        rng.shuffle(keys)
        return {key: _shuffle_keys(obj[key], rng) for key in keys}
    if isinstance(obj, list):
        return [_shuffle_keys(item, rng) for item in obj]
    return obj


def _respell_numbers(obj):
    """Deep copy spelling every integral float as int and every int as
    float — the JSON-number ambiguity the hash must absorb."""
    if isinstance(obj, dict):
        return {key: _respell_numbers(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [_respell_numbers(item) for item in obj]
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float) and obj == int(obj):
        return int(obj)
    if isinstance(obj, int):
        return float(obj)
    return obj


class TestInvariance:
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25)
    def test_key_order_invariant(self, seed):
        import random

        body = _body(options={"num_segments": 8, "epsilon": 0.01})
        shuffled = _shuffle_keys(body, random.Random(seed))
        # Sanity: the shuffle really produced a different JSON encoding
        # at least sometimes; equality of hashes is the property.
        assert request_hash(canonicalize_request(body)) == \
            request_hash(canonicalize_request(shuffled))

    def test_numeric_spelling_invariant(self):
        body = _body(options={"num_segments": 8, "epsilon": 0.5,
                              "execution_alpha": 0.0})
        respelled = _respell_numbers(json.loads(json.dumps(body)))
        # The JSON *texts* genuinely differ (dict equality would say
        # equal: Python's 8 == 8.0) — that is exactly the ambiguity the
        # hash must absorb.
        assert json.dumps(body, sort_keys=True) != \
            json.dumps(respelled, sort_keys=True)
        assert request_hash(canonicalize_request(body)) == \
            request_hash(canonicalize_request(respelled))

    def test_defaults_spelled_out_coalesce_with_omitted(self):
        defaults = {name: spec[1] for name, spec in SOLVE_OPTION_SPEC.items()}
        explicit = canonicalize_request(_body(options=defaults))
        omitted = canonicalize_request(_body())
        assert request_hash(explicit) == request_hash(omitted)

    def test_envelope_fields_do_not_hash(self):
        plain = canonicalize_request(_body())
        enveloped = canonicalize_request(
            _body(tenant="acme", mode="async"))
        assert request_hash(plain) == request_hash(enveloped)

    def test_default_uncertainty_coalesces_with_explicit(self):
        from repro.analysis.io import uncertainty_to_dict
        from repro.experiments.quality import default_uncertainty

        game = fixtures_games.small_interval_game()
        body_omitted = _body(game)
        del body_omitted["uncertainty"]
        body_explicit = _body(game)
        body_explicit["uncertainty"] = uncertainty_to_dict(
            default_uncertainty(game.payoffs))
        assert request_hash(canonicalize_request(body_omitted)) == \
            request_hash(canonicalize_request(body_explicit))

    def test_hash_is_deterministic_across_calls(self):
        body = _body()
        assert request_hash(canonicalize_request(body)) == \
            request_hash(canonicalize_request(body))


@st.composite
def _payoff_perturbation(draw):
    """(field, index, delta) touching one payoff entry of the 4-target
    fixture game."""
    field = draw(st.sampled_from([
        "defender_reward", "defender_penalty",
        "attacker_reward_lo", "attacker_reward_hi",
        "attacker_penalty_lo", "attacker_penalty_hi",
    ]))
    index = draw(st.integers(min_value=0, max_value=3))
    delta = draw(st.sampled_from([-0.75, -0.25, 0.125, 0.5, 1.0]))
    return field, index, delta


class TestDistinctness:
    @given(perturbation=_payoff_perturbation())
    @settings(max_examples=40)
    def test_any_payoff_change_changes_the_hash(self, perturbation):
        field, index, delta = perturbation
        base = _body()
        changed = json.loads(json.dumps(base))
        changed["game"][field][index] += delta
        # Interval games must stay ordered lo <= hi; skip draws that
        # break validity (they are 400s, not hash-collision material).
        try:
            canonical_changed = canonicalize_request(changed)
        except RequestError:
            return
        assert request_hash(canonicalize_request(base)) != \
            request_hash(canonical_changed)

    @given(
        which=st.sampled_from(["w1", "w2", "w3"]),
        end=st.integers(min_value=0, max_value=1),
        delta=st.sampled_from([0.01, 0.05, 0.125]),
    )
    @settings(max_examples=30)
    def test_any_uncertainty_change_changes_the_hash(self, which, end, delta):
        base = _body()
        changed = json.loads(json.dumps(base))
        box = changed["uncertainty"][which]
        # Widen the box (lo down / hi up): always a valid, semantically
        # different uncertainty model.
        if end == 0:
            box[0] = box[0] - delta
        else:
            box[1] = box[1] + delta
        assert request_hash(canonicalize_request(base)) != \
            request_hash(canonicalize_request(changed))

    @pytest.mark.parametrize("option, other", [
        ("num_segments", 12), ("epsilon", 0.1), ("backend", "bnb"),
        ("oracle", "dp"), ("equality_resources", True),
        ("execution_alpha", 0.05), ("session", "incremental"),
        ("resilience", False),
    ])
    def test_every_option_is_hash_significant(self, option, other):
        default = {name: spec[1] for name, spec in SOLVE_OPTION_SPEC.items()}
        assert default[option] != other
        # session='incremental' is only legal with resilience=false, so
        # both sides of that case pin it.
        pinned = {"resilience": False} if option == "session" else {}
        base = canonicalize_request(_body(options=pinned))
        changed = canonicalize_request(_body(options={**pinned, option: other}))
        assert request_hash(base) != request_hash(changed)

    def test_resource_count_is_hash_significant(self):
        base = _body()
        changed = json.loads(json.dumps(base))
        changed["game"]["num_resources"] = base["game"]["num_resources"] + 1
        assert request_hash(canonicalize_request(base)) != \
            request_hash(canonicalize_request(changed))

    def test_options_do_not_leak_into_the_instance_hash(self):
        base = canonicalize_request(_body())
        changed = canonicalize_request(_body(options={"num_segments": 20}))
        assert instance_hash(base) == instance_hash(changed)
        assert request_hash(base) != request_hash(changed)


class TestValidation:
    def test_point_game_rejected(self):
        from repro.analysis.io import game_to_dict

        body = {"game": game_to_dict(fixtures_games.simple_point_game())}
        with pytest.raises(RequestError, match="interval game"):
            canonicalize_request(body)

    def test_unknown_option_rejected(self):
        with pytest.raises(RequestError, match="unknown solve options"):
            canonicalize_request(_body(options={"turbo": True}))

    def test_unknown_top_level_field_rejected(self):
        with pytest.raises(RequestError, match="unknown request fields"):
            canonicalize_request(_body(games="typo"))

    def test_non_integral_segments_rejected(self):
        with pytest.raises(RequestError, match="integral"):
            canonicalize_request(_body(options={"num_segments": 7.5}))

    def test_bad_enum_rejected(self):
        with pytest.raises(RequestError, match="backend"):
            canonicalize_request(_body(options={"backend": "cplex"}))

    def test_incremental_with_resilience_rejected(self):
        with pytest.raises(RequestError, match="incompatible"):
            canonicalize_request(
                _body(options={"session": "incremental", "resilience": True}))

    def test_incremental_without_resilience_accepted(self):
        canonical = canonicalize_request(
            _body(options={"session": "incremental", "resilience": False}))
        assert canonical["options"]["session"] == "incremental"

    def test_fresh_session_rejected(self):
        # memoise=False is not a service option, so there is no fresh
        # pipeline to ask for.
        with pytest.raises(RequestError, match="'session'"):
            canonicalize_request(_body(options={"session": "fresh"}))

    def test_speculation_key_kept_but_only_default_accepted(self):
        # The default body's hash is pinned to the value it had while
        # k-ary bisection still existed: dropping the feature must not
        # re-key any cached or in-flight request.
        pinned = "e27cf99b0b7a6affa810d99088a26a9638885f886d5e1aa4c063542ab704d949"
        assert request_hash(canonicalize_request(_body())) == pinned
        spelled = canonicalize_request(_body(options={"speculation": 1}))
        assert request_hash(spelled) == pinned
        with pytest.raises(RequestError, match="speculation must be 1"):
            canonicalize_request(_body(options={"speculation": 2}))

    def test_missing_game_rejected(self):
        with pytest.raises(RequestError, match="'game'"):
            canonicalize_request({"options": {}})

    def test_non_finite_payoffs_rejected(self):
        body = _body()
        body["game"]["defender_reward"][0] = float("inf")
        with pytest.raises(RequestError, match="finite"):
            canonicalize_request(body)
