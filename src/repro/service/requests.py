"""Canonical solve requests: validation, normalisation, and hashing.

The daemon's coalescing guarantee — *identical in-flight requests share
one solve* — is only as good as its notion of "identical".  Two JSON
bodies that differ in dict key order, in ``2`` vs ``2.0`` spellings of a
payoff, or in spelling out the default options versus omitting them,
describe the same solve and must collide; any semantically different
``(game, uncertainty, options)`` triple must not.

The recipe reuses machinery that already has exactly these properties:

* the game and uncertainty dicts are round-tripped through the
  :mod:`repro.analysis.io` codecs (``game_from_dict`` →
  ``game_to_dict``), which coerces every payoff to ``float64`` — so
  integer and float spellings of the same number converge;
* options are normalised against :data:`SOLVE_OPTION_SPEC` (defaults
  applied, ints accepted as integral floats and vice versa, unknown
  keys rejected);
* the resulting canonical dict is hashed with
  :func:`repro.store.stable_hash` — the key-order-insensitive
  canonical content hash (``tests/test_store_hashing.py``).

Service-level envelope fields (``tenant``, ``mode``) are routing
concerns, not solve identity, and are stripped before hashing.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Any, Mapping

import numpy as np

from repro.analysis.io import (
    game_from_dict,
    game_to_dict,
    uncertainty_from_dict,
    uncertainty_to_dict,
)
from repro.store import stable_hash

__all__ = [
    "RequestError",
    "SOLVE_OPTION_SPEC",
    "RESOLVE_OPTION_KEYS",
    "ENVELOPE_FIELDS",
    "canonicalize_request",
    "canonicalize_resolve_request",
    "request_hash",
    "instance_hash",
    "shape_hash",
    "standing_key",
    "build_instance",
    "solve_payload",
    "result_from_payload",
]


class RequestError(ValueError):
    """A malformed or unsupported solve request (HTTP 400)."""


#: Solver options accepted by ``POST /v1/solve``: name -> (type, default,
#: allowed values or None).  Defaults are applied *before* hashing, so a
#: request that spells out a default coalesces with one that omits it.
#: ``session`` selects nothing: every ``milp`` request without resilience
#: runs ``solve_cubis``'s memoised pipeline, which keeps no MILP state
#: past that solve.  The key and its ``"auto"`` default stay so
#: existing request bodies keep their canonical hash.
SOLVE_OPTION_SPEC: dict[str, tuple[type, Any, tuple | None]] = {
    "num_segments": (int, 10, None),
    "epsilon": (float, 1e-3, None),
    "backend": (str, "highs", ("highs", "bnb")),
    "oracle": (str, "milp", ("milp", "dp")),
    "equality_resources": (bool, False, None),
    "execution_alpha": (float, 0.0, None),
    "session": (str, "auto", ("auto", "incremental")),
    "speculation": (int, 1, None),
    "resilience": (bool, True, None),
}

#: Request-envelope fields the daemon consumes itself; they never reach
#: the canonical form (a tenant resubmitting another tenant's request
#: must coalesce with it).
ENVELOPE_FIELDS: tuple[str, ...] = ("tenant", "mode")


def _normalise_option(name: str, value: Any) -> Any:
    typ, _default, allowed = SOLVE_OPTION_SPEC[name]
    if typ is bool:
        if not isinstance(value, bool):
            raise RequestError(
                f"option {name!r} must be a boolean, got {type(value).__name__}"
            )
        return bool(value)
    if typ is int:
        # Accept 10.0 for 10: JSON has one number type, and "equivalent
        # numeric spellings hash identically" is a coalescing guarantee.
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise RequestError(
                f"option {name!r} must be an integer, got {type(value).__name__}"
            )
        if float(value) != int(value):
            raise RequestError(
                f"option {name!r} must be integral, got {value!r}"
            )
        return int(value)
    if typ is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise RequestError(
                f"option {name!r} must be a number, got {type(value).__name__}"
            )
        if not np.isfinite(value):
            # Python's json parses NaN and Infinity; neither is a setting.
            raise RequestError(f"option {name!r} must be finite, got {value!r}")
        return float(value)
    if not isinstance(value, str):
        raise RequestError(
            f"option {name!r} must be a string, got {type(value).__name__}"
        )
    if allowed is not None and value not in allowed:
        raise RequestError(
            f"option {name!r} must be one of {list(allowed)}, got {value!r}"
        )
    return value


def _normalise_options(options: Mapping | None) -> dict:
    if options is None:
        options = {}
    if not isinstance(options, Mapping):
        raise RequestError(
            f"'options' must be an object, got {type(options).__name__}"
        )
    unknown = sorted(set(options) - set(SOLVE_OPTION_SPEC))
    if unknown:
        raise RequestError(
            f"unknown solve options {unknown}; supported: "
            f"{sorted(SOLVE_OPTION_SPEC)}"
        )
    out = {
        name: _normalise_option(name, options[name])
        if name in options else default
        for name, (_typ, default, _allowed) in SOLVE_OPTION_SPEC.items()
    }
    if out["num_segments"] < 1:
        raise RequestError(f"num_segments must be >= 1, got {out['num_segments']}")
    if out["epsilon"] <= 0:
        raise RequestError(f"epsilon must be > 0, got {out['epsilon']}")
    if out["speculation"] != 1:
        # Only the default survives (k-ary bisection was removed); the key
        # stays so existing request bodies and their hashes are unchanged.
        raise RequestError(f"speculation must be 1, got {out['speculation']}")
    if out["execution_alpha"] < 0:
        raise RequestError(
            f"execution_alpha must be >= 0, got {out['execution_alpha']}"
        )
    if out["resilience"] and out["session"] == "incremental":
        # solve_cubis rejects the combination; fail at admission instead
        # of burning a queue slot on a request that cannot run.
        raise RequestError(
            "session='incremental' is incompatible with resilience=true "
            "(the fallback ladder owns its own failure semantics); "
            "set resilience=false or session='auto'"
        )
    return out


def canonicalize_request(body: Mapping) -> dict:
    """Validate a solve-request body and return its canonical form.

    The canonical form is a plain JSON-ready dict
    ``{"game": ..., "uncertainty": ..., "options": ...}`` with every
    number normalised and every default applied; two requests describe
    the same solve iff their canonical forms are equal (and hence iff
    their :func:`request_hash` values are equal).

    Raises :class:`RequestError` on any malformed input.
    """
    if not isinstance(body, Mapping):
        raise RequestError(f"request body must be an object, got {type(body).__name__}")
    unknown = sorted(set(body) - {"game", "uncertainty", "options"} - set(ENVELOPE_FIELDS))
    if unknown:
        raise RequestError(
            f"unknown request fields {unknown}; supported: "
            "game, uncertainty, options" + "".join(f", {f}" for f in ENVELOPE_FIELDS)
        )
    game_spec = body.get("game")
    if not isinstance(game_spec, Mapping):
        raise RequestError("request must carry a 'game' object")
    try:
        game = game_from_dict(dict(game_spec))
    except (KeyError, ValueError, TypeError) as exc:
        raise RequestError(f"invalid game: {exc}") from exc
    game_dict = game_to_dict(game)
    if game_dict["kind"] != "interval_game":
        raise RequestError(
            "the solve endpoint requires an interval game "
            f"(kind='interval_game'), got kind={game_dict['kind']!r}"
        )
    if not np.isfinite(
        np.concatenate([np.asarray(v) for k, v in game_dict.items()
                        if isinstance(v, list)])
    ).all():
        raise RequestError("game payoffs must be finite")

    uncertainty_spec = body.get("uncertainty")
    if uncertainty_spec is None:
        # The server-wide default model (Section III weight boxes, tight
        # convention).  It is serialised into the canonical form, so a
        # request spelling out the identical spec coalesces with one
        # relying on the default.
        from repro.experiments.quality import default_uncertainty

        uncertainty = default_uncertainty(game.payoffs)
    else:
        if not isinstance(uncertainty_spec, Mapping):
            raise RequestError("'uncertainty' must be an object")
        try:
            uncertainty = uncertainty_from_dict(
                dict(uncertainty_spec), game.payoffs
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise RequestError(f"invalid uncertainty model: {exc}") from exc

    return {
        "game": game_dict,
        "uncertainty": uncertainty_to_dict(uncertainty),
        "options": _normalise_options(body.get("options")),
    }


#: Canonical option names a standing resolve pins into its handle.  The
#: remaining solve options are either forced (``oracle='milp'``,
#: ``resilience=false`` — a resolve runs the memoised pipeline, which
#: owns its failure semantics) or picked by that pipeline (``session``).
RESOLVE_OPTION_KEYS: tuple[str, ...] = (
    "num_segments",
    "epsilon",
    "backend",
    "equality_resources",
    "execution_alpha",
    "speculation",
)


def canonicalize_resolve_request(body: Mapping) -> dict:
    """Validate a ``POST /v1/resolve`` body and return its canonical form.

    The body shape matches ``/v1/solve`` — ``{game, uncertainty,
    options}`` — but the options the standing machinery cannot honour
    (``oracle``, ``resilience``, ``session``) are rejected up front
    instead of silently ignored.  The canonical form is a plain
    :func:`canonicalize_request` dict, so all the solve-side hashing
    helpers apply.
    """
    if not isinstance(body, Mapping):
        raise RequestError(f"request body must be an object, got {type(body).__name__}")
    options = body.get("options")
    if options is not None and isinstance(options, Mapping):
        unsupported = sorted(set(options) & {"oracle", "resilience", "session"})
        if unsupported:
            raise RequestError(
                f"options {unsupported} are not supported by the resolve "
                "endpoint: a standing solve pins the oracle, failure "
                f"semantics and session itself; supported: "
                f"{sorted(RESOLVE_OPTION_KEYS)}"
            )
    merged = dict(body)
    merged["options"] = {**(dict(options) if isinstance(options, Mapping) else {}),
                         "resilience": False}
    return canonicalize_request(merged)


def request_hash(canonical: Mapping) -> str:
    """The coalescing key: the canonical content hash of the request."""
    return stable_hash(canonical)


def instance_hash(canonical: Mapping) -> str:
    """The hash of the *instance* alone (game + uncertainty, options
    excluded) — the key of the cross-request certificate bank: solves of
    the same instance at different accuracy settings can seed each
    other's certificate pools."""
    return stable_hash(
        {"game": canonical["game"], "uncertainty": canonical["uncertainty"]}
    )


def shape_hash(canonical: Mapping) -> str:
    """The hash of the *game* alone — uncertainty excluded.

    This is the warm bank's drift-tolerant secondary key: interval drift
    changes the uncertainty spec (and hence :func:`instance_hash`) on
    every step, but the game — and with it the MILP shape and the
    geometry the prior optimum lives in — is unchanged, so the most
    recent solve of the same game is still an excellent *probed* warm
    start."""
    return stable_hash({"game": canonical["game"]})


def standing_key(canonical: Mapping, tenant: str) -> str:
    """The standing-solve bank key: tenant + game + pinned options.

    Uncertainty is deliberately excluded — drifted intervals must land
    on the *same* standing handle, that is the whole point — while the
    tenant is deliberately included: a standing handle carries one
    tenant's drift history and is never shared across tenants."""
    options = {name: canonical["options"][name] for name in RESOLVE_OPTION_KEYS}
    return stable_hash(
        {"tenant": tenant, "game": canonical["game"], "options": options}
    )


def build_instance(canonical: Mapping):
    """Materialise ``(game, uncertainty, options)`` from a canonical
    request (the worker-side inverse of :func:`canonicalize_request`)."""
    game = game_from_dict(dict(canonical["game"]))
    uncertainty = uncertainty_from_dict(
        dict(canonical["uncertainty"]), game.payoffs
    )
    return game, uncertainty, dict(canonical["options"])


def solve_payload(result) -> dict:
    """JSON-ready response body for a completed solve.

    Carries everything :func:`result_from_payload` needs to rebuild a
    certifiable result, so ``POST /v1/verify`` can re-check any response
    this service (or a copy of it) produced.
    """
    worst = result.worst_case
    return {
        "strategy": np.asarray(result.strategy, dtype=np.float64).tolist(),
        "worst_case_value": float(result.worst_case_value),
        "worst_case": {
            "value": float(worst.value),
            "attack_distribution": np.asarray(
                worst.attack_distribution, dtype=np.float64).tolist(),
            "attractiveness": np.asarray(
                worst.attractiveness, dtype=np.float64).tolist(),
        },
        "lower_bound": float(result.lower_bound),
        "upper_bound": float(result.upper_bound),
        "epsilon": float(result.epsilon),
        "num_segments": int(result.num_segments),
        "iterations": int(result.iterations),
        "converged": bool(result.converged),
        "degraded": bool(result.degraded),
        "session_mode": str(result.session_mode),
        "milp_solves": int(result.milp_solves),
        "lp_solves": int(result.lp_solves),
        "cache_hits": int(result.cache_hits),
    }


def result_from_payload(payload: Mapping) -> SimpleNamespace:
    """Rebuild a certifiable result view from a ``/v1/solve`` response.

    The view quacks like a :class:`~repro.core.cubis.CubisResult` as far
    as :func:`repro.resilience.certify_result` is concerned; it raises
    :class:`RequestError` on missing fields so ``/v1/verify`` turns
    malformed bodies into 400s.
    """
    try:
        worst = payload["worst_case"]
        return SimpleNamespace(
            strategy=np.asarray(payload["strategy"], dtype=np.float64),
            worst_case_value=float(payload["worst_case_value"]),
            worst_case=SimpleNamespace(
                value=float(worst["value"]),
                attack_distribution=np.asarray(
                    worst["attack_distribution"], dtype=np.float64),
                attractiveness=np.asarray(
                    worst["attractiveness"], dtype=np.float64),
            ),
            lower_bound=float(payload["lower_bound"]),
            upper_bound=float(payload["upper_bound"]),
            epsilon=float(payload["epsilon"]),
            num_segments=int(payload["num_segments"]),
            converged=bool(payload.get("converged", True)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise RequestError(f"invalid result payload: {exc}") from exc
