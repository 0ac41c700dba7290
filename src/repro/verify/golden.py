"""Golden-fixture registry: schema'd, tolerance-annotated pinned results.

A golden fixture is a JSON file under ``tests/golden/`` that pins one
instance's expected numbers — strategy vectors and worst-case utilities
— together with the tolerances they are held to and the provenance of
the pinned values.  The registry gives three guarantees ad-hoc test
constants cannot:

* **one schema** — every fixture is validated on load
  (:func:`validate_fixture`), so a malformed fixture fails loudly at the
  loader, not as a confusing assertion error;
* **self-describing tolerances** — each expected entry carries its own
  ``atol``, documented next to the number it guards;
* **guarded regeneration** — ``repro verify --regenerate`` recomputes
  the expected values but *refuses to overwrite* a fixture whose values
  drifted beyond tolerance unless an explicit ``--reason`` is recorded
  into the fixture's provenance (:exc:`GoldenDriftError`).  Silent
  re-pinning of a regression is therefore impossible.

Fixture layout (``schema_version`` 1)::

    {
      "schema_version": 1,
      "name": "table1",
      "description": "...",
      "instance": {"kind": "table1"} | {"kind": "random", "num_targets": 5, "seed": 3, ...},
      "uncertainty": {"kind": "suqr", "w1": [-6, -2], "w2": [0.5, 1], "w3": [0.4, 0.9],
                       "convention": "endpoint"},
      "solve": {"num_segments": 25, "epsilon": 1e-4, "session": "incremental"},
      "expected": {"robust_strategy": {"value": [...], "atol": 0.02}, ...},
      "provenance": {"git_sha": "...", "regenerate_reason": null}
    }

Known expected keys: ``robust_strategy``, ``robust_worst_case``,
``midpoint_strategy``, ``midpoint_worst_case``, ``resolve_strategy``,
``resolve_worst_case``.

A fixture may additionally carry a ``drift`` object::

    "drift": {"factors": [0.9, 0.81, 0.729]}

which turns it into a *drift-sequence* fixture: the ``resolve_*``
expected keys pin the answer the standing-solve engine
(:mod:`repro.solvers.resolve`) lands on after opening a handle on the
base uncertainty and re-entering it once per factor, each step seeing
the base intervals band-scaled by that cumulative factor
(:class:`~repro.behavior.interval.BandScaledModel`).  The engine's
lifetime counters (re-solves, warm hits, bracket reuses, patches) are
recorded into provenance on regeneration, so a pinned fixture also
documents how much of the incremental machinery the sequence exercised.

The ``solve`` object accepts the optional key ``session``, whose only
value ``"incremental"`` (forwarded to
:func:`~repro.core.cubis.solve_cubis` for the robust quantities) marks a
fixture as pinning the incremental-session pipeline's answer; the
session mode the solve actually ran with is recorded into provenance on
regeneration.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.behavior.interval import IntervalSUQR
from repro.game.generator import random_interval_game, table1_game
from repro.verify.report import ConformanceCheck, ConformanceReport

__all__ = [
    "GoldenFixture",
    "GoldenSchemaError",
    "GoldenDriftError",
    "SCHEMA_VERSION",
    "default_golden_dir",
    "validate_fixture",
    "load_fixture",
    "load_all_fixtures",
    "build_instance",
    "measure_fixture",
    "check_fixture",
    "regenerate_fixture",
    "save_fixture",
]

SCHEMA_VERSION = 1

#: Expected-value keys the measurement routine knows how to produce.
KNOWN_EXPECTED = (
    "robust_strategy",
    "robust_worst_case",
    "midpoint_strategy",
    "midpoint_worst_case",
    "resolve_strategy",
    "resolve_worst_case",
)

_INSTANCE_KINDS = ("table1", "random")


class GoldenSchemaError(ValueError):
    """A fixture file violates the golden schema."""


class GoldenDriftError(RuntimeError):
    """Regeneration found drift beyond tolerance and no reason was given."""


@dataclass(frozen=True)
class GoldenFixture:
    """One validated golden fixture plus the path it was loaded from."""

    name: str
    description: str
    instance: dict
    uncertainty: dict
    solve: dict
    expected: dict
    provenance: dict
    drift: dict | None = None
    path: Path | None = None

    def to_dict(self) -> dict:
        """The JSON object form (path omitted)."""
        out = {
            "schema_version": SCHEMA_VERSION,
            "name": self.name,
            "description": self.description,
            "instance": self.instance,
            "uncertainty": self.uncertainty,
            "solve": self.solve,
            "expected": self.expected,
            "provenance": self.provenance,
        }
        if self.drift is not None:
            out["drift"] = self.drift
        return out


def default_golden_dir() -> Path:
    """``tests/golden`` at the repository root when run from a checkout,
    falling back to the current working directory's ``tests/golden``."""
    for base in (Path.cwd(), Path(__file__).resolve().parents[3]):
        candidate = base / "tests" / "golden"
        if candidate.is_dir():
            return candidate
    return Path.cwd() / "tests" / "golden"


def _require(mapping: dict, key: str, kind, where: str):
    if key not in mapping:
        raise GoldenSchemaError(f"{where}: missing required key {key!r}")
    value = mapping[key]
    if kind is float:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise GoldenSchemaError(f"{where}: {key!r} must be a number, got {value!r}")
        return float(value)
    if not isinstance(value, kind):
        raise GoldenSchemaError(
            f"{where}: {key!r} must be {kind.__name__}, got {type(value).__name__}"
        )
    return value


def validate_fixture(data: dict, *, where: str = "fixture") -> GoldenFixture:
    """Validate a raw JSON object against the golden schema."""
    if not isinstance(data, dict):
        raise GoldenSchemaError(f"{where}: fixture must be a JSON object")
    version = _require(data, "schema_version", int, where)
    if version != SCHEMA_VERSION:
        raise GoldenSchemaError(
            f"{where}: unsupported schema_version {version} (expected {SCHEMA_VERSION})"
        )
    name = _require(data, "name", str, where)
    description = _require(data, "description", str, where)

    instance = _require(data, "instance", dict, where)
    kind = _require(instance, "kind", str, f"{where}.instance")
    if kind not in _INSTANCE_KINDS:
        raise GoldenSchemaError(
            f"{where}.instance: unknown kind {kind!r}; choose from {_INSTANCE_KINDS}"
        )
    if kind == "random":
        _require(instance, "num_targets", int, f"{where}.instance")
        _require(instance, "seed", int, f"{where}.instance")

    uncertainty = _require(data, "uncertainty", dict, where)
    ukind = _require(uncertainty, "kind", str, f"{where}.uncertainty")
    if ukind != "suqr":
        raise GoldenSchemaError(
            f"{where}.uncertainty: unknown kind {ukind!r} (only 'suqr' is supported)"
        )
    for box in ("w1", "w2", "w3"):
        pair = _require(uncertainty, box, list, f"{where}.uncertainty")
        if len(pair) != 2 or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in pair
        ):
            raise GoldenSchemaError(
                f"{where}.uncertainty: {box!r} must be a [lo, hi] number pair"
            )

    solve = _require(data, "solve", dict, where)
    _require(solve, "num_segments", int, f"{where}.solve")
    _require(solve, "epsilon", float, f"{where}.solve")
    if "session" in solve:
        session = solve["session"]
        if session != "incremental":
            raise GoldenSchemaError(
                f"{where}.solve: 'session' must be 'incremental', got {session!r}"
            )

    drift = data.get("drift")
    if drift is not None:
        if not isinstance(drift, dict):
            raise GoldenSchemaError(f"{where}.drift: must be an object")
        factors = _require(drift, "factors", list, f"{where}.drift")
        if not factors or not all(
            isinstance(f, (int, float)) and not isinstance(f, bool) and f > 0
            for f in factors
        ):
            raise GoldenSchemaError(
                f"{where}.drift: 'factors' must be a non-empty list of "
                f"positive numbers"
            )

    expected = _require(data, "expected", dict, where)
    if not expected:
        raise GoldenSchemaError(f"{where}.expected: must pin at least one value")
    for key, entry in expected.items():
        if key not in KNOWN_EXPECTED:
            raise GoldenSchemaError(
                f"{where}.expected: unknown key {key!r}; choose from {KNOWN_EXPECTED}"
            )
        if not isinstance(entry, dict):
            raise GoldenSchemaError(f"{where}.expected.{key}: must be an object")
        _require(entry, "atol", float, f"{where}.expected.{key}")
        if "value" not in entry:
            raise GoldenSchemaError(f"{where}.expected.{key}: missing 'value'")

    if any(key.startswith("resolve_") for key in expected) and drift is None:
        raise GoldenSchemaError(
            f"{where}.expected: 'resolve_*' keys require a 'drift' object "
            f"describing the factor sequence the standing solve re-enters"
        )

    provenance = data.get("provenance", {})
    if not isinstance(provenance, dict):
        raise GoldenSchemaError(f"{where}.provenance: must be an object")

    return GoldenFixture(
        name=name,
        description=description,
        instance=dict(instance),
        uncertainty=dict(uncertainty),
        solve=dict(solve),
        expected={k: dict(v) for k, v in expected.items()},
        provenance=dict(provenance),
        drift=dict(drift) if drift is not None else None,
    )


def load_fixture(path) -> GoldenFixture:
    """Load and validate one fixture file."""
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise GoldenSchemaError(f"{path}: invalid JSON: {exc}") from exc
    fixture = validate_fixture(data, where=str(path))
    return GoldenFixture(**{**fixture.__dict__, "path": path})


def load_all_fixtures(directory=None) -> list[GoldenFixture]:
    """Load every ``*.json`` fixture in ``directory`` (sorted by name)."""
    directory = Path(directory) if directory is not None else default_golden_dir()
    return [load_fixture(p) for p in sorted(directory.glob("*.json"))]


def build_instance(fixture: GoldenFixture):
    """Reconstruct ``(game, uncertainty)`` from a fixture's instance spec."""
    spec = fixture.instance
    if spec["kind"] == "table1":
        game = table1_game()
    else:
        game = random_interval_game(
            int(spec["num_targets"]),
            spec.get("num_resources"),
            payoff_halfwidth=float(spec.get("payoff_halfwidth", 1.0)),
            seed=int(spec["seed"]),
        )
    u = fixture.uncertainty
    uncertainty = IntervalSUQR(
        game.payoffs,
        w1=tuple(u["w1"]),
        w2=tuple(u["w2"]),
        w3=tuple(u["w3"]),
        convention=u.get("convention", "endpoint"),
    )
    return game, uncertainty


def measure_fixture(fixture: GoldenFixture) -> dict:
    """Recompute the fixture's pinned quantities from scratch.

    Returns ``{key: measured value}`` for every key in ``expected``.
    Robust quantities come from :func:`~repro.core.cubis.solve_cubis`,
    midpoint ones from :func:`~repro.baselines.midpoint.solve_midpoint`.
    """
    from repro.baselines.midpoint import solve_midpoint
    from repro.core.cubis import solve_cubis

    game, uncertainty = build_instance(fixture)
    num_segments = int(fixture.solve["num_segments"])
    epsilon = float(fixture.solve["epsilon"])
    # The optional session key selects the incremental pipeline for the
    # robust solve (the midpoint baseline has no session machinery).
    session_kwargs = (
        {"session": fixture.solve["session"]} if "session" in fixture.solve
        else {}
    )
    measured: dict = {}
    keys = set(fixture.expected)
    if keys & {"robust_strategy", "robust_worst_case"}:
        robust = solve_cubis(
            game, uncertainty, num_segments=num_segments, epsilon=epsilon,
            **session_kwargs,
        )
        measured["robust_strategy"] = robust.strategy.tolist()
        measured["robust_worst_case"] = float(robust.worst_case_value)
        measured["_session_mode"] = robust.session_mode
    if keys & {"midpoint_strategy", "midpoint_worst_case"}:
        midpoint = solve_midpoint(
            game, uncertainty, num_segments=num_segments, epsilon=epsilon
        )
        measured["midpoint_strategy"] = midpoint.strategy.tolist()
        measured["midpoint_worst_case"] = float(midpoint.worst_case_value)
    if keys & {"resolve_strategy", "resolve_worst_case"}:
        from repro.behavior.interval import BandScaledModel
        from repro.solvers.resolve import resolve, start_resolve

        handle = start_resolve(
            game, uncertainty, num_segments=num_segments, epsilon=epsilon
        )
        outcome = None
        for factor in fixture.drift["factors"]:
            outcome = resolve(handle, BandScaledModel(uncertainty, float(factor)))
        final = outcome.result
        measured["resolve_strategy"] = final.strategy.tolist()
        measured["resolve_worst_case"] = float(final.worst_case_value)
        measured["_resolve_stats"] = {
            key: handle.stats()[key]
            for key in ("resolves", "warm_hits", "bracket_reuses")
        }
    out = {key: measured[key] for key in fixture.expected}
    # Side-channels (underscore-prefixed, never expected keys): the mode
    # the robust solve actually ran with and the standing-solve engine's
    # lifetime counters, recorded into provenance by regenerate_fixture.
    for side in ("_session_mode", "_resolve_stats"):
        if side in measured:
            out[side] = measured[side]
    return out


def _drift(expected_value, measured_value) -> float:
    return float(
        np.max(np.abs(np.asarray(measured_value, dtype=np.float64)
                      - np.asarray(expected_value, dtype=np.float64)))
    )


def check_fixture(
    fixture: GoldenFixture, *, measured: dict | None = None
) -> ConformanceReport:
    """Compare recomputed values against the fixture's pinned ones.

    One ``golden.<key>`` check per expected entry, each held to the
    entry's own ``atol``.
    """
    if measured is None:
        measured = measure_fixture(fixture)
    checks = []
    for key, entry in fixture.expected.items():
        drift = _drift(entry["value"], measured[key])
        atol = float(entry["atol"])
        checks.append(ConformanceCheck(
            name=f"golden.{key}",
            passed=drift <= atol,
            detail=(
                f"pinned {entry['value']} vs measured {measured[key]}"
                + ("" if drift <= atol else " — DRIFTED")
            ),
            measured=drift,
            bound=atol,
            context={"fixture": fixture.name, "key": key},
        ))
    return ConformanceReport(
        instance=f"golden:{fixture.name}",
        checks=tuple(checks),
        seed=fixture.instance.get("seed"),
        metadata={"path": str(fixture.path) if fixture.path else None,
                  "solve": fixture.solve},
    )


def regenerate_fixture(
    fixture: GoldenFixture, *, reason: str | None = None
) -> GoldenFixture:
    """Recompute the pinned values, guarding against unexplained drift.

    Returns a new fixture with updated ``expected`` values.  If any value
    moved beyond its own tolerance and ``reason`` is ``None``, raises
    :exc:`GoldenDriftError` listing the drifted keys — regeneration must
    not silently absorb a regression.  When a reason is given it is
    recorded in the fixture's provenance.
    """
    measured = measure_fixture(fixture)
    session_mode = measured.pop("_session_mode", None)
    resolve_stats = measured.pop("_resolve_stats", None)
    drifted = {
        key: _drift(entry["value"], measured[key])
        for key, entry in fixture.expected.items()
        if _drift(entry["value"], measured[key]) > float(entry["atol"])
    }
    if drifted and reason is None:
        raise GoldenDriftError(
            f"fixture {fixture.name!r}: refusing to regenerate — values drifted "
            f"beyond tolerance with no --reason given: "
            + ", ".join(f"{k} (drift {v:.4g})" for k, v in sorted(drifted.items()))
        )
    from repro.telemetry import git_sha

    expected = {
        key: {**entry, "value": measured[key]}
        for key, entry in fixture.expected.items()
    }
    provenance = {
        **fixture.provenance,
        "git_sha": git_sha(),
        "regenerate_reason": reason,
        "drifted_keys": sorted(drifted),
    }
    if session_mode is not None:
        provenance["session_mode"] = session_mode
    if resolve_stats is not None:
        provenance["resolve_stats"] = resolve_stats
    return GoldenFixture(
        name=fixture.name,
        description=fixture.description,
        instance=fixture.instance,
        uncertainty=fixture.uncertainty,
        solve=fixture.solve,
        expected=expected,
        provenance=provenance,
        drift=fixture.drift,
        path=fixture.path,
    )


def save_fixture(fixture: GoldenFixture, path=None) -> Path:
    """Write a fixture back to disk as pretty-printed JSON."""
    path = Path(path) if path is not None else fixture.path
    if path is None:
        raise ValueError("fixture has no path; pass one explicitly")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(fixture.to_dict(), indent=2, sort_keys=False) + "\n")
    return path
