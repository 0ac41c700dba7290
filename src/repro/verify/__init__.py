"""Conformance verification: the implementation checked against the theory.

Four layers (docs/VERIFICATION.md has the full taxonomy and tolerance
derivations):

* :mod:`repro.verify.report` — :class:`ConformanceCheck` /
  :class:`ConformanceReport`, the structured JSON-round-trippable result
  types every predicate emits.
* :mod:`repro.verify.theorems` — the paper's structural facts as
  reusable predicates (Proposition 3 β-elimination, the Propositions 1–2
  value-point condition, Lemma 1's piecewise bound, interval-width
  monotonicity).
* :mod:`repro.verify.differential` — the same instance through every
  solver path (HiGHS MILP, branch-and-bound MILP, grid DP, SLSQP
  multistart), pairwise utility agreement within the derived
  ``ε + span/K`` tolerance.
* :mod:`repro.verify.golden` — the schema'd golden-fixture registry
  (``tests/golden/*.json``) with drift-guarded regeneration.

``repro verify`` (:mod:`repro.verify.battery` behind the CLI) runs all
of it and exits nonzero on any violation.
"""

from repro.verify.battery import (
    BatteryInstance,
    battery_instances,
    run_battery,
    verify_instance,
)
from repro.verify.differential import (
    DEFAULT_PATHS,
    PathOutcome,
    differential_check,
    run_paths,
)
from repro.verify.golden import (
    GoldenDriftError,
    GoldenFixture,
    GoldenSchemaError,
    build_instance,
    check_fixture,
    default_golden_dir,
    load_all_fixtures,
    load_fixture,
    measure_fixture,
    regenerate_fixture,
    save_fixture,
    validate_fixture,
)
from repro.verify.report import ConformanceCheck, ConformanceReport
from repro.verify.theorems import (
    check_beta_elimination,
    check_interval_monotonicity,
    check_segment_bound,
    check_shrink_pointwise,
    check_value_point,
    scaled_uncertainty,
)

__all__ = [
    "BatteryInstance",
    "battery_instances",
    "run_battery",
    "verify_instance",
    "DEFAULT_PATHS",
    "PathOutcome",
    "differential_check",
    "run_paths",
    "GoldenDriftError",
    "GoldenFixture",
    "GoldenSchemaError",
    "build_instance",
    "check_fixture",
    "default_golden_dir",
    "load_all_fixtures",
    "load_fixture",
    "measure_fixture",
    "regenerate_fixture",
    "save_fixture",
    "validate_fixture",
    "ConformanceCheck",
    "ConformanceReport",
    "check_beta_elimination",
    "check_interval_monotonicity",
    "check_segment_bound",
    "check_shrink_pointwise",
    "check_value_point",
    "scaled_uncertainty",
]
