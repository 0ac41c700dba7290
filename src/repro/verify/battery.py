"""The ``repro verify`` battery: every conformance check on every instance.

:func:`run_battery` assembles the instance roster (the canonical Table I
game plus randomly seeded interval games), runs the differential
cross-solver checker and the theorem predicates on each, replays every
golden fixture through its loader, and returns one
:class:`~repro.verify.report.ConformanceReport` per instance.  The CLI
layer streams the reports through the telemetry JSONL sink and turns any
failing check into a nonzero exit.

``fast=True`` trims the battery for CI smoke runs: the interval-width
monotonicity sweep (two extra full solves per instance) is skipped and
the SLSQP comparator runs fewer multistarts.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.table1 import TABLE1_WEIGHT_BOXES
from repro.behavior.interval import IntervalSUQR
from repro.experiments.quality import default_uncertainty
from repro.game.generator import random_interval_game, table1_game
from repro.resilience.certificate import theorem_slack
from repro.verify.differential import DEFAULT_PATHS, differential_check, run_paths
from repro.verify.golden import check_fixture, load_all_fixtures
from repro.verify.report import ConformanceReport
from repro.verify.theorems import (
    check_beta_elimination,
    check_dp_hull_sandwich,
    check_hull_sandwich,
    check_interval_monotonicity,
    check_segment_bound,
    check_shrink_pointwise,
    check_value_point,
)

__all__ = ["BatteryInstance", "battery_instances", "verify_instance", "run_battery"]


@dataclass(frozen=True)
class BatteryInstance:
    """One (game, uncertainty) pair on the battery roster."""

    label: str
    game: object
    uncertainty: object
    seed: int | None = None


def battery_instances(
    seeds: int = 3, *, num_targets: int = 5, seed_offset: int = 0
) -> list[BatteryInstance]:
    """The default roster: canonical Table I + ``seeds`` random games."""
    roster = [
        BatteryInstance(
            label="table1",
            game=table1_game(),
            uncertainty=IntervalSUQR(table1_game().payoffs, **TABLE1_WEIGHT_BOXES),
        )
    ]
    for i in range(seeds):
        seed = seed_offset + i
        game = random_interval_game(num_targets, seed=seed)
        roster.append(BatteryInstance(
            label=f"random-T{num_targets}-seed{seed}",
            game=game,
            uncertainty=default_uncertainty(game.payoffs),
            seed=seed,
        ))
    return roster


def verify_instance(
    instance: BatteryInstance,
    *,
    num_segments: int = 10,
    epsilon: float = 1e-3,
    paths: tuple[str, ...] = DEFAULT_PATHS,
    fast: bool = False,
    inject_faults: float = 0.0,
    fault_seed: int = 0,
) -> ConformanceReport:
    """Every differential and theorem check on one instance.

    The solver paths run once; their outcomes feed both the differential
    checks and the theorem predicates (evaluated at the primary path's
    returned optimum, so the theory is checked exactly where the solver
    claims to stand).
    """
    game, uncertainty = instance.game, instance.uncertainty
    exact_starts = 12 if fast else 24
    outcomes = run_paths(
        game,
        uncertainty,
        num_segments=num_segments,
        epsilon=epsilon,
        paths=paths,
        exact_starts=exact_starts,
        inject_faults=inject_faults,
        fault_seed=fault_seed,
    )
    checks = differential_check(
        game,
        uncertainty,
        num_segments=num_segments,
        epsilon=epsilon,
        seed=instance.seed,
        outcomes=outcomes,
    )

    primary = next((o for o in outcomes if o.error is None), None)
    if primary is not None:
        checks.append(check_beta_elimination(
            game,
            uncertainty,
            primary.strategy,
            primary.value,
            num_probes=16 if fast else 64,
        ))
        checks.append(check_value_point(game, uncertainty, primary.strategy))
        checks.append(check_shrink_pointwise(
            game, uncertainty, primary.strategy
        ))
        checks.append(check_hull_sandwich(
            game, uncertainty, num_segments, primary.value
        ))
        checks.append(check_dp_hull_sandwich(
            game, uncertainty, num_segments, primary.value
        ))
    checks.append(check_segment_bound(game, uncertainty, num_segments))
    if not fast and isinstance(uncertainty, IntervalSUQR):
        checks.append(check_interval_monotonicity(
            game,
            uncertainty,
            num_segments=min(num_segments, 8),
            epsilon=epsilon,
        ))

    return ConformanceReport(
        instance=instance.label,
        checks=tuple(checks),
        seed=instance.seed,
        metadata={
            "num_targets": int(game.num_targets),
            "num_resources": float(game.num_resources),
            "num_segments": int(num_segments),
            "epsilon": float(epsilon),
            "theorem_slack": float(theorem_slack(game, epsilon, num_segments)),
            "paths": [o.name for o in outcomes],
            "fast": bool(fast),
            "inject_faults": float(inject_faults),
        },
    )


def run_battery(
    *,
    seeds: int = 3,
    num_targets: int = 5,
    num_segments: int = 10,
    epsilon: float = 1e-3,
    paths: tuple[str, ...] = DEFAULT_PATHS,
    fast: bool = False,
    inject_faults: float = 0.0,
    fault_seed: int = 0,
    golden_dir=None,
    include_golden: bool = True,
    instances: list[BatteryInstance] | None = None,
) -> list[ConformanceReport]:
    """Run the full conformance battery.

    Returns one report per instance (canonical + random) plus one per
    golden fixture found in ``golden_dir``.  Pass ``instances`` to verify
    a custom roster instead of the default one.
    """
    if instances is None:
        instances = battery_instances(seeds, num_targets=num_targets)
    reports = [
        verify_instance(
            inst,
            num_segments=num_segments,
            epsilon=epsilon,
            paths=paths,
            fast=fast,
            inject_faults=inject_faults,
            fault_seed=fault_seed,
        )
        for inst in instances
    ]
    if include_golden:
        for fixture in load_all_fixtures(golden_dir):
            reports.append(check_fixture(fixture))
    return reports
