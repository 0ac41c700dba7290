"""Evaluation, sweeps and reporting for the experiment harness."""

from repro.analysis.adaptive import (
    DeploymentHistory,
    DeploymentRound,
    simulate_deployment,
)
from repro.analysis.comparison import PlannerComparison, compare_planners
from repro.analysis.evaluation import (
    StrategyEvaluation,
    evaluate_strategy,
    regret_upper_bound,
)
from repro.analysis.frontier import (
    FrontierPoint,
    RobustnessFrontier,
    robustness_frontier,
)
from repro.analysis.io import (
    game_from_dict,
    game_to_dict,
    load_json,
    result_to_dict,
    save_json,
    uncertainty_from_dict,
    uncertainty_to_dict,
)
from repro.analysis.montecarlo import OutcomeDistribution, simulate_outcomes
from repro.analysis.reporting import format_kv, format_series, format_table
from repro.analysis.sensitivity import (
    SupportStructure,
    binding_targets,
    uncertainty_contributions,
)
from repro.analysis.sweep import (
    CellFailure,
    ResultTable,
    SweepCellError,
    run_grid,
)

__all__ = [
    "CellFailure",
    "DeploymentHistory",
    "DeploymentRound",
    "FrontierPoint",
    "OutcomeDistribution",
    "PlannerComparison",
    "ResultTable",
    "SweepCellError",
    "RobustnessFrontier",
    "StrategyEvaluation",
    "SupportStructure",
    "binding_targets",
    "compare_planners",
    "evaluate_strategy",
    "format_kv",
    "format_series",
    "format_table",
    "game_from_dict",
    "game_to_dict",
    "load_json",
    "regret_upper_bound",
    "result_to_dict",
    "robustness_frontier",
    "run_grid",
    "save_json",
    "simulate_deployment",
    "simulate_outcomes",
    "uncertainty_contributions",
    "uncertainty_from_dict",
    "uncertainty_to_dict",
]
