"""The paper's evaluation suite (see DESIGN.md §2 for the experiment map)."""

from repro.experiments.ablation import (
    format_ablation,
    run_ablation_epsilon,
    run_ablation_k,
)
from repro.experiments.calibration import (
    CalibrationCandidate,
    calibrate_table1,
    score_candidate,
)
from repro.experiments.intervals import format_intervals, run_intervals
from repro.experiments.landscape import format_landscape, run_landscape
from repro.experiments.quality import format_quality, run_quality
from repro.experiments.report import FULL, QUICK, ReportSettings, generate_report
from repro.experiments.runtime import format_runtime, run_runtime
from repro.experiments.smoke import format_smoke, run_smoke
from repro.experiments.table1 import (
    PAPER_REFERENCE,
    Table1Result,
    format_table1,
    run_table1,
)

__all__ = [
    "FULL",
    "QUICK",
    "CalibrationCandidate",
    "ReportSettings",
    "PAPER_REFERENCE",
    "Table1Result",
    "calibrate_table1",
    "format_ablation",
    "format_intervals",
    "format_landscape",
    "format_quality",
    "format_runtime",
    "format_smoke",
    "format_table1",
    "generate_report",
    "run_ablation_epsilon",
    "run_ablation_k",
    "run_intervals",
    "run_landscape",
    "run_quality",
    "run_runtime",
    "run_smoke",
    "run_table1",
    "score_candidate",
]
