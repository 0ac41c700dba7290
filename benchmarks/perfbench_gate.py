"""Regression gate over perfbench's traced tiny runs.

Run from the directory that holds one traced tiny run per workload,
each run's last stdout line saved as ``perf_<workload>.json``::

    for workload in solve_batch drift_loop service_mix fleet_dp; do
      python3 perfbench/run.py --workload "$workload" --seed 1 \\
        --seconds 3 --trace 1 --size tiny | tail -n 1 > "perf_$workload.json"
    done
    python3 benchmarks/perfbench_gate.py

Each workload's metrics are compared against the committed
``benchmarks/perfbench_baseline.json``, which lists, per workload, only
the per-solve and per-step ratios that workload exercises.  Those do
not depend on the machine, so raw counts and seconds are never
compared.  A metric's direction is its ``per_layer[].better`` in
``BENCHMARK.json``: a lower-is-better metric may grow to at most
``baseline * FACTOR`` (so a zero baseline stays pinned at zero), a
higher-is-better one may fall to at most ``baseline / FACTOR``, and a
baselined metric missing from a run fails, so a moved probe cannot pass
silently.  The exit code is non-zero on any regression.

To refresh the baseline after an intended change, write the four runs
as above and then run, from the same directory::

    python3 -c "import benchmarks.perfbench_gate as g; g.refresh()"

It rewrites the values of the metrics the baseline already lists.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BASELINE = ROOT / "benchmarks" / "perfbench_baseline.json"
BENCHMARK = ROOT / "BENCHMARK.json"

#: Tolerated factor on every gated metric.
FACTOR = 1.25


def directions() -> dict[str, str]:
    """Map each per-layer metric of ``BENCHMARK.json`` to ``"lower"`` or
    ``"higher"``, the direction in which it is better."""
    spec = json.loads(BENCHMARK.read_text())
    return {metric["name"]: metric["better"] for metric in spec["per_layer"]}


def load_run(path: Path) -> dict[str, float]:
    """The metric values of one saved perfbench result line."""
    result = json.loads(Path(path).read_text())
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def check(metrics: dict[str, float], reference: dict[str, float],
          better: dict[str, str]) -> list[str]:
    """Describe every metric of ``reference`` that ``metrics`` misses or
    regresses beyond ``FACTOR``; an empty list passes."""
    problems = []
    for name, ref in sorted(reference.items()):
        if name not in metrics:
            problems.append(f"{name}: missing from the run (baseline {ref:g})")
            continue
        value = metrics[name]
        if better[name] == "lower":
            limit = ref * FACTOR
            if value > limit:
                problems.append(f"{name}: {value:g} exceeds baseline {ref:g} "
                                f"x {FACTOR:g} = {limit:g}")
        elif value < ref / FACTOR:
            problems.append(f"{name}: {value:g} below baseline {ref:g} "
                            f"/ {FACTOR:g} = {ref / FACTOR:g}")
    return problems


def gate(runs: Path) -> list[str]:
    """Check the ``perf_<workload>.json`` files in ``runs`` against the
    baseline; returns the problems, each prefixed by its workload."""
    better = directions()
    baseline = json.loads(BASELINE.read_text())
    return [
        f"{workload}: {problem}"
        for workload, reference in baseline.items()
        for problem in check(load_run(runs / f"perf_{workload}.json"),
                             reference, better)
    ]


def refresh(runs: Path = Path(".")) -> None:
    """Rewrite the baseline's values from the ``perf_<workload>.json``
    files in ``runs``, keeping the metrics it lists."""
    baseline = json.loads(BASELINE.read_text())
    for workload, reference in baseline.items():
        metrics = load_run(runs / f"perf_{workload}.json")
        for name in reference:
            reference[name] = metrics[name]
    BASELINE.write_text(json.dumps(baseline, indent=2, sort_keys=True) + "\n")


def main() -> int:
    problems = gate(Path("."))
    for problem in problems:
        print("REGRESSION", problem)
    if not problems:
        print(f"perfbench gate: every baselined ratio within {FACTOR:g}x")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
