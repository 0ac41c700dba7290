"""Run manifests: one JSON summary per CLI invocation.

A manifest answers "what exactly ran, and where did the time go?" after
the fact: the command and its full config, the git SHA the tree was at,
the seed, aggregate metrics, a per-name span rollup, and the ten slowest
individual spans.  ``python -m repro <cmd>`` writes one at the end of
every invocation (``--manifest PATH`` / ``--no-manifest``), and the CI
telemetry-smoke job uploads it as a build artefact next to the trace
it summarises.
"""

from __future__ import annotations

import json
import platform
import subprocess
import time
from pathlib import Path

from repro.telemetry.runtime import Telemetry
from repro.telemetry.spans import SpanRecord

__all__ = ["build_manifest", "write_manifest", "summarize_spans", "git_sha"]

_SCHEMA_VERSION = 1
_SLOWEST_LIMIT = 10


def git_sha(cwd=None) -> str:
    """The current git commit SHA, or ``"unknown"`` outside a checkout
    (or when git itself is unavailable)."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd, capture_output=True, text=True, timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def summarize_spans(spans: tuple[SpanRecord, ...], *,
                    slowest_limit: int = _SLOWEST_LIMIT) -> dict:
    """Aggregate spans into a per-name rollup plus the slowest offenders.

    Returns ``{"total_spans", "by_name", "slowest"}`` where ``by_name``
    is sorted by total self-inclusive duration (descending, name as the
    tie-break so the ordering is deterministic) and ``slowest`` lists the
    ``slowest_limit`` longest individual spans with their attributes.
    """
    by_name: dict[str, dict] = {}
    for record in spans:
        agg = by_name.setdefault(
            record.name,
            {"name": record.name, "count": 0, "total_seconds": 0.0,
             "max_seconds": 0.0, "errors": 0},
        )
        agg["count"] += 1
        agg["total_seconds"] += record.duration
        agg["max_seconds"] = max(agg["max_seconds"], record.duration)
        if record.status == "error":
            agg["errors"] += 1
    rollup = sorted(
        by_name.values(), key=lambda a: (-a["total_seconds"], a["name"])
    )
    for agg in rollup:
        agg["mean_seconds"] = (
            agg["total_seconds"] / agg["count"] if agg["count"] else 0.0
        )
    slowest = sorted(
        spans, key=lambda r: (-r.duration, r.span_id)
    )[:slowest_limit]
    return {
        "total_spans": len(spans),
        "by_name": rollup,
        "slowest": [
            {
                "name": r.name,
                "span_id": r.span_id,
                "depth": r.depth,
                "duration": r.duration,
                "status": r.status,
                "attributes": {k: _jsonable(v) for k, v in r.attributes.items()},
            }
            for r in slowest
        ],
    }


def _jsonable(value):
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def build_manifest(
    *,
    command: str,
    config: dict,
    telemetry: Telemetry,
    seed=None,
    status: str = "ok",
    wall_clock_seconds: float | None = None,
) -> dict:
    """Assemble the manifest dict for one finished run.

    ``config`` should be the full, JSON-serialisable invocation config
    (e.g. ``vars(args)`` from the CLI); ``seed`` is surfaced at the top
    level as well because reproducibility is the first question asked of
    any run.  When ``wall_clock_seconds`` is omitted it falls back to
    the total duration of the root spans.
    """
    spans = telemetry.spans
    if wall_clock_seconds is None:
        wall_clock_seconds = sum(
            r.duration for r in spans if r.parent_id is None
        )
    return {
        "schema_version": _SCHEMA_VERSION,
        "command": command,
        "status": status,
        "seed": seed,
        "config": {k: _jsonable(v) for k, v in config.items()},
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "created_unix": time.time(),
        "wall_clock_seconds": wall_clock_seconds,
        "telemetry_enabled": telemetry.enabled,
        "metrics": telemetry.metrics.snapshot(),
        "spans": summarize_spans(spans),
    }


def write_manifest(manifest: dict, path) -> Path:
    """Write a manifest as pretty-printed JSON; returns the path."""
    path = Path(path)
    path.write_text(
        json.dumps(manifest, indent=2, sort_keys=True, default=str) + "\n"
    )
    return path
