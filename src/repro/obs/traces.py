"""Offline trace analysis over telemetry JSONL files.

Where :mod:`repro.telemetry` *produces* span records, this module
*consumes* them: load a ``--telemetry`` JSONL artefact, rebuild the span
tree (worker spans arrive already grafted by ``Tracer.adopt``, so the
file's parent links are the tree), and answer the questions an operator
actually asks:

* :func:`critical_path` — the root-to-leaf chain that accounts for the
  run's wall time, with each hop's *exclusive* contribution (the hop's
  duration minus the followed child's), which telescopes to exactly the
  root duration.
* :func:`self_time_by_name` — wall/CPU self-time aggregated per span
  name: where did the time actually go, with ``wall >> cpu`` exposing
  lock/queue waits (e.g. a ``service.request`` waiting on the engine).
* :func:`flamegraph_lines` — collapsed-stack output (``a;b;c value``)
  compatible with flamegraph.pl and speedscope, weighted by self-time
  in integer microseconds.
* :func:`diff_traces` — per-name deltas between two runs, feeding the
  bench regression gate with *where*, not just *how much*.

Loading is tolerant: a torn/truncated trailing line (a killed worker
mid-write) produces a warning and is skipped — an operator must be
able to analyse the trace of the very crash they are debugging.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from pathlib import Path

from repro.telemetry.spans import SpanRecord

__all__ = [
    "Trace",
    "PathStep",
    "load_trace",
    "build_children",
    "critical_path",
    "self_time_by_name",
    "flamegraph_lines",
    "diff_traces",
    "format_report",
    "format_critical_path",
    "format_diff",
]


@dataclass(frozen=True)
class Trace:
    """A loaded telemetry artefact: spans (id-ordered) plus bookkeeping."""

    path: str
    spans: tuple[SpanRecord, ...]
    metrics: tuple[dict, ...] = ()
    skipped_lines: int = 0

    @property
    def roots(self) -> tuple[SpanRecord, ...]:
        return tuple(s for s in self.spans if s.parent_id is None)


def load_trace(path) -> Trace:
    """Parse a telemetry JSONL file into a :class:`Trace`.

    Unlike :func:`repro.telemetry.sinks.read_jsonl`, this loader is
    *tolerant*: lines that fail to decode (torn trailing write from a
    killed process) or carry an unknown type are counted, warned about
    once, and skipped — never fatal.
    """
    path = Path(path)
    spans: list[SpanRecord] = []
    metrics: list[dict] = []
    skipped = 0
    for line_no, line in enumerate(path.read_text().splitlines(), 1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            kind = obj.get("type")
            if kind == "span":
                spans.append(SpanRecord.from_dict(obj))
            elif kind in ("counter", "gauge", "histogram"):
                metrics.append(obj)
            # meta / conformance / unknown records are not spans: ignore.
        except (ValueError, KeyError, TypeError):
            skipped += 1
    if skipped:
        warnings.warn(
            f"{path}: skipped {skipped} undecodable line(s) "
            f"(torn write from a killed process?)",
            stacklevel=2,
        )
    spans.sort(key=lambda s: s.span_id)
    return Trace(path=str(path), spans=tuple(spans),
                 metrics=tuple(metrics), skipped_lines=skipped)


def build_children(spans) -> dict[int | None, list[SpanRecord]]:
    """Map parent span id (``None`` for roots) -> children in id order."""
    children: dict[int | None, list[SpanRecord]] = {}
    for span in sorted(spans, key=lambda s: s.span_id):
        children.setdefault(span.parent_id, []).append(span)
    return children


@dataclass(frozen=True)
class PathStep:
    """One hop on the critical path.

    ``exclusive`` is this span's duration minus the duration of the
    child the path descends into (0 subtracted at the leaf), so the
    column sums to the root span's duration exactly.
    """

    span: SpanRecord
    exclusive: float


def critical_path(trace: Trace, root: SpanRecord | None = None) -> list[PathStep]:
    """The root-to-leaf chain that dominates wall time.

    Starting from ``root`` (default: the longest-duration root span),
    greedily descend into the largest-duration child until a leaf.  The
    ``exclusive`` contributions telescope to the root's duration, so the
    path *accounts for* the whole run even when siblings overlap.
    """
    if root is None:
        roots = trace.roots
        if not roots:
            return []
        root = max(roots, key=lambda s: s.duration)
    children = build_children(trace.spans)
    path: list[PathStep] = []
    node = root
    while True:
        kids = children.get(node.span_id, [])
        if not kids:
            path.append(PathStep(span=node, exclusive=node.duration))
            return path
        follow = max(kids, key=lambda s: s.duration)
        path.append(PathStep(span=node,
                             exclusive=max(0.0, node.duration - follow.duration)))
        node = follow


@dataclass
class NameStat:
    """Aggregated per-name timing."""

    name: str
    count: int = 0
    wall_total: float = 0.0
    wall_self: float = 0.0
    cpu_total: float = 0.0
    cpu_self: float = 0.0
    mem_peak: int | None = None
    errors: int = 0

    def as_dict(self) -> dict:
        out = {
            "name": self.name, "count": self.count,
            "wall_total": self.wall_total, "wall_self": self.wall_self,
            "cpu_total": self.cpu_total, "cpu_self": self.cpu_self,
            "errors": self.errors,
        }
        if self.mem_peak is not None:
            out["mem_peak"] = self.mem_peak
        return out


def self_time_by_name(trace: Trace) -> list[NameStat]:
    """Wall/CPU time per span name, inclusive and *self* (exclusive).

    Self time is the span's duration minus the summed durations of its
    direct children (clamped at 0: overlapping adopted children from
    parallel workers can legitimately sum past the parent).  Sorted by
    wall self-time, descending.
    """
    children = build_children(trace.spans)
    stats: dict[str, NameStat] = {}
    for span in trace.spans:
        stat = stats.setdefault(span.name, NameStat(name=span.name))
        kids = children.get(span.span_id, [])
        child_wall = sum(k.duration for k in kids)
        child_cpu = sum(k.cpu_time for k in kids)
        stat.count += 1
        stat.wall_total += span.duration
        stat.wall_self += max(0.0, span.duration - child_wall)
        stat.cpu_total += span.cpu_time
        stat.cpu_self += max(0.0, span.cpu_time - child_cpu)
        if span.mem_peak is not None:
            stat.mem_peak = max(stat.mem_peak or 0, span.mem_peak)
        if span.status == "error":
            stat.errors += 1
    return sorted(stats.values(), key=lambda s: s.wall_self, reverse=True)


def flamegraph_lines(trace: Trace) -> list[str]:
    """Collapsed-stack lines (``root;child;leaf value``) for the trace.

    One line per distinct name-stack, weighted by summed wall *self*
    time in integer microseconds — the input format of flamegraph.pl and
    speedscope's "collapsed stack" importer.  Stacks with a rounded
    weight of 0 µs are dropped.
    """
    children = build_children(trace.spans)
    by_id = {s.span_id: s for s in trace.spans}

    def stack_of(span: SpanRecord) -> str:
        names = [span.name]
        parent = span.parent_id
        while parent is not None:
            node = by_id[parent]
            names.append(node.name)
            parent = node.parent_id
        return ";".join(reversed(names))

    weights: dict[str, float] = {}
    for span in trace.spans:
        kids = children.get(span.span_id, [])
        self_time = max(0.0, span.duration - sum(k.duration for k in kids))
        if self_time <= 0.0:
            continue
        key = stack_of(span)
        weights[key] = weights.get(key, 0.0) + self_time
    lines = []
    for key in sorted(weights):
        micros = round(weights[key] * 1e6)
        if micros > 0:
            lines.append(f"{key} {micros}")
    return lines


def diff_traces(before: Trace, after: Trace) -> list[dict]:
    """Per-name wall self-time deltas between two traces.

    Returns one dict per span name present in either trace, sorted by
    absolute delta descending — the top entries *name* a regression's
    location.  ``delta`` is ``after - before`` seconds of wall self-time;
    ``cpu_delta`` likewise for CPU self-time.
    """
    b = {s.name: s for s in self_time_by_name(before)}
    a = {s.name: s for s in self_time_by_name(after)}
    rows = []
    for name in sorted(set(b) | set(a)):
        sb, sa = b.get(name), a.get(name)
        wall_b = sb.wall_self if sb else 0.0
        wall_a = sa.wall_self if sa else 0.0
        cpu_b = sb.cpu_self if sb else 0.0
        cpu_a = sa.cpu_self if sa else 0.0
        rows.append({
            "name": name,
            "wall_self_before": wall_b,
            "wall_self_after": wall_a,
            "delta": wall_a - wall_b,
            "cpu_delta": cpu_a - cpu_b,
            "count_before": sb.count if sb else 0,
            "count_after": sa.count if sa else 0,
        })
    rows.sort(key=lambda r: abs(r["delta"]), reverse=True)
    return rows


# ---------------------------------------------------------------- report text

def _fmt_seconds(value: float) -> str:
    return f"{value * 1e3:10.3f}ms"


def format_report(trace: Trace, top: int = 15) -> str:
    """Human-readable summary: totals plus the top-N names by self-time."""
    lines = [f"trace: {trace.path}"]
    lines.append(f"spans: {len(trace.spans)}  roots: {len(trace.roots)}"
                 + (f"  skipped_lines: {trace.skipped_lines}"
                    if trace.skipped_lines else ""))
    roots = trace.roots
    if roots:
        root = max(roots, key=lambda s: s.duration)
        lines.append(f"root: {root.name}  wall {_fmt_seconds(root.duration)}"
                     f"  cpu {_fmt_seconds(root.cpu_time)}")
    lines.append("")
    lines.append(f"{'name':<40} {'count':>6} {'wall self':>12} "
                 f"{'cpu self':>12} {'wall total':>12}")
    for stat in self_time_by_name(trace)[:top]:
        lines.append(
            f"{stat.name:<40} {stat.count:>6} "
            f"{_fmt_seconds(stat.wall_self):>12} "
            f"{_fmt_seconds(stat.cpu_self):>12} "
            f"{_fmt_seconds(stat.wall_total):>12}"
            + ("  !errors" if stat.errors else "")
        )
    return "\n".join(lines)


def format_critical_path(path: list[PathStep]) -> str:
    """Render a critical path, one hop per line, with the telescoped sum."""
    if not path:
        return "no spans"
    lines = [f"critical path ({len(path)} hops), root wall "
             f"{_fmt_seconds(path[0].span.duration)}:"]
    for step in path:
        span = step.span
        indent = "  " * span.depth
        lines.append(
            f"{_fmt_seconds(step.exclusive):>12}  {indent}{span.name}"
            f"  (wall {_fmt_seconds(span.duration)},"
            f" cpu {_fmt_seconds(span.cpu_time)})"
        )
    total = sum(step.exclusive for step in path)
    lines.append(f"{_fmt_seconds(total):>12}  = path total")
    return "\n".join(lines)


def format_diff(rows: list[dict], top: int = 10) -> str:
    """Render the top-N per-name deltas of :func:`diff_traces`."""
    lines = [f"{'name':<40} {'before':>12} {'after':>12} {'delta':>12}"]
    for row in rows[:top]:
        lines.append(
            f"{row['name']:<40} "
            f"{_fmt_seconds(row['wall_self_before']):>12} "
            f"{_fmt_seconds(row['wall_self_after']):>12} "
            f"{_fmt_seconds(row['delta']):>12}"
        )
    return "\n".join(lines)
