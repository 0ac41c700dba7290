"""Trace analysis: loading, critical path, self-time, flamegraph, diff.

Includes the acceptance checks: the critical path's telescoped wall time
matches the root span's duration within 5%, and a diff names the top
span-level deltas.  A torn trailing line is skipped with a warning.
"""

import json

import pytest

from repro import telemetry
from repro.obs.traces import (
    Trace,
    build_children,
    critical_path,
    diff_traces,
    flamegraph_lines,
    format_critical_path,
    format_diff,
    format_report,
    load_trace,
    self_time_by_name,
)
from repro.telemetry import Telemetry, write_jsonl
from repro.telemetry.spans import SpanRecord


def _span(span_id, parent_id, name, start, duration, depth,
          cpu_time=0.0, **attributes) -> SpanRecord:
    return SpanRecord(
        span_id=span_id, parent_id=parent_id, name=name, start=start,
        duration=duration, depth=depth, attributes=attributes,
        cpu_time=cpu_time,
    )


@pytest.fixture
def nested_trace() -> Trace:
    """root(10s) -> a(7s) -> leaf(5s); root -> b(2s)."""
    return Trace(path="synthetic", spans=(
        _span(1, None, "root", 0.0, 10.0, 0, cpu_time=1.0),
        _span(2, 1, "a", 0.5, 7.0, 1, cpu_time=6.0),
        _span(3, 2, "leaf", 1.0, 5.0, 2, cpu_time=5.0),
        _span(4, 1, "b", 8.0, 2.0, 1, cpu_time=2.0),
    ))


def _solve_trace(tmp_path, seed: int = 11, epsilon: float = 0.02):
    """A real traced solve, written and re-loaded through JSONL."""
    from repro.core.cubis import solve_cubis
    from repro.experiments.quality import default_uncertainty
    from repro.game.generator import random_interval_game

    tele = Telemetry()
    game = random_interval_game(5, seed=seed)
    with telemetry.use(tele):
        with tele.span("test.root"):
            solve_cubis(
                game, default_uncertainty(game.payoffs),
                num_segments=6, epsilon=epsilon,
            )
    path = tmp_path / f"trace_{seed}_{epsilon}.jsonl"
    write_jsonl(tele, path)
    return load_trace(path)


class TestLoadTrace:
    def test_round_trip_through_jsonl(self, tmp_path):
        trace = _solve_trace(tmp_path)
        assert trace.skipped_lines == 0
        assert len(trace.spans) > 0
        assert len(trace.roots) == 1
        assert trace.roots[0].name == "test.root"
        # Span ids are ordered, parent links resolve.
        ids = {s.span_id for s in trace.spans}
        for span in trace.spans:
            assert span.parent_id is None or span.parent_id in ids

    def test_metrics_are_captured(self, tmp_path):
        trace = _solve_trace(tmp_path)
        assert any(m["type"] == "histogram" for m in trace.metrics)

    def test_torn_trailing_line_warns_and_skips(self, tmp_path):
        trace = _solve_trace(tmp_path)
        torn = tmp_path / "torn.jsonl"
        text = (tmp_path / f"trace_11_0.02.jsonl").read_text()
        torn.write_text(text + '{"type": "span", "span_id": 99, "trunc')
        with pytest.warns(UserWarning, match="skipped 1 undecodable"):
            reloaded = load_trace(torn)
        assert reloaded.skipped_lines == 1
        assert len(reloaded.spans) == len(trace.spans)

    def test_garbage_middle_line_skipped(self, tmp_path):
        path = tmp_path / "garbage.jsonl"
        good = json.dumps(_span(1, None, "root", 0.0, 1.0, 0).to_dict())
        path.write_text("not json at all\n" + good + "\n\x00\x01\n")
        with pytest.warns(UserWarning, match="skipped 2"):
            trace = load_trace(path)
        assert [s.name for s in trace.spans] == ["root"]

    def test_span_missing_required_key_skipped(self, tmp_path):
        path = tmp_path / "missing.jsonl"
        path.write_text('{"type": "span", "span_id": 1}\n')
        with pytest.warns(UserWarning):
            trace = load_trace(path)
        assert trace.spans == ()

    def test_unknown_record_types_ignored_silently(self, tmp_path):
        path = tmp_path / "extra.jsonl"
        good = json.dumps(_span(1, None, "root", 0.0, 1.0, 0).to_dict())
        path.write_text(
            '{"type": "meta", "format_version": 1}\n'
            + good + "\n"
            + '{"type": "conformance", "instance": "x"}\n'
        )
        trace = load_trace(path)  # no warning expected
        assert trace.skipped_lines == 0
        assert len(trace.spans) == 1


class TestCriticalPath:
    def test_greedy_descent(self, nested_trace):
        path = critical_path(nested_trace)
        assert [step.span.name for step in path] == ["root", "a", "leaf"]

    def test_exclusive_telescopes_to_root(self, nested_trace):
        path = critical_path(nested_trace)
        total = sum(step.exclusive for step in path)
        assert total == pytest.approx(10.0)

    def test_empty_trace(self):
        assert critical_path(Trace(path="empty", spans=())) == []

    def test_acceptance_within_5_percent_of_root(self, tmp_path):
        """The acceptance criterion, on a real solve trace."""
        trace = _solve_trace(tmp_path)
        root = trace.roots[0]
        path = critical_path(trace)
        assert path[0].span is root
        children = build_children(trace.spans)
        assert path[-1].span.span_id not in children  # a true leaf
        total = sum(step.exclusive for step in path)
        assert total == pytest.approx(root.duration, rel=0.05)

    def test_explicit_root(self, nested_trace):
        path = critical_path(nested_trace, root=nested_trace.spans[1])
        assert [step.span.name for step in path] == ["a", "leaf"]
        assert sum(s.exclusive for s in path) == pytest.approx(7.0)


class TestSelfTime:
    def test_self_time_subtracts_children(self, nested_trace):
        stats = {s.name: s for s in self_time_by_name(nested_trace)}
        assert stats["root"].wall_self == pytest.approx(10.0 - 7.0 - 2.0)
        assert stats["a"].wall_self == pytest.approx(7.0 - 5.0)
        assert stats["leaf"].wall_self == pytest.approx(5.0)
        assert stats["b"].wall_self == pytest.approx(2.0)

    def test_cpu_self_time(self, nested_trace):
        stats = {s.name: s for s in self_time_by_name(nested_trace)}
        # root cpu 1.0 with children cpu 6+2=8 -> clamped to 0.
        assert stats["root"].cpu_self == 0.0
        assert stats["a"].cpu_self == pytest.approx(1.0)

    def test_total_self_time_conserved(self, tmp_path):
        # Summed self time over all names equals summed root durations
        # (every nanosecond belongs to exactly one innermost span).
        trace = _solve_trace(tmp_path)
        total_self = sum(s.wall_self for s in self_time_by_name(trace))
        total_roots = sum(r.duration for r in trace.roots)
        assert total_self == pytest.approx(total_roots, rel=0.05)

    def test_sorted_by_wall_self_descending(self, tmp_path):
        stats = self_time_by_name(_solve_trace(tmp_path))
        walls = [s.wall_self for s in stats]
        assert walls == sorted(walls, reverse=True)


class TestFlamegraph:
    def test_collapsed_stack_format(self, nested_trace):
        lines = flamegraph_lines(nested_trace)
        parsed = {}
        for line in lines:
            stack, value = line.rsplit(" ", 1)
            parsed[stack] = int(value)
        assert parsed["root"] == 1_000_000  # 1s self in µs
        assert parsed["root;a"] == 2_000_000
        assert parsed["root;a;leaf"] == 5_000_000
        assert parsed["root;b"] == 2_000_000

    def test_values_are_positive_integers(self, tmp_path):
        for line in flamegraph_lines(_solve_trace(tmp_path)):
            stack, value = line.rsplit(" ", 1)
            assert int(value) > 0
            assert stack


class TestDiff:
    def test_top_deltas_named(self, nested_trace):
        slower = Trace(path="after", spans=(
            _span(1, None, "root", 0.0, 14.0, 0),
            _span(2, 1, "a", 0.5, 7.0, 1),
            _span(3, 2, "leaf", 1.0, 9.0, 2),  # leaf regressed by 4s...
            _span(4, 1, "b", 8.0, 2.0, 1),
        ))
        rows = diff_traces(nested_trace, slower)
        assert rows[0]["name"] == "leaf"  # ...and is named first
        assert rows[0]["delta"] == pytest.approx(4.0)

    def test_acceptance_top3_between_real_runs(self, tmp_path):
        before = _solve_trace(tmp_path, seed=11)
        after = _solve_trace(tmp_path, seed=13)
        rows = diff_traces(before, after)
        assert len(rows) >= 3
        top3 = [r["name"] for r in rows[:3]]
        assert len(set(top3)) == 3  # three distinct span names
        deltas = [abs(r["delta"]) for r in rows]
        assert deltas == sorted(deltas, reverse=True)

    def test_names_unique_to_one_side(self, nested_trace):
        other = Trace(path="after", spans=(
            _span(1, None, "root", 0.0, 3.0, 0),
            _span(2, 1, "new_phase", 0.5, 3.0, 1),
        ))
        rows = {r["name"]: r for r in diff_traces(nested_trace, other)}
        assert rows["new_phase"]["count_before"] == 0
        assert rows["new_phase"]["count_after"] == 1
        assert rows["leaf"]["wall_self_after"] == 0.0


class TestFormatters:
    def test_report_mentions_top_names(self, nested_trace):
        text = format_report(nested_trace)
        assert "root" in text and "leaf" in text
        assert "spans: 4" in text

    def test_report_flags_skipped_lines(self):
        trace = Trace(path="x", spans=(), skipped_lines=2)
        assert "skipped_lines: 2" in format_report(trace)

    def test_critical_path_renders_total(self, nested_trace):
        text = format_critical_path(critical_path(nested_trace))
        assert "= path total" in text
        assert "root" in text

    def test_diff_renders_rows(self, nested_trace):
        text = format_diff(diff_traces(nested_trace, nested_trace))
        assert "delta" in text
