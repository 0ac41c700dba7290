"""Fault-isolation tests for run_grid.

A trial that raises in one cell must either surface as a
:class:`SweepCellError` carrying enough context to reproduce the cell
(``on_error="raise"``), or be recorded without leaving rows that would
skew aggregations (``on_error="record"``).
"""

import pytest

from repro.analysis.sweep import ResultTable, SweepCellError, run_grid

GRID = [{"size": 2}, {"size": 3}, {"size": 4}]


class InjectedTrialCrash(RuntimeError):
    """The error the crashing trial raises."""


def _crashing_trial(rng, trial_index, *, size):
    """Deterministic trial that raises only in cell 1 (``size=3``),
    trial 0; every other cell yields one row."""
    if size == 3 and trial_index == 0:
        raise InjectedTrialCrash(f"injected crash for size={size}")
    yield {"value": int(rng.integers(0, 10**9))}


def _reference(**kwargs) -> ResultTable:
    return run_grid(_crashing_trial, GRID, num_trials=2, seed=5, **kwargs)


class TestFaultIsolationAndRetry:
    def test_exhausted_cell_raises_with_full_context(self):
        with pytest.raises(SweepCellError) as excinfo:
            _reference()
        failure = excinfo.value.failure
        assert failure.cell_index == 1 and failure.trial_index == 0
        assert failure.params == {"size": 3}
        assert failure.error_type == "InjectedTrialCrash"
        assert len(failure.spawn_key) > 0
        message = str(excinfo.value)
        assert "params" in message and "seed path" in message
        assert "InjectedTrialCrash" in failure.traceback

    def test_failure_rows_never_pollute_aggregation(self):
        table = _reference(on_error="record")
        assert len(table) == 5 and len(table.failures) == 1
        means = table.group_mean("size", "value")
        assert set(means) == {2, 3, 4}
        # The failed cell leaves no row: size 3's mean is its one survivor.
        (survivor,) = table.where(size=3).rows
        assert means[3] == survivor["value"]
