"""Tests for repro.analysis.sweep."""

import os

import numpy as np
import pytest

from repro.analysis.sweep import (
    ResultTable,
    SweepCellError,
    run_grid,
)


def _pickleable_trial(rng, trial_index, *, size):
    """Module-level trial so the process-pool tests can pickle it."""
    yield {"value": float(rng.uniform()), "draws": rng.integers(0, 10**9, size=2).tolist()}


def _dies_once_trial(rng, trial_index, *, size, marker):
    """Kills its worker process outright (no exception, no cleanup) the
    first time any cell runs; every later run finds ``marker`` and
    proceeds.  Module-level so the pool can pickle it."""
    try:
        open(marker, "x").close()
    except FileExistsError:
        pass
    else:
        os._exit(3)
    yield {"value": float(rng.uniform())}


def _brittle_trial(rng, trial_index, *, size):
    """Fails deterministically for one grid configuration."""
    if size == 3:
        raise ValueError(f"injected failure for size={size}")
    yield {"value": float(rng.uniform())}


class TestResultTable:
    def test_append_and_len(self):
        t = ResultTable()
        t.append(a=1, b=2.0)
        t.append(a=2, b=3.0)
        assert len(t) == 2
        assert t.columns == ["a", "b"]

    def test_schema_enforced(self):
        t = ResultTable()
        t.append(a=1, b=2.0)
        with pytest.raises(ValueError, match="missing.*'b'"):
            t.append(a=1, c=2.0)

    def test_column_numeric(self):
        t = ResultTable()
        t.append(v=1.5)
        t.append(v=2.5)
        np.testing.assert_array_equal(t.column("v"), [1.5, 2.5])

    def test_column_object_fallback(self):
        t = ResultTable()
        t.append(name="x")
        t.append(name="y")
        assert t.column("name").dtype == object

    def test_where(self):
        t = ResultTable()
        t.append(algo="a", v=1.0)
        t.append(algo="b", v=2.0)
        t.append(algo="a", v=3.0)
        sub = t.where(algo="a")
        assert len(sub) == 2
        np.testing.assert_array_equal(sub.column("v"), [1.0, 3.0])

    def test_where_typo_raises(self):
        """Regression: a typo'd column used to silently match nothing."""
        t = ResultTable()
        t.append(algo="a", v=1.0)
        with pytest.raises(KeyError, match="algorithm"):
            t.where(algorithm="a")  # column is 'algo'

    def test_where_reports_known_columns(self):
        t = ResultTable()
        t.append(algo="a", v=1.0)
        with pytest.raises(KeyError, match="algo"):
            t.where(nope=1)

    def test_where_no_match_is_empty_not_error(self):
        t = ResultTable()
        t.append(algo="a", v=1.0)
        assert len(t.where(algo="zzz")) == 0

    def test_where_on_empty_table(self):
        assert len(ResultTable().where(anything=1)) == 0

    def test_group_mean(self):
        t = ResultTable()
        for size, v in [(5, 1.0), (5, 3.0), (10, 4.0)]:
            t.append(size=size, v=v)
        means = t.group_mean("size", "v")
        assert means == {5: 2.0, 10: 4.0}

    def test_group_std(self):
        t = ResultTable()
        for v in (1.0, 3.0):
            t.append(size=5, v=v)
        t.append(size=10, v=7.0)
        stds = t.group_std("size", "v")
        assert stds[5] == pytest.approx(np.std([1.0, 3.0], ddof=1))
        assert stds[10] == 0.0

    def test_empty_table(self):
        t = ResultTable()
        assert len(t) == 0 and t.columns == []

    def test_dict_roundtrip(self):
        t = ResultTable()
        t.append(k=1, v=10.0)
        assert ResultTable.from_dict(t.to_dict()).rows == t.rows


class TestRunGrid:
    @staticmethod
    def trial(rng, trial_index, *, size):
        yield {"value": float(rng.uniform()), "size_sq": size * size}

    def test_grid_times_trials(self):
        table = run_grid(self.trial, [{"size": 2}, {"size": 3}], num_trials=4, seed=0)
        assert len(table) == 8
        assert set(table.column("size").tolist()) == {2.0, 3.0}

    def test_params_merged_into_records(self):
        table = run_grid(self.trial, [{"size": 5}], num_trials=1, seed=0)
        row = table.rows[0]
        assert row["size"] == 5 and row["size_sq"] == 25
        assert row["trial"] == 0

    def test_reproducible(self):
        a = run_grid(self.trial, [{"size": 2}], num_trials=3, seed=42)
        b = run_grid(self.trial, [{"size": 2}], num_trials=3, seed=42)
        np.testing.assert_array_equal(a.column("value"), b.column("value"))

    def test_trials_get_independent_streams(self):
        table = run_grid(self.trial, [{"size": 2}], num_trials=5, seed=1)
        values = table.column("value")
        assert len(set(values.tolist())) == 5

    def test_multi_record_trials(self):
        def multi(rng, trial_index, *, size):
            for algo in ("a", "b"):
                yield {"algorithm": algo, "value": 1.0, "size_sq": size}

        table = run_grid(multi, [{"size": 2}], num_trials=2, seed=0)
        assert len(table) == 4


class TestHierarchicalSeeding:
    """Seeds spawn per configuration, then per trial — so growing the
    sweep in either direction never re-deals existing cells."""

    GRID = [{"size": 2}, {"size": 3}]

    def test_adding_trials_keeps_existing_trials(self):
        """Regression: flat spawning indexed streams by
        ``config * num_trials + trial``, so changing ``num_trials``
        re-dealt every configuration after the first."""
        one = run_grid(_pickleable_trial, self.GRID, num_trials=1, seed=7)
        three = run_grid(_pickleable_trial, self.GRID, num_trials=3, seed=7)
        kept = [row for row in three.rows if row["trial"] == 0]
        assert one.rows == kept

    def test_extending_grid_keeps_existing_configs(self):
        small = run_grid(_pickleable_trial, self.GRID[:1], num_trials=2, seed=7)
        big = run_grid(_pickleable_trial, self.GRID, num_trials=2, seed=7)
        assert small.rows == big.rows[: len(small.rows)]

    def test_configs_get_distinct_streams(self):
        table = run_grid(_pickleable_trial, self.GRID, num_trials=1, seed=7)
        assert table.rows[0]["value"] != table.rows[1]["value"]


class TestOnError:
    GRID = [{"size": 2}, {"size": 3}, {"size": 4}]

    def test_default_raises_with_cell_context(self):
        with pytest.raises(SweepCellError, match="size.*3"):
            run_grid(_brittle_trial, self.GRID, num_trials=1, seed=0)

    def test_failure_carries_seed_path(self):
        with pytest.raises(SweepCellError) as excinfo:
            run_grid(_brittle_trial, self.GRID, num_trials=1, seed=0)
        failure = excinfo.value.failure
        assert failure.params == {"size": 3}
        assert failure.error_type == "ValueError"
        assert isinstance(failure.spawn_key, tuple) and failure.spawn_key
        message = str(excinfo.value)
        assert "params" in message and "seed path" in message
        assert "injected failure" in failure.traceback

    def test_record_mode_isolates_the_failure(self):
        table = run_grid(_brittle_trial, self.GRID, num_trials=2, seed=0,
                         on_error="record")
        assert len(table) == 4, "both trials of sizes 2 and 4 survive"
        assert len(table.failures) == 2
        assert all(f.params == {"size": 3} for f in table.failures)
        # Failed cells leave no rows, so aggregations never average holes.
        assert set(table.group_mean("size", "value")) == {2, 4}

    def test_record_mode_rows_match_healthy_subgrid(self):
        """Failing cells must not perturb their siblings' streams."""
        healthy = run_grid(
            _pickleable_trial, self.GRID, num_trials=1, seed=0,
        )
        recorded = run_grid(_brittle_trial, self.GRID, num_trials=1, seed=0,
                            on_error="record")
        kept = [row["value"] for row in healthy.rows if row["size"] != 3]
        assert [row["value"] for row in recorded.rows] == kept

    def test_pool_mode_records_failures_too(self):
        table = run_grid(_brittle_trial, self.GRID, num_trials=2, seed=0,
                         on_error="record", workers=2)
        assert len(table) == 4 and len(table.failures) == 2

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="on_error"):
            run_grid(_brittle_trial, self.GRID, on_error="panic")


class TestParallelRunGrid:
    GRID = [{"size": 2}, {"size": 3}]

    def test_parallel_bit_identical_to_serial(self):
        serial = run_grid(_pickleable_trial, self.GRID, num_trials=2, seed=3)
        parallel = run_grid(
            _pickleable_trial, self.GRID, num_trials=2, seed=3, workers=2
        )
        assert serial.rows == parallel.rows

    def test_workers_one_stays_in_process(self):
        serial = run_grid(_pickleable_trial, self.GRID, num_trials=1, seed=3)
        one = run_grid(_pickleable_trial, self.GRID, num_trials=1, seed=3, workers=1)
        assert serial.rows == one.rows

    def test_worker_death_restarts_pool(self, tmp_path):
        """A worker killed mid-cell (``os._exit``) breaks the pool; the
        sweep replaces it, re-runs the unfinished cells, and the table
        still equals the serial run's."""
        grid = [{**params, "marker": str(tmp_path / "died")}
                for params in self.GRID]
        pooled = run_grid(_dies_once_trial, grid, num_trials=2, seed=3,
                          workers=2)
        assert (tmp_path / "died").exists(), "a worker must have died"
        serial = run_grid(_dies_once_trial, grid, num_trials=2, seed=3)
        assert pooled.rows == serial.rows and len(pooled) == 4

    def test_invalid_workers(self):
        with pytest.raises(ValueError, match="workers"):
            run_grid(_pickleable_trial, self.GRID, num_trials=1, seed=3, workers=0)
