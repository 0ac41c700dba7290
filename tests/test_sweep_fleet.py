"""Fleet-mode sweeps.

``run_grid(fleet=True)`` is bit-identical to the plain per-game path,
serially and through the process pool (the shape cache is a cost knob,
never an answer knob), and pooled fleet traces adopt into the same span
tree the serial run records.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.sweep import ResultTable, run_grid
from repro.core.cubis import solve_cubis
from repro.experiments.quality import default_uncertainty
from repro.game.generator import random_interval_game

GRID = [
    {"num_targets": 4, "num_segments": 4, "epsilon": 0.05, "backend": "highs"},
    {"num_targets": 5, "num_segments": 4, "epsilon": 0.05, "backend": "highs"},
]


def _bench_trial(
    rng, trial_index: int, *, num_targets: int, num_segments: int,
    epsilon: float, backend: str = "highs",
):
    """One sweep cell for the bit-identity checks.

    Module-level (picklable) so ``run_grid`` can ship it to pool workers;
    yields only deterministic columns — no timings — because the checks
    assert bit-identical tables.
    """
    game = random_interval_game(num_targets, seed=rng)
    result = solve_cubis(
        game, default_uncertainty(game.payoffs),
        num_segments=num_segments, epsilon=epsilon, backend=backend,
    )
    yield {
        "lower_bound": result.lower_bound,
        "upper_bound": result.upper_bound,
        "worst_case": result.worst_case_value,
        "oracle_calls": result.oracle_calls,
        "milp_solves": result.milp_solves,
    }


def _solve_run(**kwargs) -> ResultTable:
    return run_grid(_bench_trial, GRID, num_trials=2, seed=7, **kwargs)


def _rows_json(table: ResultTable) -> str:
    return json.dumps(table.to_dict(), sort_keys=True)


class TestFleetRunGridBitIdentity:
    def test_fleet_serial_matches_plain_serial(self):
        plain = _solve_run()
        fleet = _solve_run(fleet=True)
        assert _rows_json(fleet) == _rows_json(plain)

    def test_fleet_pooled_matches_plain_serial(self):
        plain = _solve_run()
        pooled = _solve_run(fleet=True, workers=2)
        assert _rows_json(pooled) == _rows_json(plain)

    @given(st.integers(0, 10**6))
    @settings(max_examples=3, deadline=None)
    def test_fleet_property_bit_identity_across_seeds(self, seed):
        grid = GRID[:1]
        plain = run_grid(_bench_trial, grid, num_trials=1, seed=seed)
        fleet = run_grid(_bench_trial, grid, num_trials=1, seed=seed,
                         fleet=True)
        assert _rows_json(fleet) == _rows_json(plain)


def _fleet_dp_trial(rng, trial_index, *, num_targets, **params):
    """A trial that solves a small DP-oracle fleet, so each cell's trace
    carries ``fleet.solve`` spans with the per-game solves under them."""
    from repro.solvers.fleet import solve_fleet

    games = [random_interval_game(num_targets, seed=100 * trial_index + i)
             for i in range(3)]
    uncertainties = [default_uncertainty(g.payoffs) for g in games]
    fleet = solve_fleet(games, uncertainties, num_segments=4, epsilon=0.1,
                        oracle="dp")
    return [{"value": fleet.results[0].lower_bound,
             "oracle_calls": sum(r.oracle_calls for r in fleet.results)}]


class TestFleetTraceAdoption:
    """Worker-process traces adopt into the same tree the serial run
    records, down to each fleet game's hull-screen spans."""

    GRID = [{"num_targets": 3}, {"num_targets": 4}]

    def _traced(self, **kwargs):
        from repro import telemetry
        from repro.telemetry import Telemetry, span_signature

        ctx = Telemetry()
        with telemetry.use(ctx):
            table = run_grid(_fleet_dp_trial, self.GRID, num_trials=2,
                             seed=3, fleet=True, **kwargs)
        # The root span honestly records its ``workers`` count — the one
        # attribute that *should* differ.  Everything else must match.
        sig = tuple(
            (pos, name, depth, status,
             tuple((k, v) for k, v in attrs if k != "workers"), err)
            for (pos, name, depth, status, attrs, err)
            in span_signature(ctx.spans)
        )
        # Timing histograms keep a deterministic observation *count* but
        # a wall-clock-dependent bucket spread; compare the former only.
        metrics = []
        for snap in ctx.metrics.snapshot():
            snap = dict(snap)
            if snap["type"] == "histogram":
                snap.pop("counts")
                snap.pop("sum")
            metrics.append(snap)
        return table, sig, metrics

    def test_workers4_span_tree_matches_serial(self):
        ref_table, ref_sig, ref_metrics = self._traced(workers=1)
        table, sig, metrics = self._traced(workers=4)
        assert _rows_json(table) == _rows_json(ref_table)
        assert sig == ref_sig, "adopted span tree must match serial run"
        assert metrics == ref_metrics

    def test_per_game_hull_screen_spans_present(self):
        _, sig, _ = self._traced(workers=1)
        fleets = {i for i, entry in enumerate(sig) if entry[1] == "fleet.solve"}
        solves = {
            i for i, entry in enumerate(sig)
            if entry[1] == "cubis.solve" and entry[0] in fleets
        }
        # 2 cells x 2 trials, 3 games per fleet.
        assert len(fleets) == 4 and len(solves) == 12
        screens = [entry for entry in sig if entry[1] == "cubis.hull_screen"]
        assert screens, "each game's grid hull screens must be traced"
        for parent, *_ in screens:
            # A screen sits somewhere below one of the fleet's solves.
            while parent is not None and parent not in solves:
                parent = sig[parent][0]
            assert parent in solves
