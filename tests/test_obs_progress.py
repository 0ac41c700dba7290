"""ProgressBoard + ObsServer: heartbeats, endpoints, and the sweep wiring.

The acceptance-critical properties live here: ``/progress`` cell counts
are monotone while a sweep runs, the final snapshot matches the returned
table exactly, and ``/metrics`` stays valid Prometheus text.
"""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.analysis.sweep import run_grid
from repro.experiments.smoke import run_smoke
from repro.obs import ProgressBoard, active_board, use_board
from repro.obs.progress import bump, publish
from repro.obs.server import ObsServer
from repro.telemetry.metrics import MetricsRegistry


def _get(url: str) -> bytes:
    with urllib.request.urlopen(url, timeout=5) as response:
        return response.read()


class TestProgressBoard:
    def test_update_and_snapshot(self):
        board = ProgressBoard()
        board.update("sweep", total=10, done=0)
        snap = board.snapshot()
        assert snap["sections"]["sweep"]["total"] == 10
        assert snap["sections"]["sweep"]["remaining"] == 10
        assert snap["uptime_seconds"] >= 0

    def test_advance_counts_and_remaining(self):
        board = ProgressBoard()
        board.update("sweep", total=5)
        board.advance("sweep", 2)
        board.advance("sweep", 1, failed=1)
        sec = board.snapshot()["sections"]["sweep"]
        assert sec["done"] == 3
        assert sec["remaining"] == 2
        assert sec["failed"] == 1

    def test_eta_zero_when_complete(self):
        board = ProgressBoard()
        board.update("solve", total=2)
        board.advance("solve", 2)
        sec = board.snapshot()["sections"]["solve"]
        assert sec["remaining"] == 0
        assert sec["eta_seconds"] == 0.0

    def test_sections_are_independent(self):
        board = ProgressBoard()
        board.update("sweep", total=3)
        board.update("fleet", oracle="dp")
        sections = board.snapshot()["sections"]
        assert set(sections) == {"sweep", "fleet"}
        assert "total" not in sections["fleet"]

    def test_snapshot_is_json_ready(self):
        board = ProgressBoard()
        board.update("sweep", total=3, shard="0/1")
        board.advance("sweep", 1)
        json.dumps(board.snapshot())  # must not raise

    def test_thread_safety_of_advance(self):
        board = ProgressBoard()
        board.update("sweep", total=400)

        def worker():
            for _ in range(100):
                board.advance("sweep", 1)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert board.snapshot()["sections"]["sweep"]["done"] == 400


class TestActiveBoard:
    def test_no_board_by_default(self):
        assert active_board() is None
        # Publishing without a board is a silent no-op.
        publish("sweep", total=1)
        bump("sweep", 1)

    def test_use_board_installs_and_restores(self):
        board = ProgressBoard()
        with use_board(board) as active:
            assert active is board
            assert active_board() is board
            publish("sweep", total=7)
            bump("sweep", 2)
        assert active_board() is None
        sec = board.snapshot()["sections"]["sweep"]
        assert sec["total"] == 7
        assert sec["done"] == 2
        assert sec["remaining"] == 5

    def test_nesting_restores_outer(self):
        outer, inner = ProgressBoard(), ProgressBoard()
        with use_board(outer):
            with use_board(inner):
                assert active_board() is inner
            assert active_board() is outer


class TestObsServer:
    def test_healthz(self):
        with ObsServer() as server:
            body = json.loads(_get(server.url + "/healthz"))
        assert body["status"] == "ok"

    def test_metrics_renders_live_registry(self):
        registry = MetricsRegistry()
        registry.counter("repro_cells_total").inc(3)
        with ObsServer(registry=registry) as server:
            first = _get(server.url + "/metrics").decode()
            registry.counter("repro_cells_total").inc(2)
            second = _get(server.url + "/metrics").decode()
        assert "repro_cells_total 3" in first
        assert "repro_cells_total 5" in second

    def test_metrics_503_without_registry(self):
        with ObsServer() as server:
            with pytest.raises(urllib.error.HTTPError) as info:
                _get(server.url + "/metrics")
        assert info.value.code == 503

    def test_progress_prefers_attached_board(self):
        board = ProgressBoard()
        board.update("solve", step=4)
        with ObsServer(board=board) as server:
            body = json.loads(_get(server.url + "/progress"))
        assert body["sections"]["solve"]["step"] == 4

    def test_progress_falls_back_to_active_board(self):
        board = ProgressBoard()
        with ObsServer() as server, use_board(board):
            publish("fleet", done=2)
            body = json.loads(_get(server.url + "/progress"))
        assert body["sections"]["fleet"]["done"] == 2

    def test_unknown_path_is_404(self):
        with ObsServer() as server:
            with pytest.raises(urllib.error.HTTPError) as info:
                _get(server.url + "/nope")
        assert info.value.code == 404

    def test_stop_is_idempotent(self):
        server = ObsServer().start()
        server.stop()
        server.stop()

    def test_port_before_start_raises(self):
        with pytest.raises(RuntimeError):
            ObsServer().port


class TestSweepProgressWiring:
    def test_counts_monotone_and_final_matches_table(self):
        """Cell counts at /progress only ever grow, and the final
        snapshot's ok/failed/done equal the returned table's rows and
        failures."""
        observed: list[dict] = []

        class SpyBoard(ProgressBoard):
            def advance(self, section, done=1, **fields):
                super().advance(section, done, **fields)
                observed.append(self.snapshot()["sections"][section])

        board = SpyBoard()
        with use_board(board):
            table = run_smoke(target_counts=(3, 4), num_trials=3)
        assert len(observed) == 6  # one advance per terminal cell
        for before, after in zip(observed, observed[1:]):
            assert after["done"] >= before["done"]
            assert after["ok"] >= before["ok"]
            assert after["failed"] >= before["failed"]
        final = board.snapshot()["sections"]["sweep"]
        assert final["ok"] == len(table.rows) == 6  # one row per smoke cell
        assert final["failed"] == len(table.failures) == 0
        assert final["done"] == final["total"] == 6
        assert final["remaining"] == 0

    def test_failures_counted(self):
        def failing_trial(rng, trial_index, **params):
            raise RuntimeError("boom")

        board = ProgressBoard()
        with use_board(board):
            table = run_grid(
                failing_trial, [{"x": 1}, {"x": 2}], num_trials=1,
                seed=0, on_error="record",
            )
        sec = board.snapshot()["sections"]["sweep"]
        assert sec["done"] == 2
        assert sec["failed"] == 2
        assert sec["ok"] == 0
        assert len(table.failures) == 2

    def test_run_grid_without_board_is_unaffected(self):
        # No board active: the sweep must neither crash nor record.
        table = run_smoke(target_counts=(3,), num_trials=1)
        assert len(table.rows) == 1
        assert active_board() is None


class TestSolveProgressWiring:
    def test_bracket_published(self):
        from repro.core.cubis import solve_cubis
        from repro.experiments.quality import default_uncertainty
        from repro.game.generator import random_interval_game

        game = random_interval_game(4, seed=11)
        board = ProgressBoard()
        with use_board(board):
            result = solve_cubis(
                game, default_uncertainty(game.payoffs),
                num_segments=6, epsilon=0.05,
            )
        sec = board.snapshot()["sections"]["solve"]
        assert sec["step"] >= 1
        # The published bracket is the raw candidate bracket; the final
        # result may tighten its lower bound further via certificate
        # levels, but never escape what was published.
        assert sec["bracket_lo"] <= sec["bracket_hi"]
        assert result.lower_bound >= sec["bracket_lo"] - 1e-9
        assert result.upper_bound <= sec["bracket_hi"] + 1e-9
        assert sec["bracket_width"] == pytest.approx(
            sec["bracket_hi"] - sec["bracket_lo"]
        )


class TestFleetProgressWiring:
    def test_games_and_shape_stats_published(self, fresh_shape_cache):
        from repro.experiments.quality import default_uncertainty
        from repro.game.generator import random_interval_game
        from repro.solvers.fleet import solve_fleet

        games = [random_interval_game(4, seed=s) for s in (1, 2, 3)]
        uncertainties = [default_uncertainty(g.payoffs) for g in games]
        board = ProgressBoard()
        with use_board(board):
            fleet = solve_fleet(
                games, uncertainties, num_segments=6, epsilon=0.05
            )
        sec = board.snapshot()["sections"]["fleet"]
        assert sec["done"] == len(fleet.results) == 3
        assert sec["total"] == 3
        assert sec["shape_hits"] == fleet.shape_stats["hits"]
        assert sec["shape_misses"] == fleet.shape_stats["misses"]
        assert sec["continuation_carried"] == 2
