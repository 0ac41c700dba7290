"""What importing and solving load.

``scipy.stats`` serves one t-test (``analysis.comparison``),
``networkx`` serves only geographic games (``game.graph``),
``http.server`` serves only the ops server (``obs.server``), and
``asyncio``, ``ssl`` and ``http.client`` serve only the service daemon
and client (``service.daemon``, ``service.client``); each is imported
only where it is used.  A solve, ``import repro`` itself and the
in-process service engine must load none of them.

No scipy module at all loads with ``import repro``,
``import repro.service.engine``, or on the DP oracle's paths (a solve, a
fleet, ``certify_result`` of a DP result): ``scipy.sparse`` loads at the
first MILP skeleton build and ``scipy.optimize`` at the first MILP, LP,
SLSQP or root-finder call.  A default MILP solve must then still run its
LP screens on the live HiGHS binding, and ``repro serve``'s daemon pays
those imports in ``start``, before its first request.

Each check runs in a fresh interpreter, since the test process may
already have imported them.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parents[1]
DEFERRED = ("scipy.stats", "networkx", "http.server", "asyncio", "ssl", "http.client")


def run_python(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=env, capture_output=True, text=True, timeout=300,
    )


def assert_ran(proc: subprocess.CompletedProcess) -> None:
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip().endswith("ok"), proc.stdout + proc.stderr


class TestImportGuard:
    def test_solve_paths_load_neither(self):
        proc = run_python(f"""
            import sys

            DEFERRED = {DEFERRED!r}

            def check(where):
                loaded = [m for m in DEFERRED if m in sys.modules]
                assert not loaded, f"{{where}} loaded {{loaded}}"

            import repro
            check("import repro")

            from repro.experiments.quality import default_uncertainty
            from repro.solvers.fleet import solve_fleet
            from repro.solvers.resolve import resolve, start_resolve
            from repro.behavior import BandScaledModel

            options = dict(num_segments=6, epsilon=1e-2)
            game = repro.random_interval_game(6, seed=3)
            model = default_uncertainty(game.payoffs)
            repro.solve_cubis(game, model, **options)
            check("a default MILP solve")
            repro.solve_cubis(game, model, oracle="dp", **options)
            check("a dp solve")
            handle = start_resolve(game, model, **options)
            resolve(handle, BandScaledModel(model, 0.9))
            check("start_resolve and resolve")
            games = [repro.random_interval_game(5, seed=s) for s in (1, 2)]
            solve_fleet(games, [default_uncertainty(g.payoffs) for g in games],
                        **options)
            check("solve_fleet")

            import repro.service.engine
            check("import repro.service.engine")
            from repro.analysis.io import game_to_dict, uncertainty_to_dict
            from repro.service import SolveEngine

            engine = SolveEngine(workers=1)
            try:
                result = engine.submit({{
                    "game": game_to_dict(game),
                    "uncertainty": uncertainty_to_dict(model),
                    "options": options,
                }}).wait(timeout=120)
            finally:
                engine.close()
            assert result is not None and result.ok, result
            check("a SolveEngine solve")
            print("ok")
        """)
        assert_ran(proc)


class TestScipyOnlyWhereASolverRuns:
    def test_dp_paths_load_no_scipy(self):
        proc = run_python("""
            import sys

            def check(where):
                loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
                assert not loaded, f"{where} loaded {loaded[:5]}"

            import repro
            check("import repro")
            import repro.service.engine
            check("import repro.service.engine")

            from repro.experiments.quality import default_uncertainty
            from repro.solvers import milp_backend
            from repro.solvers.fleet import solve_fleet

            options = dict(num_segments=6, epsilon=1e-2)
            game = repro.random_interval_game(6, seed=3)
            model = default_uncertainty(game.payoffs)
            result = repro.solve_cubis(game, model, oracle="dp", **options)
            check("a dp solve")
            games = [repro.random_interval_game(5, seed=s) for s in (1, 2)]
            solve_fleet(games, [default_uncertainty(g.payoffs) for g in games],
                        oracle="dp", **options)
            check("a dp fleet")
            assert repro.certify_result(game, model, result).valid
            check("certify_result of a dp result")
            assert milp_backend._HIGHS is milp_backend._UNPROBED

            result = repro.solve_cubis(game, model, **options)
            assert "scipy.optimize" in sys.modules
            assert result.lp_solves > 0, result.lp_solves
            # Resolved: a probe that never ran would send every LP screen
            # to scipy.optimize.milp without saying so.
            assert milp_backend._HIGHS is not milp_backend._UNPROBED
            print("ok")
        """)
        assert_ran(proc)

    def test_service_daemon_loads_the_solver_at_start(self):
        proc = run_python("""
            import sys

            from repro.service import SolveEngine
            from repro.service.daemon import ServiceDaemon
            from repro.solvers import milp_backend

            assert "scipy.optimize" not in sys.modules
            engine = SolveEngine(workers=1)
            daemon = ServiceDaemon(engine, port=0).start()
            try:
                assert "scipy.optimize" in sys.modules
                assert milp_backend._HIGHS is not milp_backend._UNPROBED
            finally:
                daemon.stop()
            print("ok")
        """)
        assert_ran(proc)


class TestWithoutNetworkx:
    def test_solves_and_hints_the_extra(self):
        proc = run_python("""
            import sys

            sys.modules["networkx"] = None  # makes `import networkx` fail
            import repro
            from repro.experiments.quality import default_uncertainty

            game = repro.random_interval_game(8)
            result = repro.solve_cubis(game, default_uncertainty(game.payoffs))
            assert result.strategy.shape == (8,)
            try:
                repro.geographic_game(num_sites=8, seed=0)
            except ImportError as exc:
                assert "repro[graph]" in str(exc), exc
            else:
                raise AssertionError("geographic_game ran without networkx")
            print("ok")
        """)
        assert_ran(proc)
