"""Live observability plane: progress heartbeats, an embeddable HTTP ops
server, and offline trace analysis.

The package has two halves (docs/OBSERVABILITY.md):

* **Live ops** — long-running workloads (``run_grid``, ``solve_fleet``,
  ``solve_cubis``) publish heartbeats through a thread-safe
  :class:`ProgressBoard`; an :class:`ObsServer` (stdlib ``http.server``
  on a daemon thread) serves ``GET /healthz``, ``GET /metrics``
  (Prometheus text against the live registry), and ``GET /progress``
  (a JSON snapshot of the board).  Every long-running CLI subcommand
  grows ``--serve [PORT]``.
* **Trace analysis** — :mod:`repro.obs.traces` reads the telemetry
  JSONL emitted by ``--telemetry``, rebuilds the span tree, computes
  the critical path and per-name self-time, renders collapsed-stack
  flamegraph lines, and diffs two traces.  Exposed as ``repro trace``.

Everything is dependency-free stdlib; importing this package never pulls
in the solvers.  It imports only the progress board, which every solve
uses; code that serves imports :mod:`repro.obs.server` and
:mod:`repro.obs.routes` itself, so a solve never loads ``http.server``.
"""

from repro.obs.progress import ProgressBoard, active_board, use_board

__all__ = ["ProgressBoard", "active_board", "use_board"]
