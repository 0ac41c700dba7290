"""Thread-safe progress heartbeats for long-running workloads.

A :class:`ProgressBoard` is a small bulletin board: workload code calls
:meth:`ProgressBoard.update` / :meth:`ProgressBoard.advance` with
whatever it knows (``sweep``: cells done/ok/failed; ``fleet``:
games solved and shape-cache hits; ``solve``: the live bisection
bracket), and the :class:`~repro.obs.server.ObsServer` renders
:meth:`ProgressBoard.snapshot` as ``GET /progress``.

The board is deliberately *not* carried on the telemetry contextvar:
the HTTP server thread and worker threads must all see the same board,
and contextvars don't cross threads.  Instead one module-global *active
board* is installed with :func:`use_board` (a context manager, like
``telemetry.use``) and read with :func:`active_board`.  Publishing to
the board when none is active is a no-op — workloads can call
``advance``/``update`` unconditionally via :func:`publish` /
:func:`bump` without checking whether ``--serve`` was given.

Rolling throughput: :meth:`advance` records a completion timestamp per
unit of work into a bounded deque; :meth:`snapshot` derives
``throughput_per_s`` from the window and, when the section carries
``total`` and ``done``, an ``eta_seconds`` estimate.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from contextlib import contextmanager

__all__ = ["ProgressBoard", "use_board", "active_board", "publish", "bump"]

#: Completion timestamps kept per section for rolling throughput.
_WINDOW = 256


class ProgressBoard:
    """Mutable, thread-safe map of section name -> progress fields.

    Sections are free-form dicts (``"sweep"``, ``"fleet"``, ``"solve"``,
    ...); the conventional fields per workload are documented in
    docs/OBSERVABILITY.md.  All methods may be called from any thread.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._sections: dict[str, dict] = {}
        self._marks: dict[str, deque] = {}
        self._started = time.time()

    def update(self, section: str, **fields) -> None:
        """Merge ``fields`` into ``section`` (created on first use)."""
        with self._lock:
            self._sections.setdefault(section, {}).update(fields)

    def advance(self, section: str, done: int = 1, **fields) -> None:
        """Record ``done`` completed units of work in ``section``.

        Increments the section's ``done`` counter, stamps completion
        times for the rolling-throughput window, and merges any extra
        ``fields`` in the same locked step.
        """
        now = time.time()
        with self._lock:
            sec = self._sections.setdefault(section, {})
            sec["done"] = int(sec.get("done", 0)) + int(done)
            sec.update(fields)
            marks = self._marks.setdefault(section, deque(maxlen=_WINDOW))
            for _ in range(int(done)):
                marks.append(now)

    def snapshot(self) -> dict:
        """JSON-ready snapshot of every section.

        Each section gets derived ``throughput_per_s`` (completions per
        second over the rolling window, ``None`` until two completions
        landed) and, when ``total`` is known, ``remaining`` and
        ``eta_seconds``.
        """
        now = time.time()
        with self._lock:
            out: dict = {
                "uptime_seconds": round(now - self._started, 3),
                "sections": {},
            }
            for name, sec in self._sections.items():
                view = dict(sec)
                marks = self._marks.get(name)
                throughput = None
                if marks and len(marks) >= 2:
                    window = marks[-1] - marks[0]
                    if window > 0:
                        throughput = (len(marks) - 1) / window
                view["throughput_per_s"] = (
                    round(throughput, 6) if throughput is not None else None
                )
                total = view.get("total")
                done = view.get("done")
                if isinstance(total, int) and isinstance(done, int):
                    remaining = max(0, total - done)
                    view["remaining"] = remaining
                    view["eta_seconds"] = (
                        round(remaining / throughput, 3)
                        if throughput and remaining else
                        (0.0 if remaining == 0 else None)
                    )
                out["sections"][name] = view
            return out


_ACTIVE_LOCK = threading.Lock()
_ACTIVE: ProgressBoard | None = None


@contextmanager
def use_board(board: ProgressBoard):
    """Install ``board`` as the process-wide active board for the block.

    Nesting restores the previous board on exit.  Module-global rather
    than a contextvar so the HTTP server thread sees it too.
    """
    global _ACTIVE
    with _ACTIVE_LOCK:
        previous, _ACTIVE = _ACTIVE, board
    try:
        yield board
    finally:
        with _ACTIVE_LOCK:
            _ACTIVE = previous


def active_board() -> ProgressBoard | None:
    """The currently installed board, or ``None``."""
    return _ACTIVE


def publish(section: str, **fields) -> None:
    """``active_board().update(...)`` if a board is active, else no-op."""
    board = _ACTIVE
    if board is not None:
        board.update(section, **fields)


def bump(section: str, done: int = 1, **fields) -> None:
    """``active_board().advance(...)`` if a board is active, else no-op."""
    board = _ACTIVE
    if board is not None:
        board.advance(section, done, **fields)
