"""Experiment sweep machinery: records, grids, aggregation.

The benchmark harness regenerates each figure as a table of rows; this
module provides the plumbing — an append-only :class:`ResultTable` of
uniform records, seeded trial fan-out, and group-by aggregation — without
depending on pandas (numpy-only per the project's dependency budget).

:func:`run_grid` is the sweep engine: it spawns one seed per
(configuration, trial) cell, runs the cells serially or on a process
pool, and assembles the rows in cell order, so the table is a pure
function of the root seed.  A raising trial does not discard its
siblings' results: each failure carries the grid params and seed path
and is either re-raised with that context (``on_error="raise"``, the
default) or recorded on :attr:`ResultTable.failures`
(``on_error="record"``).  A worker that dies hard breaks the pool; the
engine replaces the pool and re-runs the cells that had not finished.
"""

from __future__ import annotations

import traceback as traceback_module
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from repro import telemetry
from repro.obs import progress
from repro.store.hashing import plain_data
from repro.telemetry import Telemetry
from repro.utils.rng import spawn_seed_sequences

__all__ = [
    "CellFailure",
    "ResultTable",
    "SweepCellError",
    "run_grid",
]

#: How many times ``run_grid`` replaces a broken process pool (a worker
#: died hard) before giving up.  Each restart re-submits only the cells
#: that had not finished; deterministic seeding makes the re-runs exact.
_MAX_POOL_RESTARTS = 3


@dataclass(frozen=True)
class CellFailure:
    """Structured record of one sweep cell whose trial raised.

    Carries everything needed to reproduce the failure in isolation: the
    grid params, the cell/trial coordinates, and the seed path (the
    trial ``SeedSequence``'s spawn key relative to the root seed).
    """

    cell_index: int
    trial_index: int
    params: dict
    error_type: str
    error_message: str
    spawn_key: tuple
    traceback: str = ""

    def to_dict(self) -> dict:
        return {
            "cell_index": self.cell_index,
            "trial_index": self.trial_index,
            "params": plain_data(self.params),
            "error_type": self.error_type,
            "error_message": self.error_message,
            "spawn_key": list(self.spawn_key),
            "traceback": self.traceback,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CellFailure":
        return cls(
            cell_index=int(data["cell_index"]),
            trial_index=int(data["trial_index"]),
            params=dict(data["params"]),
            error_type=str(data["error_type"]),
            error_message=str(data["error_message"]),
            spawn_key=tuple(int(k) for k in data.get("spawn_key", ())),
            traceback=str(data.get("traceback", "")),
        )


class SweepCellError(RuntimeError):
    """A sweep cell's trial raised (``on_error="raise"``).

    The :attr:`failure` attribute holds the :class:`CellFailure`; the
    message embeds the params, seed path, and the original traceback so
    the cell is reproducible without re-running the sweep.
    """

    def __init__(self, failure: CellFailure) -> None:
        self.failure = failure
        super().__init__(
            f"sweep cell {failure.cell_index} trial {failure.trial_index} "
            f"failed: {failure.error_type}: {failure.error_message}\n"
            f"  params: {failure.params!r}\n"
            f"  seed path: root seed -> spawn_key {list(failure.spawn_key)}\n"
            f"{failure.traceback}"
        )


@dataclass
class ResultTable:
    """An append-only table of dict records with uniform keys.

    The first appended record fixes the column set; later records must
    carry exactly the same keys (catching typo'd metric names early).
    :attr:`failures` collects the :class:`CellFailure` records of cells
    that ran under ``on_error="record"`` — kept separate from
    :attr:`rows` so aggregations never silently average over holes.
    """

    rows: list[dict] = field(default_factory=list)
    failures: list[CellFailure] = field(default_factory=list)

    def append(self, **record) -> None:
        """Append one record."""
        if self.rows and set(record) != set(self.rows[0]):
            missing = set(self.rows[0]) - set(record)
            extra = set(record) - set(self.rows[0])
            raise ValueError(
                f"record keys differ from the table schema: missing {sorted(missing)}, "
                f"unexpected {sorted(extra)}"
            )
        self.rows.append(dict(record))

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def columns(self) -> list[str]:
        """Column names (empty before the first append)."""
        return list(self.rows[0]) if self.rows else []

    def column(self, name: str) -> np.ndarray:
        """One column as an array (object dtype for non-numeric columns)."""
        values = [row[name] for row in self.rows]
        try:
            return np.asarray(values, dtype=np.float64)
        except (TypeError, ValueError):
            return np.asarray(values, dtype=object)

    def where(self, **conditions) -> "ResultTable":
        """Rows matching all ``column == value`` conditions.

        Condition keys are validated against the table schema — a typo'd
        column name raises :class:`KeyError` instead of silently matching
        nothing (mirroring :meth:`append`'s typo catching).  On an empty
        table there is no schema yet, so any conditions return an empty
        table.
        """
        if self.rows:
            unknown = set(conditions) - set(self.rows[0])
            if unknown:
                raise KeyError(
                    f"unknown column(s) {sorted(unknown)}; "
                    f"table columns are {self.columns}"
                )
        out = ResultTable()
        for row in self.rows:
            if all(row[k] == v for k, v in conditions.items()):
                out.rows.append(row)
        return out

    def to_dict(self) -> dict:
        """JSON-ready form (rows normalised to plain data)."""
        return {
            "rows": [plain_data(row) for row in self.rows],
            "failures": [f.to_dict() for f in self.failures],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ResultTable":
        table = cls()
        for row in data.get("rows", []):
            table.append(**row)
        table.failures = [
            CellFailure.from_dict(f) for f in data.get("failures", [])
        ]
        return table

    def group_mean(self, by: str, value: str) -> dict[Any, float]:
        """Mean of ``value`` grouped by distinct values of ``by``
        (insertion-ordered)."""
        groups: dict[Any, list[float]] = {}
        for row in self.rows:
            groups.setdefault(row[by], []).append(float(row[value]))
        return {k: float(np.mean(v)) for k, v in groups.items()}

    def group_std(self, by: str, value: str) -> dict[Any, float]:
        """Sample standard deviation of ``value`` grouped by ``by``."""
        groups: dict[Any, list[float]] = {}
        for row in self.rows:
            groups.setdefault(row[by], []).append(float(row[value]))
        return {
            k: float(np.std(v, ddof=1)) if len(v) > 1 else 0.0
            for k, v in groups.items()
        }


def _execute_cell(
    trial: Callable[..., Iterable[dict]],
    seq: np.random.SeedSequence,
    trial_index: int,
    params: dict,
    cell_index: int,
    capture: bool,
) -> dict:
    """Run one cell, catching trial exceptions into a structured failure
    dict.

    Module-level (not a closure) so :func:`run_grid` can ship it to a
    :class:`~concurrent.futures.ProcessPoolExecutor` worker — the trial
    callable and its params are pickled along.  The generator is rebuilt
    from the cell's :class:`SeedSequence` *here*, never shipped
    pre-built, so a cell re-run after a pool restart draws exactly the
    stream the first run did.

    With ``capture=True`` the trial runs under a fresh
    :class:`~repro.telemetry.Telemetry` context whose export is returned
    alongside the records.  Worker processes do not inherit the parent's
    context variable, so this per-trial context is what carries spans and
    metrics back across the process boundary; the serial path uses the
    *same* mechanism so serial and parallel sweeps merge identically.
    """
    try:
        rng = np.random.default_rng(seq)
        if not capture:
            records = [
                dict(record)
                for record in trial(rng=rng, trial_index=trial_index, **params)
            ]
            return {"status": "ok", "records": records, "export": None}
        tele = Telemetry()
        with telemetry.use(tele):
            with tele.span("sweep.trial", cell=cell_index, trial=trial_index):
                records = [
                    dict(record)
                    for record in trial(rng=rng, trial_index=trial_index, **params)
                ]
        return {"status": "ok", "records": records, "export": tele.export()}
    except Exception as exc:
        return {
            "status": "failed",
            "error_type": type(exc).__name__,
            "error_message": str(exc),
            "traceback": traceback_module.format_exc(),
        }


@dataclass
class _Job:
    """One (cell, trial) unit of work, in stable submission order."""

    pos: int
    cell: int
    params: dict
    trial: int
    seq: np.random.SeedSequence


def run_grid(
    trial: Callable[..., Iterable[dict]],
    grid: Sequence[dict],
    *,
    num_trials: int = 1,
    seed=0,
    workers: int | None = None,
    on_error: str = "raise",
) -> ResultTable:
    """Run ``trial`` over a parameter grid with seeded repetitions.

    Parameters
    ----------
    trial:
        Called as ``trial(rng=<Generator>, trial_index=<int>, **params)``;
        must return an iterable of record dicts (each is appended, with
        the grid params and trial index merged in).
    grid:
        A sequence of parameter dicts (one per configuration).
    num_trials:
        Independent repetitions per configuration, each with its own
        spawned generator.  Seeding is hierarchical — one
        :class:`~numpy.random.SeedSequence` child per configuration,
        sub-spawned per trial — so raising ``num_trials`` (or appending
        configurations to the grid) extends the sweep without perturbing
        the streams of existing (configuration, trial) cells.
    seed:
        Root seed; the whole sweep is reproducible from it.
    workers:
        ``None`` or ``1`` runs serially in-process.  ``N > 1`` fans the
        (configuration, trial) cells out over a process pool.  Seed
        sequences are spawned *before* dispatch and results are merged in
        submission order, so the returned table is bit-identical to the
        serial run at the same ``seed`` regardless of scheduling.  A
        worker that dies hard (the pool raises ``BrokenProcessPool``)
        costs only a pool restart: unfinished cells are re-submitted, up
        to ``_MAX_POOL_RESTARTS`` times.  Requires ``trial`` (and its
        params) to be picklable — a module-level function, not a lambda
        or closure.
    on_error:
        ``"raise"`` (default): a cell whose trial raises raises
        :class:`SweepCellError` carrying the params, seed path, and
        original traceback.  ``"record"``: the failure becomes a
        :class:`CellFailure` on ``table.failures`` and its siblings run
        to completion.

    When a telemetry context is active (``repro.telemetry.use``), every
    trial — serial or pooled — runs under its own per-trial context
    rooted at a ``sweep.trial`` span, merged back in submission order:
    the merged trace and histogram state are deterministic and identical
    across ``workers`` settings.
    """
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if on_error not in ("raise", "record"):
        raise ValueError(f"on_error must be 'raise' or 'record', got {on_error!r}")

    tele = telemetry.current()
    capture = tele.enabled

    # Stable job ordering: cell-major, trial-minor — the row order.
    jobs: list[_Job] = []
    for cell, (params, config_seq) in enumerate(
        zip(grid, spawn_seed_sequences(seed, len(grid)))
    ):
        for t, trial_seq in enumerate(config_seq.spawn(num_trials)):
            jobs.append(_Job(len(jobs), cell, params, t, trial_seq))

    outcomes: list[dict | None] = [None] * len(jobs)
    ok_count = 0
    failed_count = 0

    # Heartbeats for the live ops plane (no-ops without an active board).
    # ``done`` counts terminal cells (ok + failed), so counts are
    # monotone and ``remaining`` reaches 0.
    progress.publish(
        "sweep",
        total=len(jobs), done=0, ok=0, failed=0,
        cells=len(grid), trials=num_trials, workers=workers or 1,
    )

    def _finalize(job: _Job, outcome: dict) -> None:
        """File one finished cell for assembly (and raise on a failure
        under ``on_error="raise"``)."""
        nonlocal ok_count, failed_count
        if outcome["status"] == "ok":
            outcomes[job.pos] = outcome
            ok_count += 1
            progress.bump("sweep", 1, ok=ok_count)
            return
        failure = CellFailure(
            cell_index=job.cell,
            trial_index=job.trial,
            params=dict(job.params),
            error_type=outcome["error_type"],
            error_message=outcome["error_message"],
            spawn_key=tuple(int(k) for k in job.seq.spawn_key),
            traceback=outcome["traceback"],
        )
        outcomes[job.pos] = {"status": "failed", "failure": failure}
        failed_count += 1
        progress.bump("sweep", 1, failed=failed_count)
        if on_error == "raise":
            raise SweepCellError(failure)

    with tele.span("sweep.run_grid", cells=len(grid), trials=num_trials,
                   workers=workers or 1):
        if workers is not None and workers > 1 and len(jobs) > 1:
            from concurrent.futures import ProcessPoolExecutor
            from concurrent.futures.process import BrokenProcessPool

            restarts = 0
            pool = ProcessPoolExecutor(max_workers=workers)
            try:
                pending = jobs
                while pending:
                    submitted = [
                        (job, pool.submit(
                            _execute_cell, trial, job.seq, job.trial,
                            job.params, job.cell, capture,
                        ))
                        for job in pending
                    ]
                    pending = []
                    for job, future in submitted:
                        try:
                            outcome = future.result()
                        except BrokenProcessPool:
                            # A worker died hard; this future cannot say
                            # whether its cell ran.  Re-run it on a
                            # fresh pool — determinism makes that exact.
                            pending.append(job)
                            continue
                        _finalize(job, outcome)
                    if pending:
                        restarts += 1
                        if restarts > _MAX_POOL_RESTARTS:
                            raise RuntimeError(
                                f"sweep worker pool died {restarts} times; "
                                f"giving up with {len(pending)} of "
                                f"{len(jobs)} cells unfinished"
                            )
                        pool.shutdown(wait=False)
                        pool = ProcessPoolExecutor(max_workers=workers)
            finally:
                pool.shutdown()
        else:
            for job in jobs:
                _finalize(job, _execute_cell(
                    trial, job.seq, job.trial, job.params, job.cell, capture,
                ))

        # -- assemble in stable job order ------------------------------ #
        table = ResultTable()
        for job, outcome in zip(jobs, outcomes):
            if outcome["status"] == "ok":
                if outcome["export"] is not None:
                    tele.absorb(outcome["export"])
                for record in outcome["records"]:
                    table.append(**{**job.params, "trial": job.trial, **record})
            else:
                table.failures.append(outcome["failure"])
    return table
