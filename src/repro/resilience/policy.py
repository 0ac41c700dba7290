"""The fallback ladder: rungs, retry policy, and the step executor.

``solve_cubis`` (and ``solve_pasaq``) reduce to a sequence of monotone
feasibility checks; each check is independent, so a failed MILP solve
need not kill the whole binary search — the same question can be asked
of a different backend.  A :class:`ResiliencePolicy` names the ladder of
substitutes (:class:`Rung` entries, by default ``highs`` → ``bnb`` →
``dp``), how many times each rung is retried, and a soft per-attempt
wall-clock budget; :class:`OracleLadder` executes one binary-search step
under that policy and records every attempt as a
:class:`~repro.resilience.events.StepEvent`.

Timeouts are *soft*: attempts are not interrupted mid-solve (portably
interrupting HiGHS is not possible without threads or signals), but an
attempt whose wall time exceeds ``step_timeout`` is discarded and the
ladder escalates — so a backend that has started thrashing stops being
consulted as soon as it first overruns when ``sticky=True``.

The DP rung is the designated survivor: it is pure NumPy, cannot fail
for solver reasons, and is ``O(eps + 1/K)``-accurate like the MILP
(with a larger constant — see :mod:`repro.core.dp`), so a ladder ending
in ``Rung("dp")`` always completes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.resilience.events import SolveEventLog, StepEvent
from repro.solvers.milp_backend import backend_label

__all__ = [
    "Rung",
    "ResiliencePolicy",
    "ResilienceReport",
    "OracleLadder",
    "OracleStepError",
    "LadderExhaustedError",
    "DEFAULT_RUNGS",
    "validate_step_solution",
]

#: Slack of :func:`validate_step_solution`: branch-and-cut backends report
#: solutions at their own primal-feasibility tolerance.
_STEP_VALIDATION_TOL = 1e-6


class OracleStepError(RuntimeError):
    """A single oracle attempt failed (solver error, invalid solution,
    non-finite objective).  Raised by the per-step oracles; caught by the
    ladder, which escalates instead of propagating."""


def validate_step_solution(
    strategy: np.ndarray,
    budget: float,
    label: str,
    *,
    equality: bool = False,
    constraints=None,
) -> None:
    """Screen a step oracle's answer, so a corrupted or perturbed solution
    cannot steer the binary search: raise :class:`OracleStepError` (naming
    ``label``) unless ``strategy`` is finite, in ``[0, 1]``, spends at most
    ``budget`` (exactly, if ``equality``) and satisfies ``constraints``
    (``CoverageConstraints``), all within ``_STEP_VALIDATION_TOL``."""
    tol = _STEP_VALIDATION_TOL
    if not np.all(np.isfinite(strategy)):
        raise OracleStepError(f"{label} returned a non-finite strategy")
    if np.any(strategy < -tol) or np.any(strategy > 1.0 + tol):
        raise OracleStepError(
            f"{label} returned coverage outside [0, 1]: "
            f"min {strategy.min():.6g}, max {strategy.max():.6g}"
        )
    spent = float(strategy.sum())
    over = spent - budget
    if over > tol or (equality and abs(over) > tol):
        raise OracleStepError(
            f"{label} violated the resource budget: sum x = {spent:.6g} "
            f"vs R = {budget:.6g}"
        )
    if constraints is not None and not constraints.satisfied(strategy, atol=tol):
        raise OracleStepError(f"{label} violated the side constraints")


class LadderExhaustedError(RuntimeError):
    """Every rung of the fallback ladder failed for one step."""


@dataclass(frozen=True)
class Rung:
    """One substitute oracle in the ladder.

    Attributes
    ----------
    oracle:
        ``"milp"`` (the paper's MILP (33-40), solved by ``backend``) or
        ``"dp"`` (the grid-restricted dynamic program — no solver).
    backend:
        For MILP rungs: a backend name (``"highs"`` / ``"bnb"``) or a
        callable accepted by :func:`repro.solvers.milp_backend.solve_milp`
        (e.g. a fault-injecting wrapper).  ``None`` for the DP rung.
    """

    oracle: str
    backend: object | None = None

    def __post_init__(self) -> None:
        if self.oracle not in ("milp", "dp"):
            raise ValueError(f"rung oracle must be 'milp' or 'dp', got {self.oracle!r}")
        if self.oracle == "milp" and self.backend is None:
            raise ValueError("milp rungs require a backend")
        if self.oracle == "dp" and self.backend is not None:
            raise ValueError("the dp rung takes no backend")

    @property
    def label(self) -> str:
        """Display label, e.g. ``"milp:highs"`` or ``"dp"``."""
        if self.oracle == "dp":
            return "dp"
        return f"milp:{backend_label(self.backend)}"


#: The default ladder: production backend, pure-Python branch and bound,
#: then the solver-free dynamic program.
DEFAULT_RUNGS: tuple[Rung, ...] = (
    Rung("milp", "highs"),
    Rung("milp", "bnb"),
    Rung("dp"),
)


@dataclass(frozen=True)
class ResiliencePolicy:
    """Configuration of the fallback ladder.

    Attributes
    ----------
    rungs:
        Ordered substitutes tried within each binary-search step.
    max_retries:
        Extra attempts per rung before escalating (``1`` means each rung
        gets two tries).
    step_timeout:
        Soft per-attempt wall-clock budget in seconds; an attempt that
        takes longer is discarded (outcome ``"timeout"``) and the ladder
        escalates.  ``None`` disables the budget.
    sticky:
        If true, a rung that failed (or timed out) is skipped for all
        later steps — the ladder never climbs back up.  If false
        (default), every step starts again from the first rung, so
        transient hiccups do not permanently degrade solution quality.
    validate_steps:
        If true (default), each accepted MILP solution is sanity-checked
        (finite objective, coverage inside the box, budget respected)
        before its verdict is trusted; corrupted solutions count as rung
        failures.  The checks live with the oracle closures in
        :mod:`repro.core.cubis`.
    """

    rungs: tuple[Rung, ...] = DEFAULT_RUNGS
    max_retries: int = 1
    step_timeout: float | None = None
    sticky: bool = False
    validate_steps: bool = True

    def __post_init__(self) -> None:
        rungs = tuple(self.rungs)
        if not rungs:
            raise ValueError("a resilience policy needs at least one rung")
        object.__setattr__(self, "rungs", rungs)
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.step_timeout is not None and self.step_timeout <= 0:
            raise ValueError(
                f"step_timeout must be > 0 or None, got {self.step_timeout}"
            )

    def milp_only(self) -> "ResiliencePolicy":
        """The same policy restricted to its MILP rungs (used by PASAQ,
        which has no DP formulation)."""
        milp_rungs = tuple(r for r in self.rungs if r.oracle == "milp")
        if not milp_rungs:
            raise ValueError("policy has no milp rungs to fall back on")
        return ResiliencePolicy(
            rungs=milp_rungs,
            max_retries=self.max_retries,
            step_timeout=self.step_timeout,
            sticky=self.sticky,
            validate_steps=self.validate_steps,
        )


@dataclass(frozen=True)
class ResilienceReport:
    """What the ladder did during one solve.

    Attributes
    ----------
    degraded:
        True iff any step was answered by a rung other than the first.
    rung_labels:
        Labels of the policy's rungs, in ladder order.
    rung_counts:
        Accepted steps per rung (aligned with ``rung_labels``).
    failed_attempts:
        Total attempts that ended in ``"error"`` or ``"timeout"``.
    events:
        The full per-attempt event stream.
    """

    degraded: bool
    rung_labels: tuple[str, ...]
    rung_counts: tuple[int, ...]
    failed_attempts: int
    events: tuple[StepEvent, ...] = field(repr=False)

    @property
    def rungs_used(self) -> tuple[str, ...]:
        """Labels of rungs that answered at least one step."""
        return tuple(
            label for label, n in zip(self.rung_labels, self.rung_counts) if n > 0
        )


class OracleLadder:
    """Executes binary-search steps under a :class:`ResiliencePolicy`.

    Parameters
    ----------
    policy:
        The ladder configuration.
    oracles:
        One callable ``c -> (feasible, payload)`` per policy rung, in the
        same order.  Oracles signal failure by raising
        :class:`OracleStepError` (or any ``RuntimeError`` /
        ``FloatingPointError``); verdicts are returned normally.
    log:
        Optional shared :class:`~repro.resilience.events.SolveEventLog`;
        one is created if omitted.

    The instance is itself the step oracle: pass it to
    :func:`repro.solvers.binary_search.binary_search_max`.
    """

    def __init__(
        self,
        policy: ResiliencePolicy,
        oracles: tuple[Callable[[float], tuple[bool, Any]], ...],
        log: SolveEventLog | None = None,
    ) -> None:
        if len(oracles) != len(policy.rungs):
            raise ValueError(
                f"need one oracle per rung, got {len(oracles)} oracles for "
                f"{len(policy.rungs)} rungs"
            )
        self.policy = policy
        self.log = log if log is not None else SolveEventLog()
        self._oracles = tuple(oracles)
        self._step = 0
        self._start_rung = 0
        self._counts = [0] * len(policy.rungs)
        self._failed = 0

    def __call__(self, c: float) -> tuple[bool, Any]:
        """Run one binary-search step at candidate utility ``c``."""
        self._step += 1
        policy = self.policy
        errors: list[str] = []
        for rung_index in range(self._start_rung, len(policy.rungs)):
            rung = policy.rungs[rung_index]
            backend = rung.backend if isinstance(rung.backend, str) else (
                None if rung.backend is None else rung.label.split(":", 1)[1]
            )
            for attempt in range(1, policy.max_retries + 2):
                start = time.perf_counter()
                try:
                    feasible, payload = self._oracles[rung_index](c)
                except (OracleStepError, RuntimeError, FloatingPointError) as exc:
                    elapsed = time.perf_counter() - start
                    self._failed += 1
                    errors.append(f"{rung.label} attempt {attempt}: {exc}")
                    self.log.record(StepEvent(
                        self._step, c, rung_index, rung.oracle, backend,
                        attempt, "error", None, elapsed, str(exc),
                    ))
                    continue
                elapsed = time.perf_counter() - start
                if policy.step_timeout is not None and elapsed > policy.step_timeout:
                    self._failed += 1
                    msg = (
                        f"soft timeout: {elapsed:.3f}s > "
                        f"{policy.step_timeout:.3f}s budget"
                    )
                    errors.append(f"{rung.label} attempt {attempt}: {msg}")
                    self.log.record(StepEvent(
                        self._step, c, rung_index, rung.oracle, backend,
                        attempt, "timeout", None, elapsed, msg,
                    ))
                    continue
                self._counts[rung_index] += 1
                self.log.record(StepEvent(
                    self._step, c, rung_index, rung.oracle, backend,
                    attempt, "ok", bool(feasible), elapsed,
                ))
                if policy.sticky:
                    self._start_rung = rung_index
                return bool(feasible), payload
            # Rung exhausted: escalate; remember it when sticky.
            if policy.sticky:
                self._start_rung = rung_index + 1
        raise LadderExhaustedError(
            f"all fallback rungs failed at step {self._step} (c={c:.6g}): "
            + "; ".join(errors)
        )

    @property
    def degraded(self) -> bool:
        """Whether any step was answered below the top rung."""
        return any(n > 0 for n in self._counts[1:])

    def report(self) -> ResilienceReport:
        """Summarise the solve so far."""
        return ResilienceReport(
            degraded=self.degraded,
            rung_labels=tuple(r.label for r in self.policy.rungs),
            rung_counts=tuple(self._counts),
            failed_attempts=self._failed,
            events=self.log.events,
        )
