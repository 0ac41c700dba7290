"""Deterministic fault injection for MILP backends.

The fallback ladder is only trustworthy if it is exercised — a recovery
path that never runs is a recovery path that does not work.  A
:class:`FaultInjector` wraps any MILP backend (a name like ``"highs"``
or another callable) into a callable backend accepted by
:func:`repro.solvers.milp_backend.solve_milp` that injects *seeded,
reproducible* failures at a configurable rate:

``error``
    The solve "crashes": an ``"error"``-status :class:`MILPResult`.
``infeasible``
    The solver lies about feasibility (CUBIS's per-step MILP is always
    feasible, so this reads as a solver failure downstream).
``nan``
    The solve "succeeds" but reports a NaN objective — the classic
    silent numerical failure; caught by the per-step sanity validation.
``perturb``
    The solution vector is corrupted with additive noise, violating
    variable bounds and the resource budget; also caught by validation.
``slow``
    The solve completes correctly but only after an injected delay —
    exercises the policy's soft ``step_timeout``.

Faults are drawn from a private :class:`numpy.random.Generator`, so a
given ``(seed, call sequence)`` always produces the same fault schedule:
a flaky production scenario becomes a reproducible test case.
"""

from __future__ import annotations

import time

import numpy as np

from repro.resilience.policy import ResiliencePolicy, Rung
from repro.solvers.milp_backend import MILPProblem, MILPResult, solve_milp

__all__ = [
    "FaultInjector",
    "FAULT_MODES",
    "injected_policy",
]

#: All supported fault modes, in the order the injector samples them.
FAULT_MODES = ("error", "infeasible", "nan", "perturb", "slow")


class FaultInjector:
    """Seeded fault schedule shared by any number of wrapped backends.

    Parameters
    ----------
    failure_rate:
        Probability in ``[0, 1]`` that any given solve is faulted.
    modes:
        Subset of :data:`FAULT_MODES` to draw from (uniformly).
    seed:
        Seed for the private generator — the whole schedule is a pure
        function of the seed and the call order.
    slow_seconds:
        Injected delay for ``"slow"`` faults.
    perturb_scale:
        Magnitude of the additive corruption for ``"perturb"`` faults
        (large enough by default to violate the unit box).

    Attributes
    ----------
    calls, faults:
        Running totals across all wrapped backends.
    history:
        The injected mode per call (``None`` for clean calls).
    """

    def __init__(
        self,
        failure_rate: float = 0.5,
        *,
        modes: tuple[str, ...] = FAULT_MODES,
        seed: int | None = 0,
        slow_seconds: float = 0.05,
        perturb_scale: float = 0.5,
    ) -> None:
        if not 0.0 <= failure_rate <= 1.0:
            raise ValueError(f"failure_rate must be in [0, 1], got {failure_rate}")
        if not modes:
            raise ValueError("at least one fault mode is required")
        unknown = set(modes) - set(FAULT_MODES)
        if unknown:
            raise ValueError(
                f"unknown fault modes {sorted(unknown)}; choose from {FAULT_MODES}"
            )
        self.failure_rate = float(failure_rate)
        self.modes = tuple(modes)
        self.slow_seconds = float(slow_seconds)
        self.perturb_scale = float(perturb_scale)
        self._rng = np.random.default_rng(seed)
        self.calls = 0
        self.faults = 0
        self.history: list[str | None] = []

    def _draw(self) -> str | None:
        """Advance the schedule by one call; return the mode or ``None``."""
        self.calls += 1
        # Always consume the same number of variates per call so the
        # schedule depends only on the call ordinal, not on past draws.
        u = self._rng.random()
        mode_index = int(self._rng.integers(len(self.modes)))
        if u >= self.failure_rate:
            self.history.append(None)
            return None
        mode = self.modes[mode_index]
        self.faults += 1
        self.history.append(mode)
        return mode

    def wrap(self, backend: object = "highs"):
        """A callable backend injecting this schedule's faults around
        ``backend`` (usable anywhere ``solve_milp`` accepts a backend)."""
        injector = self

        def faulty_backend(problem: MILPProblem, **options) -> MILPResult:
            mode = injector._draw()
            if mode == "error":
                return MILPResult(
                    "error", None, None, message="injected solver error"
                )
            if mode == "infeasible":
                return MILPResult(
                    "infeasible", None, None, message="injected infeasible status"
                )
            if mode == "slow":
                time.sleep(injector.slow_seconds)
            result = solve_milp(problem, backend=backend, **options)
            if mode == "nan" and result.optimal:
                return MILPResult(
                    "optimal", result.x, float("nan"),
                    nodes=result.nodes, message="injected NaN objective",
                )
            if mode == "perturb" and result.optimal:
                noise = injector._rng.uniform(
                    injector.perturb_scale / 2, injector.perturb_scale,
                    size=result.x.shape,
                )
                return MILPResult(
                    "optimal", result.x + noise, result.objective,
                    nodes=result.nodes, message="injected solution perturbation",
                )
            return result

        name = backend if isinstance(backend, str) else getattr(
            backend, "__name__", type(backend).__name__
        )
        faulty_backend.__name__ = f"faulty-{name}"
        return faulty_backend


def injected_policy(
    injector: FaultInjector,
    base: ResiliencePolicy | None = None,
) -> ResiliencePolicy:
    """A copy of ``base`` (default: the standard ladder) with every MILP
    rung's backend wrapped by ``injector``.

    The DP rung, if present, is left clean — it is the ladder's
    designated survivor, so a fully-injected policy still terminates.
    """
    if base is None:
        base = ResiliencePolicy()
    rungs = tuple(
        Rung("milp", injector.wrap(r.backend)) if r.oracle == "milp" else r
        for r in base.rungs
    )
    return ResiliencePolicy(
        rungs=rungs,
        max_retries=base.max_retries,
        step_timeout=base.step_timeout,
        sticky=base.sticky,
        validate_steps=base.validate_steps,
    )
