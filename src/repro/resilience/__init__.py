"""Fault tolerance for the solve pipeline.

Three pieces, composable but independent:

* :mod:`repro.resilience.policy` — the **fallback ladder**: each
  binary-search step tries ``highs``, then the pure-Python ``bnb``
  branch and bound, then the solver-free ``dp`` oracle, with bounded
  retries and soft per-step timeouts (:class:`ResiliencePolicy`,
  executed by :class:`OracleLadder`).
* :mod:`repro.resilience.faults` — a **deterministic fault injector**
  (:class:`FaultInjector`) that wraps any MILP backend with seeded
  failures, so the ladder is testable end to end.
* :mod:`repro.resilience.certificate` — **solution certificates**
  (:func:`certify_result`): machine-checkable validation of a
  ``CubisResult`` independent of the solver that produced it.

Structured per-attempt diagnostics live in
:mod:`repro.resilience.events` (stdlib ``logging`` under the
``repro.resilience`` logger).  See ``docs/RESILIENCE.md`` for the full
semantics.
"""

from repro.resilience.events import SolveEventLog, StepEvent, logger
from repro.resilience.policy import (
    DEFAULT_RUNGS,
    LadderExhaustedError,
    OracleLadder,
    OracleStepError,
    ResiliencePolicy,
    ResilienceReport,
    Rung,
)
from repro.resilience.faults import (
    FAULT_MODES,
    FaultInjector,
    injected_policy,
)
from repro.resilience.certificate import (
    CertificateCheck,
    SolutionCertificate,
    certify_result,
    theorem_slack,
)

__all__ = [
    "CertificateCheck",
    "DEFAULT_RUNGS",
    "FAULT_MODES",
    "FaultInjector",
    "LadderExhaustedError",
    "OracleLadder",
    "OracleStepError",
    "ResiliencePolicy",
    "ResilienceReport",
    "Rung",
    "SolutionCertificate",
    "SolveEventLog",
    "StepEvent",
    "certify_result",
    "injected_policy",
    "logger",
    "theorem_slack",
]
