"""Machine-checkable certificates for CUBIS solutions.

A fault-tolerant pipeline must not merely *return* under failure — it
must return something whose correctness can be established without
trusting the solver that produced it.  :func:`certify_result` re-derives
every claim a :class:`~repro.core.cubis.CubisResult` makes from the game
and uncertainty model alone:

1. **strategy_box** — the coverage vector lies in ``[0, 1]^T``;
2. **budget** — it respects ``sum x <= R`` (and any side constraints
   ``A x <= b``);
3. **bracket** — ``lower_bound <= upper_bound``, and the gap is within
   ``epsilon`` whenever the solve reports convergence;
4. **value_in_bracket** — the *independently recomputed* exact
   worst-case value of the strategy sits inside ``[lb - slack,
   ub + slack]`` where ``slack`` is the Theorem 1 envelope
   ``epsilon + span / K`` (``span`` = the game's utility range);
5. **reported_value** — the result's ``worst_case_value`` equals that
   recomputation;
6. **adversary_consistent** — the stored worst-case response is a valid
   attack distribution with attractiveness inside the intervals;
7. **oracle_feasibility** — feasibility at ``lower_bound - slack`` is
   re-proved by the solver-free DP oracle (:mod:`repro.core.dp`), i.e.
   the binary search's lower bound is not a solver artefact.

Every check is cheap (``O(T K)`` at worst, no MILP solves), so
certification can run on every production solve.  The checker only
reads public result attributes, so hand-built or corrupted results can
be certified (and rejected) too — the test suite does exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.dp import grid_budget_units, maximize_separable_on_grid
from repro.core.worst_case import evaluate_worst_case
from repro.solvers.piecewise import SegmentGrid

__all__ = ["CertificateCheck", "SolutionCertificate", "certify_result", "theorem_slack"]


@dataclass(frozen=True)
class CertificateCheck:
    """One verified claim: a name, a verdict, and a human-readable detail."""

    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class SolutionCertificate:
    """The outcome of certifying one solve.

    ``slack`` is the Theorem 1 envelope used by the value checks;
    ``valid`` is the conjunction of all checks.
    """

    checks: tuple[CertificateCheck, ...]
    slack: float

    @property
    def valid(self) -> bool:
        """Whether every check passed."""
        return all(check.passed for check in self.checks)

    def failures(self) -> tuple[str, ...]:
        """Names of the checks that failed."""
        return tuple(check.name for check in self.checks if not check.passed)

    def summary(self) -> str:
        """Multi-line ``PASS``/``FAIL`` report (used by ``repro solve``)."""
        lines = [
            f"certificate: {'VALID' if self.valid else 'INVALID'} "
            f"(slack {self.slack:.4g})"
        ]
        for check in self.checks:
            verdict = "PASS" if check.passed else "FAIL"
            lines.append(f"  [{verdict}] {check.name}: {check.detail}")
        return "\n".join(lines)


def theorem_slack(game, epsilon: float, num_segments: int) -> float:
    """The Theorem 1 accuracy envelope ``epsilon + span / K``.

    ``span`` (the width of the game's utility range) is the natural
    Lipschitz normalisation of the ``O(1/K)`` piecewise-linearisation
    term: all payoff-dependent constants are bounded by it.
    """
    lo, hi = game.utility_range()
    return float(epsilon) + (hi - lo) / float(num_segments)


def certify_result(
    game,
    uncertainty,
    result,
    *,
    coverage_constraints=None,
    execution_alpha: float = 0.0,
    atol: float = 1e-6,
    slack: float | None = None,
) -> SolutionCertificate:
    """Validate a :class:`~repro.core.cubis.CubisResult` independently of
    the solver that produced it.

    Parameters
    ----------
    game, uncertainty:
        The instance the result claims to solve.
    result:
        Any object with the ``CubisResult`` attributes (``strategy``,
        ``worst_case_value``, ``worst_case``, ``lower_bound``,
        ``upper_bound``, ``epsilon``, ``num_segments``; an optional
        ``converged`` flag is honoured).
    coverage_constraints, execution_alpha:
        Must match what the solve was given — the certificate checks the
        strategy against the same feasible set and evaluates the same
        execution-adjusted worst case.
    atol:
        Numerical tolerance for the exact (non-envelope) comparisons.
    slack:
        Override the Theorem 1 envelope; defaults to
        :func:`theorem_slack`.
    """
    x = np.asarray(result.strategy, dtype=np.float64)
    lb = float(result.lower_bound)
    ub = float(result.upper_bound)
    epsilon = float(result.epsilon)
    num_segments = int(result.num_segments)
    converged = bool(getattr(result, "converged", True))
    if slack is None:
        slack = theorem_slack(game, epsilon, num_segments)
    slack = float(slack)
    checks: list[CertificateCheck] = []

    # 1. Box membership.
    in_box = bool(x.ndim == 1 and len(x) == game.num_targets
                  and np.all(x >= -atol) and np.all(x <= 1.0 + atol))
    checks.append(CertificateCheck(
        "strategy_box", in_box,
        f"coverage in [0, 1]^{game.num_targets}: "
        f"min {x.min():.4g}, max {x.max():.4g}" if x.ndim == 1 and x.size
        else "strategy has the wrong shape",
    ))

    # 2. Budget and side constraints.
    spent = float(x.sum())
    within_budget = spent <= game.num_resources + atol
    detail = f"sum x = {spent:.6g} vs R = {game.num_resources:.6g}"
    if coverage_constraints is not None:
        sides_ok = coverage_constraints.satisfied(x, atol=atol)
        within_budget = within_budget and sides_ok
        detail += f"; side constraints {'ok' if sides_ok else 'VIOLATED'}"
    checks.append(CertificateCheck("budget", within_budget, detail))

    # 3. Bracket ordering and gap accounting.
    bracket_ok = np.isfinite(lb) and np.isfinite(ub) and lb <= ub + atol
    gap = ub - lb
    gap_detail = f"[{lb:.6g}, {ub:.6g}], gap {gap:.4g}"
    if converged:
        bracket_ok = bracket_ok and gap <= epsilon + atol
        gap_detail += f" (tolerance {epsilon:.4g})"
    else:
        gap_detail += " (solve flagged non-converged)"
    checks.append(CertificateCheck("bracket", bracket_ok, gap_detail))

    # 4-5. Recompute the exact worst case and compare.
    exact = evaluate_worst_case(
        game, uncertainty, x, execution_alpha=execution_alpha
    )
    in_envelope = bool(
        np.isfinite(lb)
        and lb - slack - atol <= exact.value <= ub + slack + atol
    )
    checks.append(CertificateCheck(
        "value_in_bracket", in_envelope,
        f"exact worst case {exact.value:.6g} vs envelope "
        f"[{lb - slack:.6g}, {ub + slack:.6g}]",
    ))
    value_scale = max(1.0, abs(exact.value))
    reported_ok = abs(float(result.worst_case_value) - exact.value) <= atol * value_scale
    checks.append(CertificateCheck(
        "reported_value", reported_ok,
        f"reported {float(result.worst_case_value):.6g} vs recomputed "
        f"{exact.value:.6g}",
    ))

    # 6. The stored adversarial response is internally consistent.
    checks.append(_check_adversary(game, uncertainty, result, x,
                                   execution_alpha, atol))

    # 7. Solver-free feasibility replay at the (slack-relaxed) lower bound.
    checks.append(_check_dp_feasibility(
        game, uncertainty, lb, slack, num_segments, execution_alpha, atol
    ))

    return SolutionCertificate(checks=tuple(checks), slack=slack)


def _check_adversary(game, uncertainty, result, x, execution_alpha, atol):
    worst = getattr(result, "worst_case", None)
    if worst is None:
        return CertificateCheck(
            "adversary_consistent", False, "result carries no worst-case response"
        )
    y = np.asarray(worst.attack_distribution, dtype=np.float64)
    f = np.asarray(worst.attractiveness, dtype=np.float64)
    realised = np.maximum(x - execution_alpha, 0.0) if execution_alpha > 0 else x
    lo_b = uncertainty.lower(realised)
    up_b = uncertainty.upper(realised)
    tol = atol * np.maximum(1.0, np.abs(up_b))
    in_intervals = bool(np.all(f >= lo_b - tol) and np.all(f <= up_b + tol))
    is_distribution = (
        y.shape == f.shape == x.shape
        and bool(np.all(y >= -atol))
        and abs(float(y.sum()) - 1.0) <= atol * len(y)
        and np.allclose(y, f / f.sum(), atol=atol)
    )
    return CertificateCheck(
        "adversary_consistent", in_intervals and is_distribution,
        f"attack distribution sums to {float(y.sum()):.6g}; attractiveness "
        f"{'inside' if in_intervals else 'OUTSIDE'} the intervals",
    )


def _check_dp_feasibility(
    game, uncertainty, lb, slack, num_segments, execution_alpha, atol
):
    if not np.isfinite(lb):
        return CertificateCheck(
            "oracle_feasibility", False, f"lower bound {lb} is not finite"
        )
    # Tabulate the same grids the solver uses (including the conditioning
    # rescale — the feasibility sign test is scale-invariant).
    grid = SegmentGrid(num_segments)
    realised = np.maximum(grid.breakpoints - execution_alpha, 0.0)
    ud_grid = (
        np.outer(game.payoffs.defender_reward, realised)
        + np.outer(game.payoffs.defender_penalty, 1.0 - realised)
    )
    lower_grid = uncertainty.lower_on_grid(realised)
    upper_grid = uncertainty.upper_on_grid(realised)
    scale = 1.0 / upper_grid.max()
    lower_grid = lower_grid * scale
    upper_grid = upper_grid * scale
    c_test = lb - slack
    margin = ud_grid - c_test
    phi = np.minimum(lower_grid * margin, upper_grid * margin)
    budget_units = grid_budget_units(game.num_resources, num_segments)
    value = maximize_separable_on_grid(phi, budget_units).value
    return CertificateCheck(
        "oracle_feasibility", value >= -atol,
        f"dp replay at lb - slack = {c_test:.6g}: max G = {value:.4g}",
    )
