"""Generic binary search over a monotone feasibility oracle.

CUBIS (Section IV-B) and the PASAQ baseline both search the defender's
utility axis for the largest value ``c`` whose feasibility problem admits a
solution; Proposition 1 guarantees monotonicity (infeasible at ``c0``
implies infeasible for all ``c >= c0``), which is exactly the contract of
:func:`binary_search_max`.

Two warm-start hooks cut oracle calls on repeated, related searches:

* ``initial_guesses`` — candidate values probed before bisection.  A
  feasible guess raises the lower bound, an infeasible one lowers the
  upper bound, so a bracket carried over from a neighbouring problem
  (same game at a coarser grid, the previous game of a sweep) shrinks
  the interval in one or two probes instead of ``log2(range/tol)`` steps.
  Guesses are *probed*, never trusted: a stale bracket costs at most two
  extra oracle calls and can never corrupt the result.
* ``payload_bound`` — maps a feasible payload to a value proven feasible
  by that payload (for CUBIS: the exact utility level the returned
  strategy certifies).  When it exceeds the probed candidate, the lower
  bound jumps there directly, skipping the midpoints in between.

A guess may also be a carried bracket ``(lower, upper)``.  When both of
its ends lie at or below the lower bound once the bracket is done (they
already did, or the upper end proved feasible), the answer moved up
past the bracket, most likely by a little.  With a ``payload_bound``
(so the lower bound is a certified level, not just a probed value) the
search then gallops up from the lower bound instead of halving down
from ``hi``: it probes ``lo + tolerance * 4**k``, never past the
midpoint, until a probe is infeasible, then bisects the bracket that
probe closed.

Every oracle call is traced as a ``binary_search.step`` span carrying
the candidate ``c``, the verdict and the search ``phase`` that chose it
(``endpoint``, ``guess``, ``gallop`` or ``bisect``; see
docs/OBSERVABILITY.md).  With no active telemetry context the spans are
no-ops.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro import telemetry
from repro.utils.validation import check_positive

__all__ = ["BinarySearchResult", "binary_search_max"]

#: A gallop's probe offsets grow by this factor: ``tolerance * 4**k``.
_GALLOP_GROWTH = 4.0


@dataclass(frozen=True)
class BinarySearchResult:
    """Outcome of a feasibility binary search.

    Attributes
    ----------
    lower:
        Final lower bound ``lb`` — the largest value proven feasible
        (``-inf`` when the lower endpoint ``lo`` probed infeasible).
    upper:
        Final upper bound ``ub`` — the smallest value proven infeasible
        (or the initial ``hi`` if even that was feasible).
    payload:
        Whatever the oracle returned alongside its last *feasible* verdict
        (for CUBIS: the MILP strategy).  ``None`` if nothing was feasible.
    iterations:
        Number of oracle calls.
    trace:
        List of ``(c, feasible)`` pairs in evaluation order.
    converged:
        True iff the final gap is within the requested tolerance.  False
        when ``max_iterations`` was exhausted first (a warning is emitted)
        or when the lower endpoint probed infeasible.
    guess_probes:
        ``initial_guesses`` values actually probed (guesses outside the
        open bracket are skipped and not counted; a carried bracket
        counts each end it probes).  Lets warm-start
        callers — notably the drift re-solve engine
        (:mod:`repro.solvers.resolve`) — report what a carried bracket
        cost to re-validate.
    """

    lower: float
    upper: float
    payload: Any
    iterations: int
    trace: tuple
    converged: bool = True
    guess_probes: int = 0

    @property
    def gap(self) -> float:
        """``upper - lower`` — ``<= tolerance`` iff ``converged``."""
        return self.upper - self.lower


def binary_search_max(
    oracle: Callable[[float], tuple[bool, Any]],
    lo: float,
    hi: float,
    *,
    tolerance: float = 1e-3,
    max_iterations: int = 200,
    initial_guesses: Sequence[float | tuple[float, float]] = (),
    payload_bound: Callable[[Any], float] | None = None,
) -> BinarySearchResult:
    """Find the largest ``c`` in ``[lo, hi]`` for which ``oracle(c)`` is
    feasible, assuming downward-closed feasibility.

    Parameters
    ----------
    oracle:
        Maps a candidate value to ``(feasible, payload)``.  Feasibility
        must be monotone: feasible at ``c`` implies feasible below ``c``.
    lo, hi:
        Search interval.  Both ends are probed first: ``hi`` (the search
        returns at once when the whole interval is feasible), then
        ``lo``, which is expected to be feasible (CUBIS: the bottom of
        the utility range always is, see DESIGN.md §5).  If it is not,
        the result reports ``lower = -inf``, ``payload = None`` and
        ``converged = False``.
    tolerance:
        Terminate once ``hi - lo <= tolerance`` (the paper's ``epsilon``).
    max_iterations:
        Hard cap on oracle calls.  The two endpoint probes count toward
        it but always run.
    initial_guesses:
        Warm-start candidates probed (in order) before bisection begins.
        Guesses outside the current open bracket are skipped; each probe
        is a normal oracle call recorded in the trace.  An entry may be a
        carried bracket ``(lower, upper)``, a tuple whose ends are probed
        upper first.  If both ends lie at or below the lower bound once
        they are done (skipped as already passed, or the upper end probed
        feasible) and ``payload_bound`` is given, then once the guesses
        are done the search gallops up from the lower bound: it probes
        ``lo + tolerance * 4**k`` (``k = 0, 1, ...``, each from the lower
        bound as lifted so far) until a probe is infeasible or the next
        one would reach the midpoint of ``[lo, hi]``, and bisects from
        there.  A bracket whose upper end proves infeasible is an
        ordinary pair of guesses.
    payload_bound:
        Optional ``payload -> proven-feasible value``.  After every
        feasible verdict, the lower bound is raised to
        ``min(payload_bound(payload), upper)`` when that beats the probed
        candidate.  The callable must only return values its payload
        genuinely certifies — the bound is trusted without a further
        oracle call.
    """
    if hi < lo:
        raise ValueError(f"binary search requires lo <= hi, got [{lo}, {hi}]")
    check_positive(tolerance, "tolerance")
    trace: list[tuple[float, bool]] = []
    payload = None
    iterations = 0

    def probe(candidate: float, phase: str) -> tuple[bool, Any]:
        # One traced oracle call: the span carries the candidate, the
        # phase that chose it and, on a clean return, the verdict (an
        # oracle exception propagates and marks the span status "error").
        with telemetry.span(
            "binary_search.step", c=float(candidate), phase=phase
        ) as sp:
            feasible, probe_payload = oracle(candidate)
            sp.set(feasible=bool(feasible))
        return feasible, probe_payload

    def raise_lower(candidate: float, feasible_payload: Any) -> float:
        # A feasible verdict at `candidate`; optionally jump further using
        # the payload's own certificate (never past the proven-infeasible
        # upper bound).
        if payload_bound is None:
            return candidate
        bound = payload_bound(feasible_payload)
        if bound > candidate:
            return min(float(bound), hi)
        return candidate

    feasible_hi, payload_hi = probe(hi, "endpoint")
    trace.append((hi, feasible_hi))
    iterations += 1
    if feasible_hi:
        return BinarySearchResult(hi, hi, payload_hi, iterations, tuple(trace), True)
    feasible_lo, payload_lo = probe(lo, "endpoint")
    trace.append((lo, feasible_lo))
    iterations += 1
    if not feasible_lo:
        return BinarySearchResult(
            -float("inf"), lo, None, iterations, tuple(trace), False
        )
    # From here on the lower bound is always a proven-feasible value.
    payload = payload_lo
    lo = raise_lower(lo, payload_lo)

    guess_probes = 0
    gallop = False
    for entry in initial_guesses:
        if iterations >= max_iterations or hi - lo <= tolerance:
            break
        pair = isinstance(entry, tuple)
        ends = (float(entry[1]), float(entry[0])) if pair else (float(entry),)
        for guess in ends:
            if iterations >= max_iterations or hi - lo <= tolerance:
                break
            if not (lo < guess < hi):
                continue
            feasible, guess_payload = probe(guess, "guess")
            trace.append((guess, feasible))
            iterations += 1
            guess_probes += 1
            if feasible:
                payload = guess_payload
                lo = raise_lower(guess, guess_payload)
            else:
                hi = guess
        if pair and payload_bound is not None and all(end <= lo for end in ends):
            gallop = True

    offset = tolerance
    while gallop and hi - lo > tolerance and iterations < max_iterations:
        candidate = lo + offset
        if not lo < candidate < 0.5 * (lo + hi):
            break  # capped at the midpoint: bisection takes over
        feasible, gallop_payload = probe(candidate, "gallop")
        trace.append((candidate, feasible))
        iterations += 1
        if not feasible:
            hi = candidate
            break
        payload = gallop_payload
        lo = raise_lower(candidate, gallop_payload)
        offset *= _GALLOP_GROWTH

    while hi - lo > tolerance and iterations < max_iterations:
        mid = 0.5 * (lo + hi)
        feasible, mid_payload = probe(mid, "bisect")
        trace.append((mid, feasible))
        iterations += 1
        if feasible:
            payload = mid_payload
            lo = raise_lower(mid, mid_payload)
        else:
            hi = mid
    converged = hi - lo <= tolerance
    if not converged:
        warnings.warn(
            f"binary search exhausted max_iterations={max_iterations} with gap "
            f"{hi - lo:.6g} > tolerance {tolerance:.6g}; the returned bracket "
            f"is valid but wider than requested",
            RuntimeWarning,
            stacklevel=2,
        )
    return BinarySearchResult(
        lo, hi, payload, iterations, tuple(trace), converged, guess_probes,
    )
