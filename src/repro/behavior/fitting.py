"""Learning SUQR parameters — and uncertainty intervals — from attack data.

The paper motivates uncertainty intervals by the scarcity of real attack
data: "the interval size indicates the uncertainty level when modeling,
which could be specified based on the available data for learning"
(Section III).  This module closes that loop on synthetic data:

1. :func:`simulate_attacks` generates an attack log from a ground-truth
   SUQR attacker observing a history of defender strategies;
2. :func:`fit_suqr` recovers maximum-likelihood weights from a log;
3. :func:`bootstrap_weight_boxes` turns bootstrap percentile intervals of
   the MLE into :class:`~repro.behavior.interval.WeightBox` objects — the
   data-driven uncertainty intervals CUBIS consumes.

With many observations the boxes shrink toward the truth; with few they
widen — exactly the limited-data story of the introduction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.behavior.interval import FunctionIntervalModel, WeightBox
from repro.behavior.suqr import SUQR, SUQRWeights
from repro.game.payoffs import PayoffMatrix
from repro.utils.rng import as_generator

__all__ = [
    "AttackLog",
    "IntervalEstimate",
    "simulate_attacks",
    "fit_suqr",
    "bootstrap_weight_boxes",
    "estimate_intervals",
]


@dataclass(frozen=True)
class AttackLog:
    """Observed attacks: each row pairs a coverage vector with the target hit.

    ``coverages`` has shape ``(N, T)``; ``targets`` has shape ``(N,)`` with
    integer entries in ``[0, T)``.
    """

    coverages: np.ndarray
    targets: np.ndarray

    def __post_init__(self) -> None:
        cov = np.asarray(self.coverages, dtype=np.float64)
        tgt = np.asarray(self.targets, dtype=np.int64)
        if cov.ndim != 2:
            raise ValueError(f"coverages must be 2-D (N, T), got shape {cov.shape}")
        if tgt.shape != (len(cov),):
            raise ValueError("targets must be a vector matching coverages' first axis")
        if len(cov) == 0:
            raise ValueError("an attack log needs at least one observation")
        if np.any(tgt < 0) or np.any(tgt >= cov.shape[1]):
            raise ValueError("target indices out of range")
        cov.setflags(write=False)
        tgt.setflags(write=False)
        object.__setattr__(self, "coverages", cov)
        object.__setattr__(self, "targets", tgt)

    @property
    def num_observations(self) -> int:
        """Number of logged attacks ``N``."""
        return len(self.targets)

    @property
    def num_targets(self) -> int:
        """Number of targets ``T``."""
        return self.coverages.shape[1]

    def resample(self, seed=None) -> "AttackLog":
        """A bootstrap resample (with replacement) of the log."""
        rng = as_generator(seed)
        idx = rng.integers(0, self.num_observations, size=self.num_observations)
        return AttackLog(self.coverages[idx], self.targets[idx])


def simulate_attacks(
    model: SUQR,
    strategies,
    attacks_per_strategy: int = 1,
    seed=None,
) -> AttackLog:
    """Draw attacks from a ground-truth SUQR model.

    Parameters
    ----------
    model:
        The true attacker.
    strategies:
        Array of shape ``(S, T)``: the defender strategies in force over the
        observation period (e.g. past patrol schedules).
    attacks_per_strategy:
        Attacks observed under each strategy.
    """
    rng = as_generator(seed)
    strategies = np.asarray(strategies, dtype=np.float64)
    if strategies.ndim != 2:
        raise ValueError(f"strategies must be 2-D (S, T), got shape {strategies.shape}")
    if attacks_per_strategy < 1:
        raise ValueError(f"attacks_per_strategy must be >= 1, got {attacks_per_strategy}")
    coverages = []
    targets = []
    for x in strategies:
        q = model.choice_probabilities(x)
        hits = rng.choice(model.num_targets, size=attacks_per_strategy, p=q)
        coverages.append(np.repeat(x[None, :], attacks_per_strategy, axis=0))
        targets.append(hits)
    return AttackLog(np.concatenate(coverages), np.concatenate(targets))


def _negative_log_likelihood(w: np.ndarray, payoffs: PayoffMatrix, log: AttackLog) -> float:
    """Vectorised SUQR negative log-likelihood at weights ``w = (w1,w2,w3)``."""
    w1, w2, w3 = w
    # Subjective utilities for every (observation, target) pair: (N, T).
    const = w2 * payoffs.attacker_reward + w3 * payoffs.attacker_penalty
    su = w1 * log.coverages + const[None, :]
    # log q = su - logsumexp(su) per observation row.
    m = su.max(axis=1, keepdims=True)
    logz = m[:, 0] + np.log(np.exp(su - m).sum(axis=1))
    picked = su[np.arange(log.num_observations), log.targets]
    return float(np.sum(logz - picked))


def fit_suqr(
    payoffs: PayoffMatrix,
    log: AttackLog,
    *,
    initial=( -2.0, 0.5, 0.5),
    bounds=((-20.0, 0.0), (0.0, 5.0), (0.0, 5.0)),
) -> SUQRWeights:
    """Maximum-likelihood SUQR weights from an attack log.

    The SUQR log-likelihood is the conditional-logit likelihood, which is
    concave in the weights, so a single L-BFGS-B solve from any interior
    start finds the global optimum.
    """
    if log.num_targets != payoffs.num_targets:
        raise ValueError(
            f"log has {log.num_targets} targets but payoffs have {payoffs.num_targets}"
        )
    from scipy.optimize import minimize

    result = minimize(
        _negative_log_likelihood,
        x0=np.asarray(initial, dtype=np.float64),
        args=(payoffs, log),
        method="L-BFGS-B",
        bounds=bounds,
    )
    w1, w2, w3 = result.x
    return SUQRWeights(min(w1, 0.0), w2, w3)


def bootstrap_weight_boxes(
    payoffs: PayoffMatrix,
    log: AttackLog,
    *,
    num_bootstrap: int = 100,
    confidence: float = 0.9,
    seed=None,
) -> tuple[WeightBox, WeightBox, WeightBox]:
    """Percentile-bootstrap uncertainty intervals for the SUQR weights.

    Refits the MLE on ``num_bootstrap`` resamples of the log and returns the
    central ``confidence`` percentile interval per weight as a
    :class:`WeightBox` (with ``w1`` clipped to ``<= 0`` to preserve the
    monotonicity of ``F``).  Fewer observations → wider boxes, which is the
    paper's "interval size from available data".
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    if num_bootstrap < 2:
        raise ValueError(f"num_bootstrap must be >= 2, got {num_bootstrap}")
    rng = as_generator(seed)
    samples = np.empty((num_bootstrap, 3))
    for b in range(num_bootstrap):
        w = fit_suqr(payoffs, log.resample(rng))
        samples[b] = w.as_array()
    alpha = 0.5 * (1.0 - confidence)
    lo = np.quantile(samples, alpha, axis=0)
    hi = np.quantile(samples, 1.0 - alpha, axis=0)
    return (
        WeightBox(min(lo[0], 0.0), min(hi[0], 0.0)),
        WeightBox(lo[1], hi[1]),
        WeightBox(lo[2], hi[2]),
    )


@dataclass(frozen=True)
class IntervalEstimate:
    """A PAC interval estimate of attacker attractiveness curves.

    Produced by :func:`estimate_intervals`.  ``model`` is the
    :class:`~repro.behavior.interval.FunctionIntervalModel` CUBIS consumes;
    the remaining fields expose the estimator's internals so callers (and
    tests) can reason about the guarantee.

    Attributes
    ----------
    model:
        The interval uncertainty model ``[L_i(x), U_i(x)]``.
    probabilities:
        Laplace-smoothed empirical choice frequencies ``p_hat`` of shape
        ``(T,)``.
    radius:
        The Hoeffding half-width ``r = sqrt(ln(2T / delta) / (2N))``.
    centres:
        Per-target mean observed coverage ``x_bar`` of shape ``(T,)`` — the
        point at which the band is anchored to ``p_hat +/- r``.
    delta:
        The failure probability of the simultaneous guarantee.
    num_observations:
        ``N``, the log size the radius was computed from.
    slope:
        The shared (non-positive) exponential decay rate of both bounds.
    """

    model: FunctionIntervalModel
    probabilities: np.ndarray
    radius: float
    centres: np.ndarray
    delta: float
    num_observations: int
    slope: float


def estimate_intervals(
    attacks: AttackLog,
    delta: float = 0.05,
    *,
    slope: float = -1.0,
    floor: float = 1e-4,
) -> IntervalEstimate:
    """PAC uncertainty intervals for attacker attractiveness from a log.

    This is the quantitative version of the paper's "interval size from
    available data": with probability at least ``1 - delta`` the empirical
    choice frequency of every target is within the Hoeffding radius
    ``r = sqrt(ln(2T / delta) / (2N))`` of its true choice probability
    (two-sided Hoeffding per target, union bound over the ``T`` targets).
    The estimator turns that simultaneous band into attractiveness curves

    .. code-block:: text

        L_i(x) = max(p_hat_i - r, floor) * exp(slope * (x - x_bar_i))
        U_i(x) =     (p_hat_i + r)       * exp(slope * (x - x_bar_i))

    anchored at each target's mean observed coverage ``x_bar_i`` and decaying
    at a shared rate ``slope <= 0`` (SUQR's coverage response is exponential
    with rate ``w1``; pass the MLE ``fit_suqr(...).w1`` for a data-driven
    rate).  Both bounds are positive and non-increasing in coverage, so the
    result is a valid CUBIS uncertainty model, and the band ratio
    ``U_i / L_i`` shrinks like ``1 / sqrt(N)`` — feeding the online
    intervals-shrink loop in :mod:`repro.solvers.resolve`.

    Parameters
    ----------
    attacks:
        The observed :class:`AttackLog`.
    delta:
        Failure probability of the simultaneous coverage guarantee.
    slope:
        Shared exponential decay rate, must be ``<= 0``.
    floor:
        Strictly positive lower clamp keeping ``L_i`` bounded away from zero
        (required for log-space operations downstream).

    Returns
    -------
    IntervalEstimate
        The estimate; ``estimate.model`` plugs straight into
        :func:`~repro.core.cubis.solve_cubis`.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    if slope > 0.0:
        raise ValueError(f"slope must be <= 0 for non-increasing bounds, got {slope}")
    if floor <= 0.0:
        raise ValueError(f"floor must be > 0, got {floor}")
    t = attacks.num_targets
    n = attacks.num_observations
    counts = np.bincount(attacks.targets, minlength=t).astype(np.float64)
    # Laplace smoothing keeps every lower curve strictly positive even for
    # never-attacked targets.
    p_hat = (counts + 1.0) / (n + t)
    radius = float(np.sqrt(np.log(2.0 * t / delta) / (2.0 * n)))
    centres = attacks.coverages.mean(axis=0)
    lo_const = np.maximum(p_hat - radius, floor)
    hi_const = p_hat + radius
    s = float(slope)

    def lower_fn(points, _a=lo_const, _c=centres, _s=s):
        pts = np.asarray(points, dtype=np.float64)
        return _a[:, None] * np.exp(_s * (pts[None, :] - _c[:, None]))

    def upper_fn(points, _b=hi_const, _c=centres, _s=s):
        pts = np.asarray(points, dtype=np.float64)
        return _b[:, None] * np.exp(_s * (pts[None, :] - _c[:, None]))

    model = FunctionIntervalModel(t, lower_fn, upper_fn)
    return IntervalEstimate(
        model=model,
        probabilities=p_hat,
        radius=radius,
        centres=centres,
        delta=float(delta),
        num_observations=n,
        slope=s,
    )
