"""Piecewise-linear approximation on a uniform segment grid.

Section IV-C of the paper approximates each non-linear univariate function
``f_i(x_i)`` on ``[0, 1]`` by ``K`` equal segments, writing the coverage as

.. math::

    x_i = \\sum_{k=1}^{K} x_{i,k}, \\qquad 0 \\le x_{i,k} \\le 1/K

with the *fill-order* semantics that segment ``k`` only carries mass once
segments ``1..k-1`` are full (enforced in the MILPs by the binary
``h_{i,k}`` variables, Eq. 38-40).  Under fill order,

.. math::

    f_i(x_i) \\approx f_i(0) + \\sum_k s_{i,k} \\, x_{i,k},
    \\qquad s_{i,k} = K \\left[ f_i(k/K) - f_i((k-1)/K) \\right]

:class:`SegmentGrid` centralises the breakpoints, slopes, fill-order
decomposition and interpolation so CUBIS and the PASAQ baseline share one
(vectorised, well-tested) implementation.
"""

from __future__ import annotations

import numpy as np

__all__ = ["SegmentGrid"]


class SegmentGrid:
    """A uniform ``K``-segment grid on ``[0, 1]``.

    Parameters
    ----------
    num_segments:
        The number of segments ``K >= 1``.  Approximation error of a
        differentiable function is ``O(1/K)`` (Lemma 1).
    """

    def __init__(self, num_segments: int) -> None:
        if num_segments < 1:
            raise ValueError(f"num_segments must be >= 1, got {num_segments}")
        self._k = int(num_segments)
        self._breakpoints = np.linspace(0.0, 1.0, self._k + 1)

    @property
    def num_segments(self) -> int:
        """The segment count ``K``."""
        return self._k

    @property
    def breakpoints(self) -> np.ndarray:
        """The ``K + 1`` grid points ``0, 1/K, ..., 1`` (read-only view)."""
        v = self._breakpoints.view()
        v.setflags(write=False)
        return v

    @property
    def segment_length(self) -> float:
        """``1 / K``."""
        return 1.0 / self._k

    # ------------------------------------------------------------------ #
    # Grid math
    # ------------------------------------------------------------------ #

    def slopes(self, values) -> np.ndarray:
        """Per-segment slopes from breakpoint values.

        ``values`` has shape ``(..., K+1)`` (typically ``(T, K+1)``: every
        target's function tabulated on the grid); the result has shape
        ``(..., K)`` with ``s_k = K * (f(k/K) - f((k-1)/K))``.
        """
        values = np.asarray(values, dtype=np.float64)
        if values.shape[-1] != self._k + 1:
            raise ValueError(
                f"values must have {self._k + 1} breakpoint columns, got {values.shape[-1]}"
            )
        return self._k * np.diff(values, axis=-1)

    def decompose(self, x) -> np.ndarray:
        """Fill-order decomposition ``x -> x_{.,k}``.

        ``x`` has shape ``(T,)`` with entries in ``[0, 1]``; the result has
        shape ``(T, K)`` with ``x_{i,k} = min(x_i, k/K) - min(x_i, (k-1)/K)``.
        Matches the paper's Example 1 (``K=5, x=0.3 -> (0.2, 0.1, 0, 0, 0)``).

        The telescoping form (rather than ``clip(x - (k-1)/K, 0, 1/K)``)
        makes the decomposition exact in float arithmetic: consecutive
        clipped breakpoints are within a factor of two of each other, so by
        Sterbenz's lemma every difference is computed without rounding, no
        segment ever receives more than its true breakpoint-to-breakpoint
        capacity, and a sequential re-summation telescopes back to exactly
        ``x`` — including at seam points like ``x = 1.0``, where the naive
        form loses an ulp (``3 * fl(1/3) < 1``).
        """
        x = np.asarray(x, dtype=np.float64)
        if np.any(x < -1e-9) or np.any(x > 1.0 + 1e-9):
            raise ValueError("coverage values must lie in [0, 1]")
        return self._fill(np.clip(x, 0.0, 1.0))

    def _fill(self, x: np.ndarray) -> np.ndarray:
        """:meth:`decompose` without its checks: ``x`` is a float64 array
        already clipped to ``[0, 1]``."""
        filled = np.minimum(x[..., None], self._breakpoints)
        return filled[..., 1:] - filled[..., :-1]

    def reconstruct(self, segments) -> np.ndarray:
        """Inverse of :meth:`decompose`: sum the per-segment portions.

        Summed sequentially (``cumsum``) rather than with numpy's pairwise
        reduction: the portions produced by :meth:`decompose` telescope, so
        a left-to-right sum recovers the original coverage bit for bit.
        """
        segments = np.asarray(segments, dtype=np.float64)
        if segments.shape[-1] != self._k:
            raise ValueError(
                f"segments must have {self._k} columns, got {segments.shape[-1]}"
            )
        return np.cumsum(segments, axis=-1)[..., -1]

    def is_fill_ordered(self, segments, *, atol: float = 1e-7) -> bool:
        """Whether ``segments`` respect fill order: any positive mass in
        segment ``k+1`` requires segment ``k`` to be full."""
        segments = np.asarray(segments, dtype=np.float64)
        later_used = segments[..., 1:] > atol
        earlier_full = segments[..., :-1] >= self.segment_length - atol
        return bool(np.all(~later_used | earlier_full))

    def interpolate(self, values, x) -> np.ndarray:
        """Evaluate the piecewise-linear approximant at coverage ``x``.

        ``values`` has shape ``(T, K+1)``; ``x`` has shape ``(T,)``; the
        result is ``f̄_i(x_i)`` per target — exact at breakpoints, linear
        within segments.
        """
        values = np.asarray(values, dtype=np.float64)
        s = self.slopes(values)
        xik = self.decompose(x)
        return values[..., 0] + (s * xik).sum(axis=-1)

    def max_abs_on_grid(self, values) -> np.ndarray:
        """``max_k |f(k/K)|`` per target — a valid bound on the piecewise
        approximant's magnitude (the PWL function attains its extremes at
        breakpoints).  Used for data-driven big-M sizing."""
        values = np.asarray(values, dtype=np.float64)
        return np.abs(values).max(axis=-1)
