"""Incremental sparse constraint assembly for MILP builders.

The CUBIS MILP (33-40) and the PASAQ baseline MILP both consist of many
small structured constraint blocks over variable groups (``x_{i,k}``,
``v_i``, ``q_i``, ``h_{i,k}``).  :class:`ConstraintBuilder` accumulates
rows as COO triplets and materialises one CSR matrix at the end — avoiding
dense ``(rows x vars)`` intermediates, per the sparse-matrix guidance of
the HPC-Python guides.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ConstraintBuilder", "VariableLayout"]


class VariableLayout:
    """Named contiguous variable groups inside one flat MILP vector.

    Usage::

        layout = VariableLayout()
        x = layout.add("x", T * K)      # returns index array
        v = layout.add("v", T)
        n = layout.size
    """

    def __init__(self) -> None:
        self._groups: dict[str, np.ndarray] = {}
        self._size = 0

    def add(self, name: str, count: int) -> np.ndarray:
        """Append a group of ``count`` variables; returns their indices."""
        if name in self._groups:
            raise ValueError(f"variable group {name!r} already defined")
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        idx = np.arange(self._size, self._size + count)
        self._groups[name] = idx
        self._size += count
        return idx

    def __getitem__(self, name: str) -> np.ndarray:
        return self._groups[name]

    @property
    def size(self) -> int:
        """Total number of variables laid out so far."""
        return self._size


class ConstraintBuilder:
    """Accumulates sparse inequality rows ``a @ x <= b``.

    ``add_row`` appends one row from parallel ``(columns, coefficients)``
    arrays; ``add_block`` appends many structurally-identical rows at once
    (vectorised).  ``build`` returns ``(A, b)`` with ``A`` in CSR format.
    """

    def __init__(self, num_variables: int) -> None:
        if num_variables < 1:
            raise ValueError(f"num_variables must be >= 1, got {num_variables}")
        self._n = int(num_variables)
        self._rows: list[np.ndarray] = []
        self._cols: list[np.ndarray] = []
        self._vals: list[np.ndarray] = []
        self._rhs: list[float] = []
        self._m = 0

    @property
    def num_rows(self) -> int:
        """Number of rows added so far."""
        return self._m

    @property
    def num_entries(self) -> int:
        """Number of (row, col, val) entries added so far — the offsets a
        caller needs to locate a block inside :meth:`build_coo` output."""
        return sum(len(c) for c in self._cols)

    def add_row(self, columns, coefficients, rhs: float) -> None:
        """Append a single row ``sum_j coef_j x_{col_j} <= rhs``."""
        cols = np.asarray(columns, dtype=np.int64)
        vals = np.asarray(coefficients, dtype=np.float64)
        if cols.shape != vals.shape:
            raise ValueError("columns and coefficients must have matching shapes")
        if len(cols) and (cols.min() < 0 or cols.max() >= self._n):
            raise ValueError("column index out of range")
        self._rows.append(np.full(len(cols), self._m, dtype=np.int64))
        self._cols.append(cols)
        self._vals.append(vals)
        self._rhs.append(float(rhs))
        self._m += 1

    def add_block(self, columns, coefficients, rhs) -> None:
        """Append ``R`` structurally-identical rows at once.

        ``columns`` and ``coefficients`` have shape ``(R, C)`` (row ``r``
        uses ``C`` entries); ``rhs`` has shape ``(R,)``.
        """
        cols = np.asarray(columns, dtype=np.int64)
        vals = np.asarray(coefficients, dtype=np.float64)
        rhs = np.asarray(rhs, dtype=np.float64)
        if cols.ndim != 2 or cols.shape != vals.shape:
            raise ValueError("columns/coefficients must be 2-D with matching shapes")
        nrows = cols.shape[0]
        if rhs.shape != (nrows,):
            raise ValueError(f"rhs must have shape ({nrows},), got {rhs.shape}")
        if cols.size and (cols.min() < 0 or cols.max() >= self._n):
            raise ValueError("column index out of range")
        row_ids = np.repeat(np.arange(self._m, self._m + nrows, dtype=np.int64), cols.shape[1])
        self._rows.append(row_ids)
        self._cols.append(cols.ravel())
        self._vals.append(vals.ravel())
        self._rhs.extend(rhs.tolist())
        self._m += nrows

    def build(self) -> tuple[sp.csr_matrix, np.ndarray]:
        """Materialise ``(A_ub, b_ub)``; drops explicitly-zero entries."""
        import scipy.sparse as sp

        if self._m == 0:
            return sp.csr_matrix((0, self._n)), np.zeros(0)
        rows, cols, vals, rhs = self.build_coo()
        A = sp.coo_matrix((vals, (rows, cols)), shape=(self._m, self._n)).tocsr()
        A.eliminate_zeros()
        return A, rhs

    def build_coo(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The raw ``(rows, cols, vals, rhs)`` triplets in insertion order.

        Entry order matches the ``add_row`` / ``add_block`` call sequence,
        so a caller that recorded :attr:`num_entries` around each block can
        later rewrite just that block's values — the memoisation hook used
        by :class:`repro.core.milp.CubisMilpSkeleton` to re-coefficient a
        fixed sparsity pattern instead of rebuilding the matrix.
        """
        rows = np.concatenate(self._rows) if self._rows else np.zeros(0, dtype=np.int64)
        cols = np.concatenate(self._cols) if self._cols else np.zeros(0, dtype=np.int64)
        vals = np.concatenate(self._vals) if self._vals else np.zeros(0)
        return rows, cols, vals, np.asarray(self._rhs)
