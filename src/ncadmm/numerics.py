"""Minimal linear-algebra substrate: sparse/diagonal matrices and spectral norms.

Dense vectors and matrices are plain ``numpy.ndarray``s throughout the
package; this module adds the two structured matrix types built on them,
plus the spectral-norm estimator (on dense arrays) that sets the quantile
step size.

scipy serves only `SparseMatrix` (the CT projector), which imports
`scipy.sparse` when the first one is built; a quantile run never loads it.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "SparseMatrix",
    "DiagonalMatrix",
    "spectral_norm",
]

# Power iteration bounds (deterministic: all-ones start vector).
_POWER_MAX_ITERS = 10_000


def _as_float_array(v, name: str) -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite (no NaN/Inf)")
    return arr


class SparseMatrix:
    """Immutable sparse matrix stored as CSR, built from (row, col, value) triples.

    Duplicate (row, col) pairs are rejected rather than summed, so the triple
    representation is canonical.
    """

    def __init__(self, rows: int, cols: int, row_idx, col_idx, values):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        row_idx = np.asarray(row_idx, dtype=np.int64)
        col_idx = np.asarray(col_idx, dtype=np.int64)
        # A copy: the CSR keeps it as its data and makes that read-only.
        values = _as_float_array(values, "values").copy()
        if not (row_idx.shape == col_idx.shape == values.shape):
            raise ValueError("row/col/value arrays must have equal length")
        indptr = np.zeros(rows + 1, dtype=np.int64)
        if row_idx.size:
            if row_idx.min() < 0 or row_idx.max() >= rows:
                raise ValueError("row index out of range")
            if col_idx.min() < 0 or col_idx.max() >= cols:
                raise ValueError("col index out of range")
            # The CSR order is the order of the keys; sort only if not in it.
            keys = row_idx * cols + col_idx
            if not (keys[1:] > keys[:-1]).all():
                order = np.argsort(keys)
                keys, values = keys[order], values[order]
                if (keys[1:] == keys[:-1]).any():
                    raise ValueError("duplicate (row, col) entries")
            row_idx, col_idx = np.divmod(keys, cols)
            np.cumsum(np.bincount(row_idx, minlength=rows), out=indptr[1:])
        # Imported here, not at module level: scipy.sparse costs ~15 MB of
        # resident memory and only the CT projector builds a sparse matrix.
        import scipy.sparse as sp

        self._set_csr(sp.csr_matrix((values, col_idx, indptr), shape=(rows, cols)))

    def _set_csr(self, csr) -> None:
        self.rows, self.cols = csr.shape
        self._csr = csr
        self._csr.data.flags.writeable = False

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def _operand(self, v, rows: int) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.ndim not in (1, 2) or v.shape[0] != rows:
            raise ValueError(
                f"dimension mismatch: matrix is {self.rows}x{self.cols}, "
                f"operand has shape {v.shape}"
            )
        return v

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """Product against a vector or a dense matrix with self.cols rows."""
        return self._csr @ self._operand(v, self.cols)

    def rmatvec(self, v: np.ndarray) -> np.ndarray:
        """Transposed product against a vector or a dense matrix with self.rows rows."""
        return self._csr.T @ self._operand(v, self.rows)

    matmat = matvec
    rmatmat = rmatvec

    def row_sums(self) -> np.ndarray:
        return np.asarray(self._csr.sum(axis=1)).ravel()

    def col_sums(self) -> np.ndarray:
        return np.asarray(self._csr.sum(axis=0)).ravel()

    def select_rows(self, mask: np.ndarray) -> "SparseMatrix":
        """The rows where the boolean `mask` is set, sliced from the CSR as is."""
        sub = SparseMatrix.__new__(SparseMatrix)
        sub._set_csr(self._csr[np.asarray(mask)])
        return sub

    def __repr__(self) -> str:
        return f"SparseMatrix({self.rows}x{self.cols}, nnz={self._csr.nnz})"


class DiagonalMatrix:
    """Immutable PSD diagonal matrix, one nonnegative entry per row: (n,) for
    vectors, (n, 1) for (n, m) matrices. Operands must match its axes and
    rows exactly, so that no product broadcasts to another shape."""

    def __init__(self, diagonal):
        # A copy, frozen below: neither the caller's array nor the base of a
        # view may be frozen by, or move, this matrix.
        diag = _as_float_array(diagonal, "diagonal").copy()
        if diag.ndim == 0 or any(n != 1 for n in diag.shape[1:]):
            raise ValueError("diagonal must hold one entry per row")
        if diag.size and diag.min() < 0:
            raise ValueError("PSD diagonal matrix requires nonnegative entries")
        diag.flags.writeable = False
        self.diag = diag

    def _operand(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.ndim != self.diag.ndim or v.shape[0] != self.diag.shape[0]:
            raise ValueError(f"dimension mismatch: diagonal {self.diag.shape}, operand {v.shape}")
        return v

    def matvec(self, v: np.ndarray) -> np.ndarray:
        return self.diag * self._operand(v)

    rmatvec = matvec

    def solve(self, v: np.ndarray) -> np.ndarray:
        return self._operand(v) / self.diag

    def is_positive(self) -> bool:
        return bool(self.diag.size == 0 or self.diag.min() > 0.0)

    def __repr__(self) -> str:
        return f"DiagonalMatrix(n={self.diag.size})"


def spectral_norm(m, rel_tol: float = 1e-9) -> float:
    """Largest singular value of the dense 2-D array `m`, via power iteration on M^T M.

    Deterministic: starts from the normalized all-ones vector and stops when
    successive Rayleigh quotients agree to `rel_tol` relative (or after
    10 000 iterations). Returns 0.0 for the zero matrix.
    """
    if rel_tol <= 0:
        raise ValueError("rel_tol must be positive")
    a = np.asarray(m, dtype=float)
    cols = a.shape[1]
    if cols == 0:
        return 0.0
    v = np.ones(cols) / np.sqrt(cols)
    rayleigh = 0.0
    for _ in range(_POWER_MAX_ITERS):
        w = a.T @ (a @ v)
        norm_w = float(np.linalg.norm(w))
        if norm_w == 0.0:
            return 0.0
        new_rayleigh = float(v @ w)
        v = w / norm_w
        if abs(new_rayleigh - rayleigh) <= rel_tol * abs(new_rayleigh):
            rayleigh = new_rayleigh
            break
        rayleigh = new_rayleigh
    return float(np.sqrt(max(rayleigh, 0.0)))
