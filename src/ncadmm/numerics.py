"""Minimal linear-algebra substrate: sparse/diagonal matrices and spectral norms.

Dense vectors and matrices are plain ``numpy.ndarray``s throughout the
package; this module adds the two structured matrix types built on them,
plus the spectral-norm estimator (on dense arrays) that sets the quantile
step size.

scipy serves only `SparseMatrix` (the CT projector) products, with the compiled
kernels of `scipy/sparse/_sparsetools`; the `scipy.sparse` package is never imported.
"""

from __future__ import annotations

import functools
import os
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import find_spec, module_from_spec, spec_from_loader

import numpy as np

__all__ = [
    "SparseMatrix",
    "DiagonalMatrix",
    "spectral_norm",
]

# Power iteration bounds (deterministic: all-ones start vector): the cap on
# steps and the relative change of the Rayleigh quotient that ends the loop.
_POWER_MAX_ITERS = 10_000
_POWER_REL_TOL = 1e-10


@functools.cache
def _sparsetools():
    """scipy's compiled sparse kernels, loaded on the first product from their
    extension file alone: importing `scipy.sparse` costs ~20 MB resident."""
    spec = find_spec("scipy")
    where = [os.path.join(d, "sparse") for d in (spec.submodule_search_locations if spec else ())]
    for path in (os.path.join(d, "_sparsetools" + s) for d in where for s in EXTENSION_SUFFIXES):
        if os.path.isfile(path):
            # The name must end in _sparsetools: the init symbol is PyInit__sparsetools.
            loader = ExtensionFileLoader("_sparsetools", path)
            module = module_from_spec(spec_from_loader("_sparsetools", loader))
            loader.exec_module(module)
            return module
    raise ImportError(f"scipy's _sparsetools extension not found in {where}")


def _as_float_array(v, name: str) -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite (no NaN/Inf)")
    return arr


class SparseMatrix:
    """Immutable sparse matrix built from its CSR arrays: `indptr` (rows + 1
    entries rising from 0 to nnz), `indices` (each entry's column) and `data`
    (its finite value), checked in O(nnz), kept (not copied) and made
    read-only, with int32 indices when they fit, as scipy stores them.
    """

    def __init__(self, rows: int, cols: int, indptr, indices, data):
        indptr, indices = np.asarray(indptr), np.asarray(indices)
        data = _as_float_array(data, "values")
        if rows < 0 or cols < 0 or indptr.shape != (rows + 1,) or indices.shape != data.shape:
            raise ValueError("CSR arrays must hold rows + 1 and nnz entries")
        if indptr[0] != 0 or indptr[-1] != data.size or (indptr[1:] < indptr[:-1]).any():
            raise ValueError("indptr must rise from 0 to nnz")
        if indices.size and (indices.min() < 0 or indices.max() >= cols):
            raise ValueError("col index out of range")
        idx = np.int32 if max(rows, cols, data.size) <= np.iinfo(np.int32).max else np.int64
        self.rows, self.cols, self.data = rows, cols, data
        self.indptr, self.indices = indptr.astype(idx, copy=False), indices.astype(idx, copy=False)
        for a in (self.indptr, self.indices, data):
            a.flags.writeable = False

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def _product(self, fmt: str, out_rows: int, in_rows: int, v) -> np.ndarray:
        """The `_sparsetools` call that scipy makes for `csr @ v` (fmt "csr") or
        `csr.T @ v` (fmt "csc"); a matrix kernel takes the column count third."""
        v = np.asarray(v, dtype=float)
        if v.ndim not in (1, 2) or v.shape[0] != in_rows:
            raise ValueError(f"dimension mismatch: matrix is {self.rows}x{self.cols}, "
                             f"operand has shape {v.shape}")
        v, out = np.ascontiguousarray(v), np.zeros((out_rows,) + v.shape[1:])
        kernel = getattr(_sparsetools(), fmt + ("_matvec" if v.ndim == 1 else "_matvecs"))
        kernel(out_rows, in_rows, *v.shape[1:], self.indptr, self.indices, self.data, v, out)
        return out

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """Product against a vector or a dense matrix with self.cols rows."""
        return self._product("csr", self.rows, self.cols, v)

    def rmatvec(self, v: np.ndarray) -> np.ndarray:
        """Transposed product against a vector or a dense matrix with self.rows rows."""
        return self._product("csc", self.cols, self.rows, v)

    matmat = matvec
    rmatmat = rmatvec

    def row_sums(self) -> np.ndarray:
        """scipy's minor-axis sum: each nonempty row reduced in storage order."""
        sums = np.zeros(self.rows)
        nonempty = np.flatnonzero(np.diff(self.indptr))
        sums[nonempty] = np.add.reduceat(self.data, self.indptr[nonempty])
        return sums

    def col_sums(self) -> np.ndarray:
        return self.rmatvec(np.ones(self.rows))

    def select_rows(self, mask: np.ndarray) -> "SparseMatrix":
        """The rows where the boolean `mask` (one entry per row) is set, sliced as is."""
        mask = np.asarray(mask)
        if mask.dtype != bool or mask.shape != (self.rows,):
            raise ValueError(f"row mask must be boolean of shape ({self.rows},), not {mask.dtype}"
                             f" of shape {mask.shape}")
        lengths = np.diff(self.indptr)
        keep = np.repeat(mask, lengths)
        indptr = np.append(0, np.cumsum(lengths[mask]))
        return SparseMatrix(indptr.size - 1, self.cols, indptr, self.indices[keep], self.data[keep])

    def __repr__(self) -> str:
        return f"SparseMatrix({self.rows}x{self.cols}, nnz={self.data.size})"


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

    def solve(self, v: np.ndarray) -> np.ndarray:
        return self._operand(v) / self.diag

    def is_positive(self) -> bool:
        return bool(self.diag.size == 0 or self.diag.min() > 0.0)

    def __repr__(self) -> str:
        return f"DiagonalMatrix(n={self.diag.size})"


def spectral_norm(m) -> float:
    """Largest singular value of the dense 2-D array `m`, via power iteration on M^T M.

    Deterministic: starts from the normalized all-ones vector and stops when
    successive Rayleigh quotients agree to 1e-10 relative (or after
    10 000 iterations). Returns 0.0 for the zero matrix.
    """
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
        if abs(new_rayleigh - rayleigh) <= _POWER_REL_TOL * abs(new_rayleigh):
            rayleigh = new_rayleigh
            break
        rayleigh = new_rayleigh
    return float(np.sqrt(max(rayleigh, 0.0)))
