"""Dense linear algebra helpers for small symmetric positive definite systems.

All inputs are plain float64 numpy arrays. The matrices handled here are Gram
matrices of per-arm observation histories, so dimensions stay small (at most
``model.MAX_DIM``). Factorizations and solves are numpy's LAPACK calls; the
singularity threshold is applied to the finished factor, whose squared
diagonal entries are exactly the pivots of the factorization.
"""

from __future__ import annotations

import numpy as np

# Pivot below this during factorization means the matrix is treated as
# singular rather than positive definite.
PIVOT_TOL = 1e-12

_SYM_TOL = 1e-12


class SingularMatrixError(ValueError):
    """Raised when a matrix is numerically singular (Cholesky pivot < tolerance).

    Callers react by adding ridge regularization or by collecting more
    observations until the Gram matrix becomes positive definite.
    """


def _as_square(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def _check_symmetric(a: np.ndarray) -> np.ndarray:
    asym = a - a.T
    if asym.any():  # exactly symmetric matrices, Gram matrices among them, stop here
        scale = max(1.0, float(np.max(np.abs(a))))
        if not np.max(np.abs(asym)) <= _SYM_TOL * scale:  # NaN fails too
            raise ValueError("matrix is not symmetric within tolerance")
    return a


def cholesky_spd(a: np.ndarray) -> np.ndarray:
    """Lower-triangular factor L with A = L L^T.

    Raises SingularMatrixError if any pivot L_jj^2 falls below ``PIVOT_TOL``
    or the matrix is not positive definite at all.
    """
    a = _check_symmetric(_as_square(a))
    try:
        low = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        raise SingularMatrixError("matrix is not positive definite (a pivot <= 0)") from None
    diag = low.diagonal()  # positive: LAPACK takes the square root of each pivot
    if diag.size and float(diag.min()) ** 2 < PIVOT_TOL:
        j = int(np.argmax(diag ** 2 < PIVOT_TOL))
        raise SingularMatrixError(
            f"pivot {diag[j] ** 2:.3e} below tolerance {PIVOT_TOL:.1e} at column {j}"
        )
    return low


def forward_substitute(low: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve L Y = B for lower-triangular L; B is a vector or a matrix of columns."""
    return np.linalg.solve(low, b)


def back_substitute(low: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Solve L^T X = Y for lower-triangular L; Y is a vector or a matrix of columns."""
    return np.linalg.solve(low.T, y)


def min_eig_sym(a: np.ndarray) -> float:
    """Smallest eigenvalue of a symmetric matrix."""
    a = _check_symmetric(_as_square(a))
    if a.size == 0:
        raise ValueError("empty matrix has no eigenvalues")
    return float(np.linalg.eigvalsh(a)[0])
