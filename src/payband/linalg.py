"""Dense linear algebra helpers for small symmetric positive definite systems.

All inputs are plain float64 numpy arrays. The matrices handled here are Gram
matrices of per-arm observation histories, so dimensions stay small (at most
``model.MAX_DIM``) and an unblocked O(d^3) Cholesky with an explicit pivot
check is both fast enough and gives precise control over the singularity
threshold.
"""

from __future__ import annotations

import math

import numpy as np

# Pivot below this during factorization means the matrix is treated as
# singular rather than positive definite.
PIVOT_TOL = 1e-12

# Residual contract for solve_spd: ||A x - b||_inf <= RESIDUAL_TOL * (1 + ||b||_inf).
RESIDUAL_TOL = 1e-9

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
    scale = max(1.0, float(np.max(np.abs(a))) if a.size else 1.0)
    if not np.all(np.abs(a - a.T) <= _SYM_TOL * scale):
        raise ValueError("matrix is not symmetric within tolerance")
    return a


def cholesky_spd(a: np.ndarray, pivot_tol: float = PIVOT_TOL) -> np.ndarray:
    """Lower-triangular factor L with A = L L^T.

    Raises SingularMatrixError if any pivot falls below ``pivot_tol``.
    """
    a = _check_symmetric(_as_square(a))
    n = a.shape[0]
    low = np.zeros((n, n))
    for j in range(n):
        pivot = a[j, j] - low[j, :j] @ low[j, :j]
        if pivot < pivot_tol:
            raise SingularMatrixError(
                f"pivot {pivot:.3e} below tolerance {pivot_tol:.1e} at column {j}"
            )
        low[j, j] = math.sqrt(pivot)
        if j + 1 < n:
            low[j + 1 :, j] = (a[j + 1 :, j] - low[j + 1 :, :j] @ low[j, :j]) / low[j, j]
    return low


def forward_substitute(low: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve L y = b for lower-triangular L."""
    n = low.shape[0]
    y = np.zeros(n)
    for i in range(n):
        y[i] = (b[i] - low[i, :i] @ y[:i]) / low[i, i]
    return y


def back_substitute(low: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Solve L^T x = y for lower-triangular L."""
    n = low.shape[0]
    x = np.zeros(n)
    for i in range(n - 1, -1, -1):
        x[i] = (y[i] - low[i + 1 :, i] @ x[i + 1 :]) / low[i, i]
    return x


def solve_spd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A x = b for symmetric positive definite A via Cholesky.

    Deterministic; raises SingularMatrixError when a pivot drops below
    PIVOT_TOL instead of returning garbage.
    """
    a = _check_symmetric(_as_square(a))
    b = np.asarray(b, dtype=float)
    low = cholesky_spd(a)
    return back_substitute(low, forward_substitute(low, b))


def quad_norm_inv(a: np.ndarray, x: np.ndarray) -> float:
    """The norm sqrt(x^T A^-1 x) for symmetric positive definite A.

    Computed as ||L^-1 x||_2, which is nonnegative by construction and
    exactly zero iff x is the zero vector.
    """
    a = _check_symmetric(_as_square(a))
    x = np.asarray(x, dtype=float)
    low = cholesky_spd(a)
    return float(np.linalg.norm(forward_substitute(low, x)))


def min_eig_sym(a: np.ndarray) -> float:
    """Smallest eigenvalue of a symmetric matrix."""
    a = _check_symmetric(_as_square(a))
    if a.size == 0:
        raise ValueError("empty matrix has no eigenvalues")
    return float(np.linalg.eigvalsh(a)[0])
