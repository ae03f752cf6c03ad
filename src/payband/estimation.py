"""Per-arm linear attribute estimation, one bank of arrays per strategy.

``EstimatorState`` holds a strategy's N arms (the disjoint model of LinUCB:
one A_a and b_a per arm), and the factor and solve kernels below are numpy's
LAPACK calls. The update, refactor and OLS rules, why each kernel keeps its
bits, and the accuracy contract: README "Numerics".
"""

from __future__ import annotations

import math

import numpy as np

OLS = "ols"
RIDGE = "ridge"

# An absorb whose s = det G' / det G exceeds this drops the cached inverse.
REFACTOR_RATIO = 2.0

# A Cholesky pivot below this counts as singular, not positive definite.
PIVOT_TOL = 1e-12

_SYM_TOL = 1e-12


class SingularMatrixError(ValueError):
    """Raised when a matrix is numerically singular (Cholesky pivot < tolerance):
    an OLS arm then displays the zero vector until it is identifiable."""


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


class EstimatorState:
    """The regression statistics of a strategy's N arms, one row per arm.

    ``gram`` (N, dim, dim) and ``moment`` (N, dim) view one (N, dim + 1, dim)
    array of statistics blocks: the raw sums of outer products (the ridge term
    is added at refactor time only) and of response * context. ``inverses``
    holds G^-1 of each arm whose ``current`` entry is True, and ``shown`` each
    arm's displayed estimate, all read-only to callers. Every method takes
    the arm, 0 by default, so ``EstimatorState(dim)`` is one arm's state.
    """

    def __init__(self, dim: int, mode: str = OLS, ridge_lambda: float = 0.0,
                 n_arms: int = 1) -> None:
        if mode not in (OLS, RIDGE):
            raise ValueError(f"unknown estimator mode {mode!r}")
        if mode == RIDGE and ridge_lambda <= 0:
            raise ValueError("ridge mode requires ridge_lambda > 0")
        self.mode = mode
        self.ridge_lambda = float(ridge_lambda)
        self.dim = d = int(dim)
        self.inverses = np.zeros((n_arms, d, d))
        self._stats = np.zeros((n_arms, d + 1, d))
        self.gram, self.moment = self._stats[:, :d], self._stats[:, d]
        self.shown = np.zeros((n_arms, d))
        self.current = [False] * n_arms
        self._absorbed = [0] * n_arms  # contexts absorbed, for the OLS rank rule
        # Each arm's rows, viewed once: indexing the stacks on every absorb costs more.
        self._views = list(zip(self.inverses, self._stats, self.moment, self.shown))
        # The block update's scratch: the column (x, response), its views and their product.
        self._col = np.empty(d + 1)
        self._x, self._colv, self._xrow = self._col[:d], self._col[:, None], self._col[None, :d]
        self._outer = np.empty((d + 1, d))
        # The rank-1 update's scratch: u = A x, its (d, 1) and (1, d) views, and v v^T.
        self._u = np.empty(d)
        self._vcol, self._vrow = self._u[:, None], self._u[None, :]
        self._vvt = np.empty((d, d))

    @staticmethod
    def cells(n_arms: int, dim: int) -> int:
        """The float64 cells a bank allocates: each arm's rows and 73 cells (584
        bytes) of views and list entries, and the update scratch."""
        return n_arms * (dim * (2 * dim + 2) + 73) + (2 * dim + 1) * (dim + 1)

    def absorb(self, context: np.ndarray, response: float, arm: int = 0) -> None:
        """Add one (context, response) pair to the arm's statistics, then
        refresh its ``shown`` row: the estimate, which refactors if needed,
        or the zero vector while an OLS arm is not identifiable. The bits
        kept: README "Numerics", `test_statistics_block_equals_sequential_sums`
        and `test_rank_one_update_matches_the_broadcast_outer_product`.
        """
        x = np.asarray(context, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"context shape {x.shape} does not match dim {self.dim}")
        inv, stats, _, shown = self._views[arm]
        self._x[...] = x
        self._col[-1] = response
        stats += self._colv.dot(self._xrow, out=self._outer)
        self._absorbed[arm] += 1
        if self.current[arm]:
            u = inv.dot(x, out=self._u)
            s = 1.0 + x.dot(u)
            if s <= REFACTOR_RATIO:
                u /= math.sqrt(s)  # now v = A x / sqrt(s)
                inv -= self._vcol.dot(self._vrow, out=self._vvt)
            else:  # also a NaN ratio: the refactor's checks then reject it
                self.current[arm] = False
        try:
            self.estimate(arm, shown)
        except SingularMatrixError:
            shown[...] = 0.0

    def regularized_gram(self, arm: int = 0) -> np.ndarray:
        if self.mode == RIDGE:
            return self.gram[arm] + self.ridge_lambda * np.eye(self.dim)
        return self.gram[arm]

    def inverse(self, arm: int = 0) -> np.ndarray:
        """The arm's row of ``inverses``, A = G^-1 for its (regularized) Gram
        matrix G, factored anew when none is cached. OLS mode raises
        SingularMatrixError while the arm is not identifiable, before any
        factor while it has fewer than ``dim`` contexts (README "Numerics")."""
        inv = self._views[arm][0]
        if not self.current[arm]:
            if self.mode == OLS and self._absorbed[arm] < self.dim:
                raise SingularMatrixError(f"{self._absorbed[arm]} contexts absorbed, "
                                          f"fewer than dim {self.dim}")
            low = cholesky_spd(self.regularized_gram(arm))
            w = forward_substitute(low, np.eye(self.dim))
            inv[...] = w.T @ w
            self.current[arm] = True
        return inv

    def current_inverses(self) -> np.ndarray:
        """``inverses`` with every row current: each arm with none cached (no
        absorb yet, or a failed refactor) is factored here."""
        if False in self.current:
            for arm in range(len(self.current)):
                self.inverse(arm)  # factors only an arm with none cached
        return self.inverses

    def estimate(self, arm: int = 0, out: np.ndarray | None = None) -> np.ndarray:
        """Point estimate of the arm's attribute vector, clipped to the unit
        ball, written into ``out`` (a contiguous float (dim,) row) when given,
        else into a new array, with the bits of ``est / norm`` either way. OLS
        mode raises SingularMatrixError while the Gram matrix is rank
        deficient, before ``out`` is written."""
        est = self.inverse(arm).dot(self._views[arm][2], out=out)
        norm = math.sqrt(est.dot(est))
        if norm > 1.0:
            est /= norm
        return est

    def inv_norm(self, context: np.ndarray, arm: int = 0) -> float:
        """||context|| in the arm's inverse (regularized) Gram metric."""
        x = np.asarray(context, float)
        return math.sqrt(max(float(x.dot(self.inverse(arm).dot(x))), 0.0))


def inv_norms(inverses: np.ndarray, context: np.ndarray) -> np.ndarray:
    """||context|| in each of an (N, d, d) stack of inverse Gram metrics, from one
    product; the in-place clip and root keep the allocating calls' bits
    (README "Run engine")."""
    x = np.asarray(context, float)
    quad = (inverses @ x).dot(x)
    np.maximum(quad, 0.0, out=quad)
    return np.sqrt(quad, out=quad)


def confidence_width(inverses: np.ndarray, ridge_lambda: float, context: np.ndarray,
                     delta: float, explore_m: int, t: int) -> np.ndarray:
    """Ellipsoidal confidence widths of all arms at round t, one per inverse:
    ||context||_{A_i} * ``width_scale``, for the (N, d, d) stack of current
    A_i = (G_i + lam I)^-1 of a ridge bank with lam = ``ridge_lambda`` > 0 and
    delta in (0, 1). A zero context gives width 0; more data never widens."""
    lam = ridge_lambda
    if not lam > 0:
        raise ValueError(f"confidence widths require ridge_lambda > 0, got {lam}")
    if not (0 < delta < 1):
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    widths = inv_norms(inverses, context)
    widths *= width_scale(lam, inverses.shape[-1], delta, explore_m, t)
    return widths


def width_scale(ridge_lambda: float, dim: int, delta: float, explore_m: int, t: int) -> float:
    """The factor ``confidence_width`` multiplies each context norm by at round t:
    m * sqrt(d * ln((1 + t/lam)/delta)) + sqrt(lam), a Python float."""
    return (explore_m * math.sqrt(dim * math.log((1 + t / ridge_lambda) / delta))
            + math.sqrt(ridge_lambda))

