"""Per-arm linear attribute estimation, one bank of arrays per strategy.

Each arm is fitted on its own observations (the disjoint model of LinUCB:
one A_a and b_a per arm). ``EstimatorState`` holds a strategy's N arms as
arrays: Gram matrices, moment vectors, cached inverses, a ``current``
flag per arm and the displayed estimates. Point estimates come from
ordinary least squares or ridge regression on those statistics;
estimates whose norm exceeds 1 are scaled back onto the unit ball because
the true attribute vectors live there. Ridge banks also provide the
ellipsoidal confidence widths used by the chained payment strategies.

The bank caches A = G^-1 for each arm's (regularized) Gram matrix G in its
row of ``inverses``: the estimate is A moment, ||x|| in the G^-1 metric is
sqrt(x^T A x), and the widths of all N arms are one (N, d, d) @ x product.
While an arm is ``current``, ``absorb`` keeps its A up to date with the
Sherman-Morrison update A -= v v^T, v = A x / sqrt(s), s = 1 + x^T A x.
Because s = det G' / det G, an observation with s > 2 clears the arm's
flag instead and the next use refactors G anew (Cholesky, then A = W^T W
for W = L^-1); this is the determinant-doubling rule of rarely switching
OFUL (Abbasi-Yadkori, Pal & Szepesvari, 2011) and fires O(d log n) times
per arm. It bounds the drift of the updated inverse. Adding x x^T never
lowers a Cholesky pivot, so an OLS arm that once passed ``PIVOT_TOL`` stays
identifiable and needs no re-check between refactors.

Only a refactor reads G, so ``absorb`` does not form x x^T: it copies x into
the arm's buffer of ``GRAM_ROWS`` rows, and G is summed when it is read
(``gram``) or the buffer is full. The fold adds the buffered outer products
to G one at a time, in absorb order, with ``np.add.accumulate``, so G keeps
the bits of absorbing each x x^T with ``+=``. ``np.add.reduce`` would sum
them pairwise and round differently.
"""

from __future__ import annotations

import math

import numpy as np

# The factor and solve kernels are re-exported (see __all__) next to their caller.
from .linalg import SingularMatrixError, back_substitute, cholesky_spd, forward_substitute

OLS = "ols"
RIDGE = "ridge"

# An absorb whose update ratio s = det G' / det G exceeds this drops the
# cached inverse, so the next use refactors G anew.
REFACTOR_RATIO = 2.0

# Contexts an arm buffers before it folds their outer products into G.
GRAM_ROWS = 32


class EstimatorState:
    """The regression statistics of a strategy's N arms, one row per arm.

    ``gram`` (N, dim, dim) is each arm's raw sum of outer products; the
    ridge term ``ridge_lambda * I`` is added at refactor time only.
    ``moment`` (N, dim) sums response * context, ``inverses`` (N, dim, dim)
    holds G^-1 of each arm whose ``current`` entry is True, and ``shown``
    (N, dim) is each arm's displayed estimate. ``current`` is a list,
    read-only to callers like the arrays. Every method takes the arm, 0 by
    default, so ``EstimatorState(dim)`` is one arm's state.
    """

    def __init__(self, dim: int, mode: str = OLS, ridge_lambda: float = 0.0,
                 n_arms: int = 1) -> None:
        if mode not in (OLS, RIDGE):
            raise ValueError(f"unknown estimator mode {mode!r}")
        if mode == RIDGE and ridge_lambda <= 0:
            raise ValueError("ridge mode requires ridge_lambda > 0")
        self.mode = mode
        self.ridge_lambda = float(ridge_lambda)
        self.dim = int(dim)
        self.inverses = np.zeros((n_arms, self.dim, self.dim))
        self.moment = np.zeros((n_arms, self.dim))
        self.shown = np.zeros((n_arms, self.dim))
        self.current = [False] * n_arms
        self._gram = np.zeros((n_arms, self.dim, self.dim))
        self._rows = np.empty((n_arms, GRAM_ROWS, self.dim))  # absorbed, not yet in _gram
        self._buffered = [0] * n_arms
        # Each arm's rows, viewed once: indexing the stacks on every absorb costs more.
        self._views = list(zip(self.inverses, self.moment, self.shown, self._rows))

    def absorb(self, context: np.ndarray, response: float, arm: int = 0) -> None:
        """Add one (context, response) pair to the arm's statistics, then
        refresh its ``shown`` row: the estimate, which refactors if needed,
        or the zero vector while an OLS arm is not identifiable."""
        x = np.asarray(context, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"context shape {x.shape} does not match dim {self.dim}")
        inv, moment, shown, rows = self._views[arm]
        k = self._buffered[arm]
        rows[k] = x
        self._buffered[arm] = k + 1
        if k + 1 == GRAM_ROWS:
            self._fold(arm)
        moment += float(response) * x
        if self.current[arm]:
            u = inv.dot(x)
            s = 1.0 + x.dot(u)
            if s <= REFACTOR_RATIO:
                u /= math.sqrt(s)  # now v = A x / sqrt(s)
                inv -= u[:, None] * u  # v_i v_j == v_j v_i: stays exactly symmetric
            else:  # also a NaN ratio: the refactor's checks then reject it
                self.current[arm] = False
        try:
            self.estimate(arm, shown)
        except SingularMatrixError:
            shown[...] = 0.0

    def _fold(self, arm: int) -> None:
        """Add the arm's buffered rows' outer products to its G in absorb order."""
        rows = self._rows[arm, :self._buffered[arm]]
        gram = self._gram[arm]
        terms = np.concatenate([gram[None], rows[:, :, None] * rows[:, None, :]])
        gram[...] = np.add.accumulate(terms, axis=0)[-1]
        self._buffered[arm] = 0

    @property
    def gram(self) -> np.ndarray:
        """Each arm's sum of x x^T over its absorbed contexts."""
        for arm, buffered in enumerate(self._buffered):
            if buffered:
                self._fold(arm)
        return self._gram

    def regularized_gram(self, arm: int = 0) -> np.ndarray:
        if self._buffered[arm]:
            self._fold(arm)
        if self.mode == RIDGE:
            return self._gram[arm] + self.ridge_lambda * np.eye(self.dim)
        return self._gram[arm]

    def inverse(self, arm: int = 0) -> np.ndarray:
        """The arm's row of ``inverses``, A = G^-1 for its (regularized) Gram
        matrix G. With none cached, G is factored anew; OLS mode then raises
        SingularMatrixError while the arm is not identifiable."""
        inv = self._views[arm][0]
        if not self.current[arm]:
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
        """Point estimate of the arm's attribute vector, clipped to the unit ball.

        Written into ``out`` (a contiguous float (dim,) row, such as the arm's
        ``shown`` row) when given, else into a new array; the clip divides in
        place, so both hold the bits of ``est / norm``. OLS mode raises
        SingularMatrixError while the Gram matrix is rank deficient, before
        ``out`` is written; ``absorb`` then shows the zero vector.
        """
        est = self.inverse(arm).dot(self._views[arm][1], out=out)
        norm = math.sqrt(est.dot(est))
        if norm > 1.0:
            est /= norm
        return est

    def inv_norm(self, context: np.ndarray, arm: int = 0) -> float:
        """||context|| in the arm's inverse (regularized) Gram metric."""
        x = np.asarray(context, float)
        return math.sqrt(max(float(x.dot(self.inverse(arm).dot(x))), 0.0))


def inv_norms(inverses: np.ndarray, context: np.ndarray) -> np.ndarray:
    """||context|| in each of an (N, d, d) stack of inverse Gram metrics, from one product.

    The clip at zero and the square root write over the quadratic forms, a new
    (N,) array, which gives the bits of the allocating calls.
    """
    x = np.asarray(context, float)
    quad = (inverses @ x).dot(x)
    np.maximum(quad, 0.0, out=quad)
    return np.sqrt(quad, out=quad)


def confidence_width(inverses: np.ndarray, ridge_lambda: float, context: np.ndarray,
                     delta: float, explore_m: int, t: int) -> np.ndarray:
    """Ellipsoidal confidence widths of all arms at round t, one per inverse.

    width_i = ||context||_{A_i} * (m * sqrt(d * ln((1 + t/lam)/delta)) + sqrt(lam))

    ``inverses`` is the (N, d, d) stack of current A_i = (G_i + lam I)^-1
    of a ridge-mode bank with lam = ``ridge_lambda`` > 0, as
    ``EstimatorState.current_inverses`` returns it; delta is in (0, 1). Zero context
    gives width 0; more data never increases an arm's width for a fixed
    context.
    """
    lam = ridge_lambda
    if not lam > 0:
        raise ValueError(f"confidence widths require ridge_lambda > 0, got {lam}")
    if not (0 < delta < 1):
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    d = inverses.shape[-1]
    scale = explore_m * math.sqrt(d * math.log((1 + t / lam) / delta)) + math.sqrt(lam)
    widths = inv_norms(inverses, context)
    widths *= scale
    return widths


__all__ = [
    "OLS", "RIDGE", "EstimatorState", "confidence_width", "inv_norms",
    "SingularMatrixError", "back_substitute", "cholesky_spd", "forward_substitute",
]
