"""Per-arm linear attribute estimation.

Each arm keeps sufficient statistics (Gram matrix, moment vector, count) of
the observation pairs it has absorbed. Point estimates come from ordinary
least squares or ridge regression on those statistics; estimates whose norm
exceeds 1 are scaled back onto the unit ball because the true attribute
vectors live there. Ridge states also provide ellipsoidal confidence widths
used by the chained payment strategies.

A state caches A = G^-1 for its (regularized) Gram matrix G: the estimate is
A moment, ||x|| in the G^-1 metric is sqrt(x^T A x), and the widths of all N
arms are one (N, d, d) @ x product. A state built on a row of a caller's
(N, d, d) array keeps A in that row, so the product reads the cached
inverses in place. While ``current``, ``absorb`` keeps A up to date with
the Sherman-Morrison update A -= v v^T, v = A x / sqrt(s), s = 1 + x^T A x.
Because s = det G' / det G, an observation with s > 2 drops A instead and
the next use refactors G anew (Cholesky, then A = W^T W for
W = L^-1); this is the determinant-doubling rule of rarely switching OFUL
(Abbasi-Yadkori, Pal & Szepesvari, 2011) and fires O(d log n) times per arm.
It bounds the drift of the updated inverse. Adding x x^T never lowers a
Cholesky pivot, so an OLS arm that once passed ``PIVOT_TOL`` stays
identifiable and needs no re-check between refactors.

Only a refactor reads G, so ``absorb`` does not form x x^T: it copies x into
a buffer of ``GRAM_ROWS`` rows, and G is summed when it is read (``gram``)
or the buffer is full. The fold adds the buffered outer products to G one at
a time, in absorb order, with ``np.add.accumulate``, so G keeps the bits of
absorbing each x x^T with ``+=``. ``np.add.reduce`` would sum them pairwise
and round differently.
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
    """Mutable accumulator for one arm's regression statistics.

    ``gram`` is the raw sum of outer products; the ridge term
    ``ridge_lambda * I`` is added at refactor time only. ``absorb`` updates
    the statistics and the cached inverse in place. The inverse is kept in
    the (dim, dim) array passed as ``inverse`` (say, a row of an
    (N, dim, dim) stack) or in a fresh one; ``current``, read-only to
    callers, is True while that array holds G^-1.
    """

    __slots__ = ("mode", "ridge_lambda", "dim", "moment", "count", "current",
                 "_gram", "_rows", "_buffered", "_inverse")

    def __init__(self, dim: int, mode: str = OLS, ridge_lambda: float = 0.0,
                 inverse: np.ndarray | None = None) -> None:
        if mode not in (OLS, RIDGE):
            raise ValueError(f"unknown estimator mode {mode!r}")
        if mode == RIDGE and ridge_lambda <= 0:
            raise ValueError("ridge mode requires ridge_lambda > 0")
        self.mode = mode
        self.ridge_lambda = float(ridge_lambda)
        self.dim = int(dim)
        self.moment = np.zeros(self.dim)
        self.count = 0
        self._gram = np.zeros((self.dim, self.dim))
        self._rows = np.empty((GRAM_ROWS, self.dim))  # absorbed, not yet in _gram
        self._buffered = 0
        if inverse is None:
            inverse = np.zeros((self.dim, self.dim))
        elif inverse.shape != (self.dim, self.dim):
            raise ValueError(f"inverse shape {inverse.shape} does not match dim {self.dim}")
        self._inverse = inverse  # G^-1 while current
        self.current = False

    def absorb(self, context: np.ndarray, response: float) -> None:
        """Add one (context, response) pair to the statistics."""
        x = np.asarray(context, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"context shape {x.shape} does not match dim {self.dim}")
        self._rows[self._buffered] = x
        self._buffered += 1
        if self._buffered == GRAM_ROWS:
            self._fold()
        self.moment += float(response) * x
        self.count += 1
        if self.current:
            inv = self._inverse
            u = inv @ x
            s = 1.0 + x.dot(u)
            if s <= REFACTOR_RATIO:
                v = u / math.sqrt(s)
                inv -= v[:, None] * v  # v_i v_j == v_j v_i: stays exactly symmetric
            else:  # also a NaN ratio: the refactor's checks then reject it
                self.current = False

    def _fold(self) -> None:
        """Add the buffered rows' outer products to G in absorb order."""
        rows = self._rows[:self._buffered]
        terms = np.concatenate([self._gram[None], rows[:, :, None] * rows[:, None, :]])
        self._gram[...] = np.add.accumulate(terms, axis=0)[-1]
        self._buffered = 0

    @property
    def gram(self) -> np.ndarray:
        """Sum of x x^T over the absorbed contexts."""
        if self._buffered:
            self._fold()
        return self._gram

    def regularized_gram(self) -> np.ndarray:
        if self.mode == RIDGE:
            return self.gram + self.ridge_lambda * np.eye(self.dim)
        return self.gram

    def inverse(self) -> np.ndarray:
        """A = G^-1 for the (regularized) Gram matrix G, kept current by
        ``absorb``. With none cached, G is factored anew; OLS mode
        then raises SingularMatrixError while the arm is not identifiable.
        The array is the one the state was built on, updated in place."""
        if not self.current:
            low = cholesky_spd(self.regularized_gram())
            w = forward_substitute(low, np.eye(self.dim))
            self._inverse[...] = w.T @ w
            self.current = True
        return self._inverse

    def estimate(self) -> np.ndarray:
        """Point estimate of the arm's attribute vector, clipped to the unit ball.

        OLS mode raises SingularMatrixError while the Gram matrix is rank
        deficient; the caller decides whether to keep exploring or display a
        zero-vector fallback.
        """
        est = self.inverse() @ self.moment
        norm = math.sqrt(est.dot(est))
        return est / norm if norm > 1.0 else est

    def inv_norm(self, context: np.ndarray) -> float:
        """||context|| in the inverse (regularized) Gram metric."""
        x = np.asarray(context, float)
        return math.sqrt(max(float(x.dot(self.inverse() @ x)), 0.0))


def inv_norms(inverses: np.ndarray, context: np.ndarray) -> np.ndarray:
    """||context|| in each of an (N, d, d) stack of inverse Gram metrics, from one product."""
    x = np.asarray(context, float)
    return np.sqrt(np.maximum((inverses @ x) @ x, 0.0))


def confidence_width(inverses: np.ndarray, ridge_lambda: float, context: np.ndarray,
                     delta: float, explore_m: int, t: int) -> np.ndarray:
    """Ellipsoidal confidence widths of all arms at round t, one per inverse.

    width_i = ||context||_{A_i} * (m * sqrt(d * ln((1 + t/lam)/delta)) + sqrt(lam))

    ``inverses`` is the (N, d, d) stack of current A_i = (G_i + lam I)^-1
    of ridge-mode states sharing one lam = ``ridge_lambda`` > 0, as
    ``Policy.current_inverses`` returns it; delta is in (0, 1). Zero context
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
    return inv_norms(inverses, context) * scale


__all__ = [
    "OLS", "RIDGE", "EstimatorState", "confidence_width", "inv_norms",
    "SingularMatrixError", "back_substitute", "cholesky_spd", "forward_substitute",
]
