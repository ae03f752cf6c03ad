"""Per-arm linear attribute estimation.

Each arm keeps sufficient statistics (Gram matrix, moment vector, count) of
the observation pairs it has absorbed. Point estimates come from ordinary
least squares or ridge regression on those statistics; estimates whose norm
exceeds 1 are scaled back onto the unit ball because the true attribute
vectors live there. Ridge states also provide ellipsoidal confidence widths
used by the chained payment strategies.

A state caches A = G^-1 for its (regularized) Gram matrix G: the estimate is
A moment, ||x|| in the G^-1 metric is sqrt(x^T A x), and the widths of all N
arms are one (N, d, d) @ x product. ``absorb`` keeps A current with the
Sherman-Morrison update A -= v v^T, v = A x / sqrt(s), s = 1 + x^T A x.
Because s = det G' / det G, an observation with s > 2 drops A instead and
the next use refactors G anew (Cholesky, then A = W^T W for
W = L^-1); this is the determinant-doubling rule of rarely switching OFUL
(Abbasi-Yadkori, Pal & Szepesvari, 2011) and fires O(d log n) times per arm.
It bounds the drift of the updated inverse. Adding x x^T never lowers a
Cholesky pivot, so an OLS arm that once passed ``PIVOT_TOL`` stays
identifiable and needs no re-check between refactors.
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


class EstimatorState:
    """Mutable accumulator for one arm's regression statistics.

    ``gram`` always stores the raw sum of outer products; the ridge term
    ``ridge_lambda * I`` is added at refactor time only. ``absorb`` updates
    the statistics and the cached inverse in place.
    """

    __slots__ = ("mode", "ridge_lambda", "dim", "gram", "moment", "count", "_inverse")

    def __init__(self, dim: int, mode: str = OLS, ridge_lambda: float = 0.0) -> None:
        if mode not in (OLS, RIDGE):
            raise ValueError(f"unknown estimator mode {mode!r}")
        if mode == RIDGE and ridge_lambda <= 0:
            raise ValueError("ridge mode requires ridge_lambda > 0")
        self.mode = mode
        self.ridge_lambda = float(ridge_lambda)
        self.dim = int(dim)
        self.gram = np.zeros((self.dim, self.dim))
        self.moment = np.zeros(self.dim)
        self.count = 0
        self._inverse = None

    def absorb(self, context: np.ndarray, response: float) -> None:
        """Add one (context, response) pair to the statistics."""
        x = np.asarray(context, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"context shape {x.shape} does not match dim {self.dim}")
        self.gram += x[:, None] * x
        self.moment += float(response) * x
        self.count += 1
        inv = self._inverse
        if inv is not None:
            u = inv @ x
            s = 1.0 + x.dot(u)
            if s <= REFACTOR_RATIO:
                v = u / math.sqrt(s)
                inv -= v[:, None] * v  # v_i v_j == v_j v_i: stays exactly symmetric
            else:  # also a NaN ratio: the refactor's checks then reject it
                self._inverse = None

    def regularized_gram(self) -> np.ndarray:
        if self.mode == RIDGE:
            return self.gram + self.ridge_lambda * np.eye(self.dim)
        return self.gram

    def inverse(self) -> np.ndarray:
        """A = G^-1 for the (regularized) Gram matrix G, kept current by
        ``absorb``. With none cached, G is factored anew; OLS mode
        then raises SingularMatrixError while the arm is not identifiable."""
        if self._inverse is None:
            low = cholesky_spd(self.regularized_gram())
            w = forward_substitute(low, np.eye(self.dim))
            self._inverse = w.T @ w
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


def inv_norms(states: list[EstimatorState], context: np.ndarray) -> np.ndarray:
    """||context|| in each state's inverse Gram metric, from one (N, d, d) @ x product."""
    x = np.asarray(context, float)
    inv = np.array([state.inverse() for state in states])
    return np.sqrt(np.maximum((inv @ x) @ x, 0.0))


def confidence_width(states: list[EstimatorState], context: np.ndarray, delta: float,
                     explore_m: int, t: int) -> np.ndarray:
    """Ellipsoidal confidence widths of all arms at round t, one per state.

    width_i = ||context||_{(G_i + lam I)^-1} * (m * sqrt(d * ln((1 + t/lam)/delta)) + sqrt(lam))

    Requires ridge-mode states sharing one lam > 0, and delta in (0, 1).
    Zero context gives width 0; more data never increases an arm's width for
    a fixed context.
    """
    lam = states[0].ridge_lambda
    if any(state.mode != RIDGE or state.ridge_lambda != lam for state in states):
        raise ValueError("confidence widths require ridge-mode estimators sharing one lambda")
    if not (0 < delta < 1):
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    scale = explore_m * math.sqrt(states[0].dim * math.log((1 + t / lam) / delta)) + math.sqrt(lam)
    return inv_norms(states, context) * scale


__all__ = [
    "OLS", "RIDGE", "EstimatorState", "confidence_width", "inv_norms",
    "SingularMatrixError", "back_substitute", "cholesky_spd", "forward_substitute",
]
