"""Per-arm linear attribute estimation.

Each arm keeps sufficient statistics (Gram matrix, moment vector, count) of
the observation pairs it has absorbed. Point estimates come from ordinary
least squares or ridge regression on those statistics; estimates whose norm
exceeds 1 are scaled back onto the unit ball because the true attribute
vectors live there. Ridge states also provide ellipsoidal confidence widths
used by the chained payment strategies.

A state factors its Gram matrix G = L L^T at most once per absorb, keeps W = L^-1,
so G^-1 = W^T W: the estimate is W^T (W moment), ||x|| in the G^-1 metric is
||W x||, and the widths of all N arms are one (N, d, d) @ x product.
"""

from __future__ import annotations

import math

import numpy as np

# The factor and solve kernels are re-exported (see __all__) next to their caller.
from .linalg import SingularMatrixError, back_substitute, cholesky_spd, forward_substitute

OLS = "ols"
RIDGE = "ridge"


class EstimatorState:
    """Mutable accumulator for one arm's regression statistics.

    ``gram`` always stores the raw sum of outer products; the ridge term
    ``ridge_lambda * I`` is added at solve time only. ``absorb`` updates the
    statistics in place and drops the cached inverse factor and estimate.
    """

    __slots__ = ("mode", "ridge_lambda", "dim", "gram", "moment", "count",
                 "_estimate", "_inv_factor")

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
        self._estimate = None
        self._inv_factor = None

    def absorb(self, context: np.ndarray, response: float) -> None:
        """Add one (context, response) pair to the statistics."""
        x = np.asarray(context, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"context shape {x.shape} does not match dim {self.dim}")
        self.gram += np.outer(x, x)
        self.moment += float(response) * x
        self.count += 1
        self._estimate = None
        self._inv_factor = None

    def regularized_gram(self) -> np.ndarray:
        if self.mode == RIDGE:
            return self.gram + self.ridge_lambda * np.eye(self.dim)
        return self.gram

    def inv_factor(self) -> np.ndarray:
        """W = L^-1 for the Cholesky factor L of the (regularized) Gram matrix,
        cached until the next absorb. OLS mode raises SingularMatrixError
        while the arm is not identifiable."""
        if self._inv_factor is None:
            low = cholesky_spd(self.regularized_gram())
            self._inv_factor = forward_substitute(low, np.eye(self.dim))
        return self._inv_factor

    def estimate(self) -> np.ndarray:
        """Point estimate of the arm's attribute vector, clipped to the unit ball.

        OLS mode raises SingularMatrixError while the Gram matrix is rank
        deficient; the caller decides whether to keep exploring or display a
        zero-vector fallback.
        """
        if self._estimate is None:
            w = self.inv_factor()
            est = w.T @ (w @ self.moment)
            norm = math.sqrt(est.dot(est))
            if norm > 1.0:
                est = est / norm
            self._estimate = est
        return self._estimate

    def inv_norm(self, context: np.ndarray) -> float:
        """||context|| in the inverse (regularized) Gram metric."""
        return float(np.linalg.norm(self.inv_factor() @ np.asarray(context, float)))


def inv_norms(states: list[EstimatorState], context: np.ndarray) -> np.ndarray:
    """||context|| in each state's inverse Gram metric, from one (N, d, d) @ x product."""
    w = np.array([state.inv_factor() for state in states])
    return np.linalg.norm(w @ np.asarray(context, float), axis=1)


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
