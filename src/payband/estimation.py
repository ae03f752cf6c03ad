"""Per-arm linear attribute estimation.

Each arm keeps sufficient statistics (Gram matrix, moment vector, count) of
the observation pairs it has absorbed. Point estimates come from ordinary
least squares or ridge regression on those statistics; estimates whose norm
exceeds 1 are scaled back onto the unit ball because the true attribute
vectors live there. Ridge states also provide ellipsoidal confidence widths
used by the chained payment strategies.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import (
    SingularMatrixError,
    cholesky_spd,
    forward_substitute,
    back_substitute,
)

OLS = "ols"
RIDGE = "ridge"


class EstimatorState:
    """Mutable accumulator for one arm's regression statistics.

    ``gram`` always stores the raw sum of outer products; the ridge term
    ``ridge_lambda * I`` is added at solve time only. ``absorb`` updates the
    statistics in place and drops the cached factor and estimate.
    """

    __slots__ = ("mode", "ridge_lambda", "dim", "gram", "moment", "count",
                 "_estimate", "_chol")

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
        self._chol = None

    def absorb(self, context: np.ndarray, response: float) -> None:
        """Add one (context, response) pair to the statistics."""
        x = np.asarray(context, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"context shape {x.shape} does not match dim {self.dim}")
        self.gram += np.outer(x, x)
        self.moment += float(response) * x
        self.count += 1
        self._estimate = None
        self._chol = None

    def regularized_gram(self) -> np.ndarray:
        if self.mode == RIDGE:
            return self.gram + self.ridge_lambda * np.eye(self.dim)
        return self.gram

    def _factor(self) -> np.ndarray:
        # Cached Cholesky factor of the (regularized) Gram matrix. May raise
        # SingularMatrixError in OLS mode before the arm is identifiable.
        if self._chol is None:
            self._chol = cholesky_spd(self.regularized_gram())
        return self._chol

    def estimate(self) -> np.ndarray:
        """Point estimate of the arm's attribute vector, clipped to the unit ball.

        OLS mode raises SingularMatrixError while the Gram matrix is rank
        deficient; the caller decides whether to keep exploring or display a
        zero-vector fallback.
        """
        if self._estimate is None:
            low = self._factor()
            est = back_substitute(low, forward_substitute(low, self.moment))
            norm = float(np.linalg.norm(est))
            if norm > 1.0:
                est = est / norm
            self._estimate = est
        return self._estimate

    def inv_norm(self, context: np.ndarray) -> float:
        """||context|| in the inverse (regularized) Gram metric."""
        low = self._factor()
        return float(np.linalg.norm(forward_substitute(low, np.asarray(context, float))))


def confidence_width(state: EstimatorState, context: np.ndarray, delta: float,
                     explore_m: int, t: int) -> float:
    """Ellipsoidal confidence width for one arm at round t.

    width = ||context||_{(G + lam I)^-1} * (m * sqrt(d * ln((1 + t/lam)/delta)) + sqrt(lam))

    Requires a ridge-mode state (lam > 0) and delta in (0, 1). Zero context
    gives width 0; more data never increases the width for a fixed context.
    """
    if state.mode != RIDGE:
        raise ValueError("confidence widths require a ridge-mode estimator")
    if not (0 < delta < 1):
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    lam = state.ridge_lambda
    scale = explore_m * math.sqrt(state.dim * math.log((1 + t / lam) / delta)) + math.sqrt(lam)
    return state.inv_norm(context) * scale


__all__ = [
    "OLS",
    "RIDGE",
    "EstimatorState",
    "confidence_width",
    "SingularMatrixError",
]
