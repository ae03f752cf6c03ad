"""Core domain types for the platform / agent interaction loop.

The platform displays one estimated attribute vector per arm plus a payment
vector; a myopic agent then picks the arm maximizing perceived utility
(estimated mean reward plus payment). Ground-truth attributes stay on the
environment side and are never handed to a payment strategy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

# Absolute dead band for utility comparisons in agent_choose. Utilities within
# this of the maximum count as tied, so a payment equal to the exact estimated
# gap reliably moves the choice even when float rounding perturbs the sum by
# an ulp.
TIE_TOLERANCE = 1e-12

MAX_DIM = 64


def unit_ball_projection(v: np.ndarray) -> np.ndarray:
    """Scale v down to unit Euclidean norm when it exceeds the unit ball."""
    v = np.asarray(v, dtype=float)
    norm = float(np.linalg.norm(v))
    if norm > 1.0:
        return v / norm
    return v


def agent_choose(estimates: np.ndarray, context: np.ndarray, payments: np.ndarray) -> int:
    """Myopic agent's pick: argmax over arms of context . estimate + payment.

    Ties (within TIE_TOLERANCE) break toward the arm with the larger payment,
    then toward the lowest arm index. Adding a constant to every payment entry
    does not change the outcome.
    """
    est = np.asarray(estimates, dtype=float)
    pay = np.asarray(payments, dtype=float)
    utilities = est @ np.asarray(context, dtype=float) + pay
    top = float(utilities.max())
    tied = np.flatnonzero(utilities >= top - TIE_TOLERANCE)
    if tied.size == 1:
        return int(tied[0])
    # argmax returns the first maximum, so equal payments fall back to the
    # lowest index among the tied arms.
    return int(tied[np.argmax(pay[tied])])


def inst_regret(true_attrs: np.ndarray, context: np.ndarray, chosen: int) -> float:
    """One-round regret: best true mean reward minus the chosen arm's."""
    means = np.asarray(true_attrs, dtype=float) @ np.asarray(context, dtype=float)
    return float(means.max() - means[chosen])


@dataclass(frozen=True)
class InstanceSpec:
    """A bandit problem instance.

    ``true_attrs`` is an (n_arms, dim) array for linear reward instances and
    None for dataset-replay instances, where rewards come from class labels
    instead of a linear model.
    """

    n_arms: int
    dim: int
    horizon: int
    true_attrs: Optional[np.ndarray]
    noise_std: float
    context_source: Any
    init_explore_m: int
    master_seed: int

    def __post_init__(self) -> None:
        if self.n_arms < 2:
            raise ValueError(f"n_arms must be >= 2, got {self.n_arms}")
        if not (1 <= self.dim <= MAX_DIM):
            raise ValueError(f"dim must be in [1, {MAX_DIM}], got {self.dim}")
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        if not math.isfinite(self.noise_std) or self.noise_std < 0:
            raise ValueError(f"noise_std must be finite and >= 0, got {self.noise_std}")
        if not (0 <= self.init_explore_m <= self.horizon):
            raise ValueError(
                f"init_explore_m must be in [0, horizon], got {self.init_explore_m}"
            )
        if self.true_attrs is not None:
            attrs = np.asarray(self.true_attrs, dtype=float)
            if attrs.shape != (self.n_arms, self.dim):
                raise ValueError(
                    f"true_attrs shape {attrs.shape} does not match "
                    f"({self.n_arms}, {self.dim})"
                )
            if not np.all(np.isfinite(attrs)):
                raise ValueError("true_attrs must be finite")
            norms = np.linalg.norm(attrs, axis=1)
            if np.any(norms > 1.0 + 1e-9):
                bad = int(np.argmax(norms))
                raise ValueError(
                    f"true_attrs[{bad}] has norm {norms[bad]:.6f} > 1"
                )
            object.__setattr__(self, "true_attrs", attrs)


@dataclass
class RoundRecord:
    """Full log of one interaction round.

    ``displayed_estimates`` is the (n_arms, dim) snapshot the agent saw, so
    the choice can be replayed offline. ``payment_paid`` is exactly the
    chosen arm's payment entry.
    """

    t: int
    context: np.ndarray
    payments: np.ndarray
    chosen_arm: int
    displayed_estimates: np.ndarray
    observed_reward: float
    true_mean_reward: float
    inst_regret: float
    payment_paid: float
    budget_remaining: Optional[float] = None
