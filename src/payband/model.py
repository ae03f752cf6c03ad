"""Core domain types for the platform / agent interaction loop.

The platform displays one estimated attribute vector per arm plus a payment
vector; a myopic agent then picks the arm maximizing perceived utility
(estimated mean reward plus payment). Ground-truth attributes stay on the
environment side and are never handed to a payment strategy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

# Absolute dead band for utility comparisons in agent_choose. Utilities within
# this of the maximum count as tied, so a payment equal to the exact estimated
# gap reliably moves the choice even when float rounding perturbs the sum by
# an ulp.
TIE_TOLERANCE = 1e-12

MAX_DIM = 64

# Most float64 cells (2 GiB) the runs of one strategy may hold, each counting
# harness.run_cells; it keeps the horizon below 2**26, where round indices are exact.
MAX_CELLS = 2 ** 28

# Largest magnitude accepted for a config value that scales contexts, rewards
# or payments: runs square and sum these, and from about 1e154 a square overflows.
MAX_MAGNITUDE = 1e100


def unit_ball_rows(rows: np.ndarray) -> np.ndarray:
    """Each row of an (n, d) array scaled down to unit Euclidean norm when it
    exceeds the unit ball, as a new array, with the bits of projecting one
    row at a time, ``v / np.linalg.norm(v)`` (README "Run engine")."""
    rows = np.array(rows, dtype=float)
    norms = np.sqrt((rows[:, None, :] @ rows[:, :, None])[:, 0, 0])
    over = norms > 1.0
    rows[over] /= norms[over, None]
    return rows


def most_that_fit(cells: Callable[[int], int]) -> int:
    """The largest x with ``cells(x) <= MAX_CELLS`` for ``cells`` affine in x, such
    as a run's cells in its horizon; negative when not even x = 0 fits."""
    return (MAX_CELLS - cells(0)) // (cells(1) - cells(0))


def agent_choose(estimates: np.ndarray, context: np.ndarray, payments: np.ndarray) -> int:
    """Myopic agent's pick: argmax over arms of context . estimate + payment.

    Ties (within TIE_TOLERANCE) break toward the arm with the larger payment,
    then toward the lowest arm index. Adding a constant to every payment entry
    does not change the outcome. All three arguments are float arrays.
    """
    perceived = estimates.dot(context)
    perceived += payments
    return agent_pick(perceived, payments)


def agent_pick(perceived: np.ndarray, payments: np.ndarray) -> int:
    """``agent_choose`` from the perceived utilities, each arm's context .
    estimate + payment, for a caller that has the estimated utilities already."""
    utilities = perceived.tolist()
    floor = max(utilities) - TIE_TOLERANCE
    tied = [i for i, u in enumerate(utilities) if u >= floor]
    if len(tied) == 1:
        return tied[0]
    # max returns the first maximum, so equal payments fall back to the
    # lowest index among the tied arms.
    return max(tied, key=payments.tolist().__getitem__)


class ConfigError(ValueError):
    """A config finding: a value breaks a rule of the object it configures.

    Carries the field, the rule, the value and the severity. A config class
    raises it with the field relative to itself; the config loader reports
    it with the field's full path. Errors block a run; warnings do not.
    """

    def __init__(self, field: str, constraint: str, actual, severity: str = "error") -> None:
        super().__init__(field, constraint, actual, severity)
        self.field = field
        self.constraint = constraint
        self.actual = actual
        self.severity = severity

    def __str__(self) -> str:
        return f"[{self.severity}] {self.field}: {self.constraint} (got {self.actual!r})"


@dataclass(frozen=True)
class InstanceSpec:
    """A bandit problem instance.

    ``true_attrs`` is an (n_arms, dim) array for linear reward instances and
    None for dataset-replay instances, where rewards come from class labels
    instead of a linear model. The constructor checks every rule that ties
    the context source to the instance: context length, fixed-sequence
    length, and dataset dimension, class count and row count.
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
        # environment and harness import this module, so their names load late.
        from .environment import DatasetReplaySpec, FixedSequenceSpec
        from .harness import run_cells
        from .policies import CHEAPEST_KIND

        if self.n_arms < 2:
            raise ConfigError("n_arms", "integer >= 2", self.n_arms)
        if not (1 <= self.dim <= MAX_DIM):
            raise ConfigError("dim", f"integer in [1, {MAX_DIM}]", self.dim)
        if self.horizon < 1:
            raise ConfigError("horizon", "integer >= 1", self.horizon)
        longest = most_that_fit(lambda h: run_cells(CHEAPEST_KIND, self.n_arms, self.dim, h))
        if self.horizon > longest:
            raise ConfigError("horizon", f"<= {max(0, longest)} at n_arms {self.n_arms} and dim "
                              f"{self.dim}, so a run holds at most 2**28 float64 cells",
                              self.horizon)
        if self.master_seed < 0:
            raise ConfigError("master_seed", "integer >= 0", self.master_seed)
        object.__setattr__(self, "noise_std", float(self.noise_std))
        if not 0 <= self.noise_std <= MAX_MAGNITUDE:
            raise ConfigError("noise_std", f"number in [0, {MAX_MAGNITUDE:g}]", self.noise_std)
        self.check_explore_m("init_explore_m", self.init_explore_m)

        source = self.context_source
        if isinstance(source, DatasetReplaySpec):
            rows = len(source.dataset)
            if source.dataset.dim != self.dim:
                raise ConfigError("context_source.path",
                                  f"feature dimension == dim ({self.dim})",
                                  source.dataset.dim)
            if source.dataset.n_classes != self.n_arms:
                raise ConfigError("n_arms", f"== dataset classes ({source.dataset.n_classes}), "
                                  "one arm per class", self.n_arms)
            if rows < self.horizon and not source.sample_with_replacement:
                raise ConfigError("horizon",
                                  f"<= dataset rows ({rows}) unless sample_with_replacement",
                                  self.horizon)
        else:
            if self.true_attrs is None:
                raise ConfigError("true_attrs",
                                  "required unless context_source is dataset_replay", None)
            fixed = isinstance(source, FixedSequenceSpec)
            if source.dim != self.dim:
                raise ConfigError("context_source." + ("contexts" if fixed else "mean"),
                                  f"vectors of length dim ({self.dim})", source.dim)
            if fixed and not source.cycle and len(source.contexts) < self.horizon:
                raise ConfigError("context_source.contexts",
                                  f"length >= horizon ({self.horizon}) unless cycle is true",
                                  len(source.contexts))

        if self.true_attrs is not None:
            if len(self.true_attrs) != self.n_arms:
                raise ConfigError("true_attrs", f"list of n_arms ({self.n_arms}) vectors",
                                  len(self.true_attrs))
            for i, row in enumerate(self.true_attrs):
                if np.shape(row) != (self.dim,) or not np.all(np.isfinite(row)):
                    raise ConfigError(f"true_attrs[{i}]",
                                      f"vector of dim ({self.dim}) finite numbers", row)
            attrs = np.asarray(self.true_attrs, dtype=float)
            norms = np.linalg.norm(attrs, axis=1)
            if np.any(norms > 1.0 + 1e-9):
                bad = int(np.argmax(norms))
                raise ConfigError(f"true_attrs[{bad}]", "Euclidean norm <= 1",
                                  round(float(norms[bad]), 6))
            object.__setattr__(self, "true_attrs", attrs)

    def check_explore_m(self, field: str, m: int) -> None:
        """Rounds of mandated round-robin exploration, for the instance or a
        policy that overrides it: at most the horizon."""
        if not (0 <= m <= self.horizon):
            raise ConfigError(field, f"integer in [0, horizon ({self.horizon})]", m)


@dataclass
class RoundRecord:
    """Full log of one interaction round, as ``RunTrace.records`` builds it.

    ``displayed_estimates`` is the (n_arms, dim) snapshot the agent saw, so
    the choice can be replayed offline (README "Run engine"). ``payment_paid``
    is exactly the chosen arm's payment entry.
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
