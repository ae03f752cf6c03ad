"""Run traces, trace accumulation and cross-run aggregation.

A run trace holds one run's rounds as columns, row t - 1 for round t.
Disbursed payment per round is exactly the chosen arm's payment entry; its
cumulative signed sum is the primary payment curve, and the cumulative sum
of absolute disbursements is tracked separately since a payment
perturbation scheme disburses both signs.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .model import RoundRecord
from .policies import PolicyConfig


class MixedConfigError(ValueError):
    """Aggregation was attempted over traces with incompatible shapes."""


@dataclass
class RunTrace:
    """One run's rounds as columns, plus the strategy diagnostics.

    Row i of every column is round t = i + 1: the chosen arm, the payment
    vector offered (n_arms,), the estimates the agent saw (n_arms, dim), the
    context, the budget left after the round (None without a budget; an
    object column, so an integer budget stays an integer), and the chosen
    arm's true mean, regret, disbursed payment and observed reward.
    ``records`` shows the rows as RoundRecord objects.
    """

    policy: PolicyConfig
    arm: np.ndarray
    payments: np.ndarray
    displayed: np.ndarray
    contexts: np.ndarray
    budget: np.ndarray
    true_mean: np.ndarray
    inst_regret: np.ndarray
    paid: np.ndarray
    observed: np.ndarray
    diagnostics: dict = field(default_factory=dict)

    COLUMNS = ("arm", "payments", "displayed", "contexts", "budget",
               "true_mean", "inst_regret", "paid", "observed")

    def __post_init__(self) -> None:
        for name in self.COLUMNS:
            if len(getattr(self, name)) != len(self.arm):
                raise ValueError(f"column {name} has {len(getattr(self, name))} rows, "
                                 f"arm has {len(self.arm)}")

    @classmethod
    def allocate(cls, policy: PolicyConfig, contexts: np.ndarray, n_arms: int) -> RunTrace:
        """A trace with one zeroed row per context, for a run to fill."""
        horizon, dim = contexts.shape
        return cls(policy=policy, arm=np.zeros(horizon, dtype=int),
                   payments=np.zeros((horizon, n_arms)),
                   displayed=np.zeros((horizon, n_arms, dim)), contexts=contexts,
                   budget=np.full(horizon, None, dtype=object),
                   true_mean=np.zeros(horizon), inst_regret=np.zeros(horizon),
                   paid=np.zeros(horizon), observed=np.zeros(horizon))

    @property
    def horizon(self) -> int:
        return len(self.arm)

    @property
    def records(self) -> RoundRecords:
        return RoundRecords(self)


class RoundRecords(Sequence):
    """Read-only view of a trace's rows as RoundRecord objects.

    ``len`` and indexing are O(1); nothing is cached, and each access builds
    a new RoundRecord whose arrays are views of the trace's columns.
    """

    def __init__(self, trace: RunTrace) -> None:
        self._trace = trace

    def __len__(self) -> int:
        return self._trace.horizon

    def __getitem__(self, index):
        rows = range(self._trace.horizon)[index]
        if isinstance(rows, range):
            return [self._record(i) for i in rows]
        return self._record(rows)

    def _record(self, i: int) -> RoundRecord:
        tr = self._trace
        return RoundRecord(
            t=i + 1,
            context=tr.contexts[i],
            payments=tr.payments[i],
            chosen_arm=int(tr.arm[i]),
            displayed_estimates=tr.displayed[i],
            observed_reward=float(tr.observed[i]),
            true_mean_reward=float(tr.true_mean[i]),
            inst_regret=float(tr.inst_regret[i]),
            payment_paid=float(tr.paid[i]),
            budget_remaining=tr.budget[i],
        )


@dataclass
class AccumulatedCurves:
    """Per-round cumulative curves of a single trace."""

    cum_regret: np.ndarray
    cum_payment: np.ndarray        # signed disbursed
    cum_payment_abs: np.ndarray    # sum of |disbursed|
    per_arm_payment: np.ndarray    # (n_arms, T) signed disbursed per chosen arm


def accumulate(trace: RunTrace) -> AccumulatedCurves:
    """Prefix-sum the per-round regret and disbursed payments."""
    horizon = trace.horizon
    per_arm = np.zeros((trace.payments.shape[1], horizon))
    if horizon:
        per_arm[trace.arm, np.arange(horizon)] = trace.paid
        per_arm = np.cumsum(per_arm, axis=1)
    return AccumulatedCurves(
        cum_regret=np.cumsum(trace.inst_regret),
        cum_payment=np.cumsum(trace.paid),
        cum_payment_abs=np.cumsum(np.abs(trace.paid)),
        per_arm_payment=per_arm,
    )


def payment_bound_ratio(total_payment: float, n_arms: int, horizon: int) -> float:
    """|total| normalized by N * sqrt(2 T ln(N T)).

    The denominator is the scale at which cumulative perturbation payments
    are expected to concentrate, so a well-behaved run keeps this ratio O(1).
    Requires N * T > 1 so the log is positive.
    """
    if n_arms * horizon <= 1:
        raise ValueError("need n_arms * horizon > 1")
    return abs(total_payment) / (n_arms * math.sqrt(2 * horizon * math.log(n_arms * horizon)))


@dataclass
class AggregateCurves:
    """Pointwise mean and standard error across runs of one strategy."""

    n_runs: int
    mean_cum_regret: np.ndarray
    stderr_cum_regret: np.ndarray
    mean_cum_payment: np.ndarray
    stderr_cum_payment: np.ndarray
    mean_cum_payment_abs: np.ndarray
    stderr_cum_payment_abs: np.ndarray
    mean_per_arm_payment: np.ndarray  # (n_arms, T)
    runs: list[AccumulatedCurves]     # each run's curves, in the order given


def _mean_stderr(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mean = rows.mean(axis=0)
    if rows.shape[0] > 1:
        stderr = rows.std(axis=0, ddof=1) / math.sqrt(rows.shape[0])
    else:
        stderr = np.zeros_like(mean)
    return mean, stderr


def aggregate(traces: list[RunTrace]) -> AggregateCurves:
    """Mean and standard error curves over runs of a single strategy.

    Raises MixedConfigError when the traces disagree on horizon or strategy
    kind; averaging those would silently produce nonsense.
    """
    if not traces:
        raise MixedConfigError("no traces to aggregate")
    horizon = traces[0].horizon
    kind = traces[0].policy.kind
    for tr in traces[1:]:
        if tr.horizon != horizon:
            raise MixedConfigError(
                f"mixed horizons: {horizon} vs {tr.horizon}"
            )
        if tr.policy.kind != kind:
            raise MixedConfigError(
                f"mixed policy kinds: {kind!r} vs {tr.policy.kind!r}"
            )
    curves = [accumulate(tr) for tr in traces]
    regret = np.vstack([c.cum_regret for c in curves])
    payment = np.vstack([c.cum_payment for c in curves])
    payment_abs = np.vstack([c.cum_payment_abs for c in curves])
    mean_r, se_r = _mean_stderr(regret)
    mean_p, se_p = _mean_stderr(payment)
    mean_a, se_a = _mean_stderr(payment_abs)
    per_arm = np.mean([c.per_arm_payment for c in curves], axis=0)
    return AggregateCurves(
        n_runs=len(traces),
        mean_cum_regret=mean_r,
        stderr_cum_regret=se_r,
        mean_cum_payment=mean_p,
        stderr_cum_payment=se_p,
        mean_cum_payment_abs=mean_a,
        stderr_cum_payment_abs=se_a,
        mean_per_arm_payment=per_arm,
        runs=curves,
    )
