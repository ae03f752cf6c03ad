"""Run traces, trace accumulation and cross-run aggregation.

Disbursed payment is the chosen arm's payment entry. Its signed and absolute
cumulative sums are kept apart, since perturbation payments take both signs.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field, fields

import numpy as np

from .model import RoundRecord
from .policies import PolicyConfig


class MixedConfigError(ValueError):
    """Aggregation was attempted over traces with incompatible shapes."""


@dataclass
class RunTrace:
    """One run's rounds as columns, plus the strategy diagnostics.

    Row i of every column is round t = i + 1: the chosen arm, the payments
    offered (n_arms,), ``shown_log`` (dim,), the chosen arm's displayed row
    after the round's absorb, the context, the budget left (an object column:
    None without a budget, an integer budget stays an integer), and the chosen
    arm's true mean, regret, disbursed payment and observed reward. With
    ``shown_start``, the display as the run starts, they fix every round's
    snapshot, which ``records`` and ``snapshots`` rebuild (README "Run engine").
    """

    policy: PolicyConfig
    arm: np.ndarray
    payments: np.ndarray
    shown_start: np.ndarray
    shown_log: np.ndarray
    contexts: np.ndarray
    budget: np.ndarray
    true_mean: np.ndarray
    inst_regret: np.ndarray
    paid: np.ndarray
    observed: np.ndarray
    diagnostics: dict = field(default_factory=dict)

    COLUMNS = ("arm", "payments", "shown_log", "contexts", "budget",
               "true_mean", "inst_regret", "paid", "observed")

    def __post_init__(self) -> None:
        for name in self.COLUMNS:
            if len(getattr(self, name)) != len(self.arm):
                raise ValueError(f"column {name} has {len(getattr(self, name))} rows, "
                                 f"arm has {len(self.arm)}")
        shape = (self.payments.shape[1], self.shown_log.shape[1])
        if self.shown_start.shape != shape:
            raise ValueError(f"shown_start has shape {self.shown_start.shape}, "
                             f"not (n_arms, dim) {shape}")

    @classmethod
    def allocate(cls, policy: PolicyConfig, contexts: np.ndarray, n_arms: int) -> RunTrace:
        """A trace with one zeroed row per context, for a run to fill; its
        ``shown_start`` is zero, a fresh bank's display."""
        horizon, dim = contexts.shape
        return cls(policy=policy, arm=np.zeros(horizon, dtype=int),
                   payments=np.zeros((horizon, n_arms)),
                   shown_start=np.zeros((n_arms, dim)), shown_log=np.zeros((horizon, dim)),
                   contexts=contexts, budget=np.full(horizon, None, dtype=object),
                   true_mean=np.zeros(horizon), inst_regret=np.zeros(horizon),
                   paid=np.zeros(horizon), observed=np.zeros(horizon))

    @property
    def horizon(self) -> int:
        return len(self.arm)

    @property
    def records(self) -> RoundRecords:
        return RoundRecords(self)

    def snapshots(self, rows: Sequence[int] | None = None) -> np.ndarray:
        """The (len(rows), n_arms, dim) snapshots of the given rows, all rows
        by default, rebuilt bit for bit in one pass over the rounds up to the
        last row asked for."""
        rows = np.arange(self.horizon) if rows is None else np.asarray(rows, dtype=np.intp)
        stop = int(rows.max()) + 1 if rows.size else 0
        n_arms = len(self.shown_start)
        arms = np.arange(n_arms)
        # last[i, a]: the last row before row i that chose arm a, or -1.
        last = np.full((stop + 1, n_arms), -1)
        last[1:] = np.where(self.arm[:stop, None] == arms, np.arange(stop)[:, None], -1)
        last = np.maximum.accumulate(last, axis=0)[rows]
        out = np.empty(last.shape + self.shown_start.shape[1:])
        out[...] = self.shown_start
        logged = last >= 0
        out[logged] = self.shown_log[last[logged]]
        return out


class RoundRecords(Sequence):
    """Read-only view of a trace's rows as RoundRecord objects.

    ``len`` is O(1); nothing is cached, and each access builds new records
    whose arrays are views of the trace's columns and of one ``snapshots``
    pass over the rows asked for (README "Run engine").
    """

    def __init__(self, trace: RunTrace) -> None:
        self._trace = trace

    def __len__(self) -> int:
        return self._trace.horizon

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self._records(index))
        row = range(self._trace.horizon)[index]
        return next(self._records(slice(row, row + 1)))

    def __iter__(self):
        return self._records(slice(None))

    def _records(self, rows: slice) -> Iterator[RoundRecord]:
        # A column at a time, each named by its RoundRecord field.
        tr = self._trace
        idx = np.arange(tr.horizon)[rows]
        columns = {
            "t": (idx + 1).tolist(),
            "context": tr.contexts[rows],
            "payments": tr.payments[rows],
            "chosen_arm": tr.arm[rows].tolist(),
            "displayed_estimates": tr.snapshots(idx),
            "observed_reward": tr.observed[rows].tolist(),
            "true_mean_reward": tr.true_mean[rows].tolist(),
            "inst_regret": tr.inst_regret[rows].tolist(),
            "payment_paid": tr.paid[rows].tolist(),
            "budget_remaining": tr.budget[rows],
        }
        return map(RoundRecord, *(columns[f.name] for f in fields(RoundRecord)))


@dataclass
class AccumulatedCurves:
    """Per-round cumulative curves of a strategy's runs, row r for run r."""

    cum_regret: np.ndarray         # (runs, T)
    cum_payment: np.ndarray        # (runs, T) signed disbursed
    cum_payment_abs: np.ndarray    # (runs, T) sum of |disbursed|
    per_arm_payment: np.ndarray    # (runs, n_arms, T) signed disbursed per chosen arm


def accumulate(traces: Sequence[RunTrace]) -> AccumulatedCurves:
    """Prefix-sum each run's per-round regret and disbursed payments; the runs
    share a horizon and an arm count. ``np.cumsum`` along a row adds its cells
    in order, so row r has the bits of summing run r alone."""
    paid = np.array([tr.paid for tr in traces])
    n_runs, horizon = paid.shape
    per_arm = np.zeros((n_runs, traces[0].payments.shape[1], horizon))
    per_arm[np.arange(n_runs)[:, None], [tr.arm for tr in traces], np.arange(horizon)] = paid
    return AccumulatedCurves(
        cum_regret=np.cumsum([tr.inst_regret for tr in traces], axis=1),
        cum_payment=np.cumsum(paid, axis=1),
        cum_payment_abs=np.cumsum(np.abs(paid), axis=1),
        per_arm_payment=np.cumsum(per_arm, axis=2),
    )


def payment_bound_ratio(total_payment: float, n_arms: int, horizon: int) -> float:
    """|total| normalized by N * sqrt(2 T ln(N T)), the scale at which
    cumulative perturbation payments are expected to concentrate, so a
    well-behaved run keeps it O(1). Requires N * T > 1 so the log is positive."""
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
    runs: AccumulatedCurves           # each run's curves, row r for run r


def _mean_stderr(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mean = rows.mean(axis=0)
    if rows.shape[0] > 1:
        stderr = rows.std(axis=0, ddof=1) / math.sqrt(rows.shape[0])
    else:
        stderr = np.zeros_like(mean)
    return mean, stderr


def aggregate(traces: list[RunTrace]) -> AggregateCurves:
    """Mean and standard error curves over runs of a single strategy.

    Raises MixedConfigError when the traces disagree on horizon, arm count
    or strategy kind; averaging those would silently produce nonsense.
    """
    if not traces:
        raise MixedConfigError("no traces to aggregate")
    horizon = traces[0].horizon
    n_arms = traces[0].payments.shape[1]
    kind = traces[0].policy.kind
    for tr in traces[1:]:
        if tr.horizon != horizon:
            raise MixedConfigError(
                f"mixed horizons: {horizon} vs {tr.horizon}"
            )
        if tr.payments.shape[1] != n_arms:
            raise MixedConfigError(f"mixed arm counts: {n_arms} vs {tr.payments.shape[1]}")
        if tr.policy.kind != kind:
            raise MixedConfigError(
                f"mixed policy kinds: {kind!r} vs {tr.policy.kind!r}"
            )
    runs = accumulate(traces)
    mean_r, se_r = _mean_stderr(runs.cum_regret)
    mean_p, se_p = _mean_stderr(runs.cum_payment)
    mean_a, se_a = _mean_stderr(runs.cum_payment_abs)
    return AggregateCurves(
        n_runs=len(traces),
        mean_cum_regret=mean_r,
        stderr_cum_regret=se_r,
        mean_cum_payment=mean_p,
        stderr_cum_payment=se_p,
        mean_cum_payment_abs=mean_a,
        stderr_cum_payment_abs=se_a,
        mean_per_arm_payment=runs.per_arm_payment.mean(axis=0),
        runs=runs,
    )
