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
    after the round's absorb, the context, the budget left (``math.inf`` for
    a strategy configured without one), and the chosen arm's true mean,
    regret, disbursed payment and observed reward; every column is numeric. With
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
                   contexts=contexts, budget=np.zeros(horizon),
                   true_mean=np.zeros(horizon), inst_regret=np.zeros(horizon),
                   paid=np.zeros(horizon), observed=np.zeros(horizon))

    @staticmethod
    def cells(n_arms: int, dim: int, horizon: int) -> int:
        """The float64 cells ``allocate`` makes; the contexts are the environment's."""
        return horizon * (n_arms + dim + 6) + n_arms * dim

    @property
    def horizon(self) -> int:
        return len(self.arm)

    @property
    def records(self) -> RoundRecords:
        return RoundRecords(self)

    def snapshots(self, rows: Sequence[int] | None = None) -> np.ndarray:
        """The (len(rows), n_arms, dim) snapshots of the given rows, all by default,
        rebuilt bit for bit one arm at a time (README "Run engine"). A negative
        row counts from the end; a row outside the trace raises IndexError,
        and a row that is not an integer (a float or a bool) TypeError."""
        asked = np.asarray(range(self.horizon) if rows is None else rows)
        if asked.size and asked.dtype.kind not in "iu":
            raise TypeError(f"rows must be integers, not {asked.dtype}")
        rows = np.arange(self.horizon)[asked.astype(np.intp, copy=False)]
        out = np.empty((len(rows),) + self.shown_start.shape)
        for a, start in enumerate(self.shown_start):
            chose = np.flatnonzero(self.arm == a)
            before = chose.searchsorted(rows)  # per row asked for: earlier rows that chose a
            if chose.size:
                out[:, a] = self.shown_log[chose[before - 1]]
            out[before == 0, a] = start
        return out


class RoundRecords(Sequence):
    """Read-only view of a trace's rows as RoundRecord objects.

    ``len`` is O(1); nothing is cached, and each access builds new records
    whose arrays are views of the trace's columns and of one ``snapshots``
    pass over the rows asked for (README "Run engine"). An index that is not
    an integer, a bool included, raises TypeError. A strategy configured
    without a budget gives each record a ``budget_remaining`` of None.
    """

    def __init__(self, trace: RunTrace) -> None:
        self._trace = trace

    @staticmethod
    def cells(n_arms: int, dim: int, horizon: int) -> int:
        """The float64 cells a pass over all rows holds at once: the snapshots
        beside one arm's scratch and the int columns, then beside every column."""
        return horizon * (n_arms * dim + max(dim + 18, 26))

    def __len__(self) -> int:
        return self._trace.horizon

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self._records(index))
        if isinstance(index, bool):  # range() would take it as 0 or 1
            raise TypeError("rows must be integers, not bool")
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
            "budget_remaining": ([None] * len(idx) if tr.policy.budget is None
                                 else tr.budget[rows].tolist()),
        }
        return map(RoundRecord, *(columns[f.name] for f in fields(RoundRecord)))


@dataclass
class AccumulatedCurves:
    """Per-round cumulative curves of a strategy's runs, row r for run r."""

    cum_regret: np.ndarray         # (runs, T)
    cum_payment: np.ndarray        # (runs, T) signed disbursed
    cum_payment_abs: np.ndarray    # (runs, T) sum of |disbursed|
    per_arm_payment: np.ndarray    # (runs, n_arms, T) signed disbursed per chosen arm

    @staticmethod
    def cells(n_arms: int, horizon: int) -> int:
        """The float64 cells ``accumulate`` makes per run, scratch included."""
        return horizon * (2 * n_arms + 5)


def accumulate(traces: Sequence[RunTrace]) -> AccumulatedCurves:
    """Prefix-sum each run's per-round regret and disbursed payments, row r with
    the bits of run r summed alone (``np.cumsum`` adds a row in order). No
    traces, or mixed horizons, arm counts or kinds, raise MixedConfigError."""
    if not traces:
        raise MixedConfigError("no traces to aggregate")
    first, n_arms = traces[0], traces[0].payments.shape[1]
    for tr in traces[1:]:
        for what, want, got in (("horizons", first.horizon, tr.horizon),
                                ("arm counts", n_arms, tr.payments.shape[1]),
                                ("policy kinds", repr(first.policy.kind), repr(tr.policy.kind))):
            if got != want:
                raise MixedConfigError(f"mixed {what}: {want} vs {got}")
    paid = np.array([tr.paid for tr in traces])
    n_runs, horizon = paid.shape
    per_arm = np.zeros((n_runs, n_arms, horizon))
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
    """Mean and standard error curves over runs of a single strategy; mixed
    traces raise MixedConfigError (``accumulate``)."""
    runs = accumulate(traces)  # each curve's mean and stderr, in the fields' order
    return AggregateCurves(len(traces), *_mean_stderr(runs.cum_regret),
                           *_mean_stderr(runs.cum_payment), *_mean_stderr(runs.cum_payment_abs),
                           runs.per_arm_payment.mean(axis=0), runs)
