"""Accumulation, bound normalization, and cross-run aggregation."""

import math

import numpy as np
import pytest

from payband.metrics import (
    MixedConfigError,
    RunTrace,
    accumulate,
    aggregate,
    payment_bound_ratio,
)
from payband.model import RoundRecord
from payband.policies import PolicyConfig


CFG = PolicyConfig(kind="no_payments")


def record(t, regret=0.0, payments=(0.0, 0.0), chosen=0, budget=None):
    payments = np.asarray(payments, float)
    return RoundRecord(
        t=t,
        context=np.array([1.0, 0.0]),
        payments=payments,
        chosen_arm=chosen,
        displayed_estimates=np.zeros((len(payments), 2)),
        observed_reward=0.0,
        true_mean_reward=0.0,
        inst_regret=regret,
        payment_paid=float(payments[chosen]),
        budget_remaining=budget,
    )


def trace(records, cfg=CFG):
    """A trace whose row i holds the fields of records[i]. Each record's
    snapshot may differ from the one before only in the row of the arm
    chosen before it, the row that round's absorb rewrote."""
    def column(name, dtype=float):
        return np.array([getattr(r, name) for r in records], dtype=dtype)

    shown = [r.displayed_estimates for r in records]
    arms = column("chosen_arm", int)
    # Row i of the log is round i's chosen row in the next snapshot (the last round's own).
    log = np.array([after[arm] for after, arm in zip(shown[1:] + shown[-1:], arms)])
    return RunTrace(policy=cfg, arm=arms, payments=column("payments"),
                    shown_start=shown[0], shown_log=log,
                    contexts=column("context"), budget=column("budget_remaining", object),
                    true_mean=column("true_mean_reward"), inst_regret=column("inst_regret"),
                    paid=column("payment_paid"), observed=column("observed_reward"))


def test_trace_requires_equal_column_lengths():
    tr = trace([record(1), record(2)])
    assert tr.horizon == 2
    columns = {c: getattr(tr, c) for c in RunTrace.COLUMNS}
    for name in RunTrace.COLUMNS:
        short = dict(columns, **{name: columns[name][:1]})
        with pytest.raises(ValueError, match=name):
            RunTrace(policy=CFG, shown_start=tr.shown_start, **short)
    with pytest.raises(ValueError, match="shown_start"):
        RunTrace(policy=CFG, shown_start=tr.shown_start[:1], **columns)


def test_records_view_rebuilds_each_round_from_the_columns():
    records = [record(t, regret=0.1 * t, payments=(0.5, -0.25 * t), chosen=t % 2, budget=t)
               for t in range(1, 6)]
    tr = trace(records)
    view = tr.records
    assert len(view) == 5
    for got, want in zip(view, records, strict=True):
        for name in ("t", "chosen_arm", "inst_regret", "payment_paid", "budget_remaining",
                     "observed_reward", "true_mean_reward"):
            assert getattr(got, name) == getattr(want, name)
            assert type(getattr(got, name)) is type(getattr(want, name))
        for name in ("payments", "context", "displayed_estimates"):
            assert np.array_equal(getattr(got, name), getattr(want, name))
    assert view[-1].t == 5 and [r.t for r in view[1:3]] == [2, 3]
    assert view[2] is not view[2]  # built on access, never cached
    tr.inst_regret[2] = 9.0
    assert view[2].inst_regret == 9.0
    with pytest.raises(IndexError):
        view[5]
    with pytest.raises(TypeError):
        view[0] = records[0]


def test_regret_prefix_sum():
    tr = trace([record(1, regret=0.5), record(2, regret=0.0), record(3, regret=0.25)])
    curves = accumulate([tr])
    assert np.allclose(curves.cum_regret[0], [0.5, 0.5, 0.75])


def test_payment_curves_track_only_the_chosen_arm():
    tr = trace([
        record(1, payments=(0.4, 9.9), chosen=0),
        record(2, payments=(9.9, -0.3), chosen=1),
        record(3, payments=(0.0, 9.9), chosen=0),
    ])
    curves = accumulate([tr])
    assert np.allclose(curves.cum_payment[0], [0.4, 0.1, 0.1])
    assert np.allclose(curves.cum_payment_abs[0], [0.4, 0.7, 0.7])


def test_per_arm_totals_partition_the_overall_total():
    rng = np.random.default_rng(0)
    records = []
    for t in range(1, 40):
        pays = rng.normal(size=3)
        records.append(record(t, payments=pays, chosen=int(rng.integers(3))))
    curves = accumulate([trace(records)])
    assert np.allclose(curves.per_arm_payment[0].sum(axis=0), curves.cum_payment[0])
    assert curves.per_arm_payment.shape == (1, 3, 39)


def test_all_zero_payments_accumulate_to_zero():
    tr = trace([record(t) for t in range(1, 6)])
    assert np.all(accumulate([tr]).cum_payment[0] == 0.0)


@pytest.mark.parametrize("n_runs", [1, 2, 7])
def test_accumulate_rows_equal_each_run_accumulated_alone(n_runs):
    rng = np.random.default_rng(n_runs)
    n_arms, horizon = 4, 300
    traces = []
    for _ in range(n_runs):
        tr = RunTrace.allocate(CFG, np.zeros((horizon, 2)), n_arms)
        tr.arm[:] = rng.integers(n_arms, size=horizon)
        tr.inst_regret[:] = rng.exponential(size=horizon) * (rng.random(horizon) < 0.7)
        tr.paid[:] = rng.normal(size=horizon) * (rng.random(horizon) < 0.5)  # signed zeros
        traces.append(tr)
    curves = accumulate(traces)
    assert curves.per_arm_payment.shape == (n_runs, n_arms, horizon)

    def bits(a):
        return np.asarray(a, dtype=float).tobytes()

    for r, tr in enumerate(traces):  # the oracle: one run at a time
        per_arm = np.zeros((n_arms, horizon))
        per_arm[tr.arm, np.arange(horizon)] = tr.paid
        assert bits(curves.cum_regret[r]) == bits(np.cumsum(tr.inst_regret))
        assert bits(curves.cum_payment[r]) == bits(np.cumsum(tr.paid))
        assert bits(curves.cum_payment_abs[r]) == bits(np.cumsum(np.abs(tr.paid)))
        assert bits(curves.per_arm_payment[r]) == bits(np.cumsum(per_arm, axis=1))


def test_bound_ratio_normalization_identity():
    total = 8 * math.sqrt(2 * 800 * math.log(8 * 800))
    assert payment_bound_ratio(total, 8, 800) == pytest.approx(1.0)
    assert payment_bound_ratio(0.0, 8, 800) == 0.0
    assert payment_bound_ratio(-total, 8, 800) == pytest.approx(1.0)


def test_bound_ratio_rejects_degenerate_sizes():
    with pytest.raises(ValueError):
        payment_bound_ratio(1.0, 1, 1)


def test_aggregate_single_trace_has_zero_stderr():
    tr = trace([record(1, regret=0.5), record(2, regret=0.5)])
    agg = aggregate([tr])
    assert agg.n_runs == 1
    assert np.allclose(agg.mean_cum_regret, [0.5, 1.0])
    assert np.all(agg.stderr_cum_regret == 0.0)


def test_aggregate_two_traces_means_and_stderr():
    a = trace([record(1, regret=1.0), record(2, regret=1.0)])
    b = trace([record(1, regret=0.0), record(2, regret=0.0)])
    agg = aggregate([a, b])
    assert np.allclose(agg.mean_cum_regret, [0.5, 1.0])
    # sample std with ddof=1 over {0, 1} is 1/sqrt(2); stderr divides by sqrt(2)
    assert np.allclose(agg.stderr_cum_regret, [0.5, 1.0])


def test_aggregate_is_order_invariant():
    rng = np.random.default_rng(1)
    traces = []
    for _ in range(4):
        traces.append(trace([record(t, regret=float(rng.random())) for t in (1, 2, 3)]))
    fwd = aggregate(traces)
    rev = aggregate(traces[::-1])
    assert np.allclose(fwd.mean_cum_regret, rev.mean_cum_regret)
    assert np.allclose(fwd.stderr_cum_regret, rev.stderr_cum_regret)


def test_aggregate_rejects_mixed_horizons():
    a = trace([record(1)])
    b = trace([record(1), record(2)])
    with pytest.raises(MixedConfigError):
        aggregate([a, b])


def test_aggregate_rejects_mixed_kinds():
    a = trace([record(1)])
    b = trace([record(1)], cfg=PolicyConfig(kind="perturbation_payments"))
    with pytest.raises(MixedConfigError):
        aggregate([a, b])


def test_aggregate_rejects_empty_input():
    with pytest.raises(MixedConfigError):
        aggregate([])


def test_aggregate_rejects_mixed_arm_counts():
    a = trace([record(1, payments=(0.0, 0.0))])
    b = trace([record(1, payments=(0.0, 0.0, 0.0))])
    with pytest.raises(MixedConfigError, match="mixed arm counts: 2 vs 3"):
        aggregate([a, b])
