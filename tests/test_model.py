"""Agent choice rule, projection, and instance validation."""

import numpy as np
import pytest

from payband.model import (
    ConfigError,
    InstanceSpec,
    agent_choose,
    unit_ball_projection,
)
from payband.environment import (
    BanditDataset,
    DatasetReplaySpec,
    FixedSequenceSpec,
    GaussianContextSpec,
)


SOURCE = FixedSequenceSpec(contexts=(np.array([1.0, 0.0]),), cycle=True)


def test_agent_picks_highest_perceived_utility():
    est = np.array([[0.9, 0.0], [0.2, 0.0], [0.5, 0.0]])
    ctx = np.array([1.0, 0.0])
    assert agent_choose(est, ctx, np.zeros(3)) == 0


def test_payment_flips_the_choice():
    est = np.array([[0.9, 0.0], [0.2, 0.0]])
    ctx = np.array([1.0, 0.0])
    pay = np.array([0.0, 0.8])  # 0.2 + 0.8 > 0.9
    assert agent_choose(est, ctx, pay) == 1


def test_exact_gap_payment_wins_via_tie_preference():
    # Paying exactly the utility gap produces a tie; the tie rule prefers the
    # paid arm, so an exact-gap offer is reliably effective.
    est = np.array([[0.9, 0.0], [0.2, 0.0]])
    ctx = np.array([1.0, 0.0])
    pay = np.array([0.0, 0.7])
    assert agent_choose(est, ctx, pay) == 1


def test_tie_with_equal_payments_takes_lowest_index():
    est = np.array([[0.5, 0.0], [0.5, 0.0], [0.5, 0.0]])
    assert agent_choose(est, np.array([1.0, 0.0]), np.zeros(3)) == 0


def test_choice_invariant_to_constant_payment_shift():
    rng = np.random.default_rng(7)
    for _ in range(100):
        est = rng.normal(size=(4, 3))
        ctx = rng.normal(size=3)
        pay = rng.normal(size=4)
        base = agent_choose(est, ctx, pay)
        assert agent_choose(est, ctx, pay + 5.25) == base
        assert agent_choose(est, ctx, pay - 2.0) == base


def test_negative_payment_can_deter():
    est = np.array([[0.5, 0.0], [0.4, 0.0]])
    ctx = np.array([1.0, 0.0])
    assert agent_choose(est, ctx, np.array([-0.2, 0.0])) == 1


def test_projection_shrinks_only_outside_ball():
    v = np.array([3.0, 4.0])
    p = unit_ball_projection(v)
    assert np.linalg.norm(p) == pytest.approx(1.0)
    assert np.allclose(p, v / 5.0)
    inside = np.array([0.3, -0.1])
    assert np.array_equal(unit_ball_projection(inside), inside)
    assert np.array_equal(unit_ball_projection(np.zeros(2)), np.zeros(2))


def test_instance_rejects_single_arm():
    with pytest.raises(ValueError):
        InstanceSpec(1, 2, 10, np.zeros((1, 2)), 0.0, SOURCE, 0, 0)


def test_instance_rejects_attr_norm_above_one():
    attrs = np.array([[1.2, 0.0], [0.1, 0.0]])
    with pytest.raises(ValueError, match="norm"):
        InstanceSpec(2, 2, 10, attrs, 0.0, SOURCE, 0, 0)


def test_instance_rejects_non_finite_noise():
    for noise in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="noise_std"):
            InstanceSpec(2, 2, 10, np.zeros((2, 2)), noise, SOURCE, 0, 0)


def test_instance_rejects_m_exceeding_horizon():
    attrs = np.zeros((2, 2))
    with pytest.raises(ValueError):
        InstanceSpec(2, 2, 10, attrs, 0.0, SOURCE, 11, 0)


def test_instance_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        InstanceSpec(2, 3, 10, np.zeros((2, 2)), 0.0, SOURCE, 0, 0)


def test_instance_allows_none_attrs_for_replay_style_instances():
    spec = InstanceSpec(2, 2, 10, None, 0.0, SOURCE, 0, 0)
    assert spec.true_attrs is None


def test_instance_checks_its_context_source():
    def field_of(source, horizon=10):
        with pytest.raises(ConfigError) as exc:
            InstanceSpec(2, 2, horizon, None, 0.0, source, 0, 0)
        return exc.value.field

    short = FixedSequenceSpec(contexts=(np.array([1.0, 0.0]),) * 3)
    assert field_of(short) == "context_source.contexts"
    InstanceSpec(2, 2, 3, None, 0.0, short, 0, 0)
    assert field_of(GaussianContextSpec(mean=np.zeros(3), std=1.0)) == "context_source.mean"
    rows = BanditDataset(np.zeros((4, 2)), np.array([0, 1, 0, 1]), n_classes=2)
    assert field_of(DatasetReplaySpec(rows)) == "horizon"
    InstanceSpec(2, 2, 10, None, 0.0, DatasetReplaySpec(rows, sample_with_replacement=True), 0, 0)
    wide = BanditDataset(np.zeros((40, 3)), np.zeros(40, dtype=int), n_classes=2)
    assert field_of(DatasetReplaySpec(wide)) == "context_source.path"
