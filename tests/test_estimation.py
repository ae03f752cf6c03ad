"""Per-arm estimator state: OLS/ridge solves, clipping, confidence widths."""

import math

import numpy as np
import pytest

from payband.estimation import OLS, RIDGE, EstimatorState, confidence_width
from payband.linalg import SingularMatrixError


def normal_equation_oracle(contexts, responses, lam=0.0):
    """Reference fit via numpy lstsq on the regularized normal equations."""
    x = np.vstack(contexts)
    y = np.asarray(responses, dtype=float)
    d = x.shape[1]
    a = x.T @ x + lam * np.eye(d)
    b = x.T @ y
    return np.linalg.solve(a, b)


def absorb_all(state, contexts, responses):
    for c, y in zip(contexts, responses):
        state.absorb(c, y)
    return state


def test_noiseless_recovery_after_d_independent_observations():
    rng = np.random.default_rng(10)
    for d in (1, 2, 4, 8):
        truth = rng.normal(size=d)
        truth /= max(1.0, np.linalg.norm(truth))
        state = EstimatorState(d, mode=OLS)
        contexts = rng.normal(size=(d, d))
        for c in contexts:
            state.absorb(c, float(c @ truth))
        assert np.linalg.norm(state.estimate() - truth) < 1e-9


def test_estimate_matches_normal_equation_oracle_on_seeded_histories():
    rng = np.random.default_rng(11)
    for _ in range(120):
        d = int(rng.integers(1, 9))
        n = int(rng.integers(d, d + 12))
        contexts = rng.normal(size=(n, d))
        responses = rng.normal(size=n)
        state = absorb_all(EstimatorState(d, mode=OLS), contexts, responses)
        want = normal_equation_oracle(contexts, responses)
        if np.linalg.norm(want) > 1.0:
            want = want / np.linalg.norm(want)
        assert np.allclose(state.estimate(), want, atol=1e-8)


def test_ridge_hand_example():
    # One observation (1,0) -> 1 with lambda=1: solve [[2,0],[0,1]] mu = (1,0).
    state = EstimatorState(2, mode=RIDGE, ridge_lambda=1.0)
    state.absorb(np.array([1.0, 0.0]), 1.0)
    assert np.allclose(state.estimate(), [0.5, 0.0])


def test_ridge_matches_oracle_with_regularization():
    rng = np.random.default_rng(12)
    for lam in (0.5, 1.0, 3.0):
        d, n = 4, 20
        contexts = rng.normal(size=(n, d))
        responses = rng.normal(size=n)
        state = absorb_all(
            EstimatorState(d, mode=RIDGE, ridge_lambda=lam), contexts, responses
        )
        want = normal_equation_oracle(contexts, responses, lam=lam)
        if np.linalg.norm(want) > 1.0:
            want = want / np.linalg.norm(want)
        assert np.allclose(state.estimate(), want, atol=1e-8)


def test_estimate_clipped_to_unit_ball():
    state = EstimatorState(1, mode=OLS)
    state.absorb(np.array([1.0]), 7.0)  # raw fit would be 7
    est = state.estimate()
    assert np.linalg.norm(est) == pytest.approx(1.0)
    assert est[0] == pytest.approx(1.0)


def test_absorb_updates_in_place_and_clears_cached_estimate():
    rng = np.random.default_rng(14)
    state = EstimatorState(2, mode=RIDGE, ridge_lambda=1.0)
    assert state.absorb(np.array([1.0, 0.0]), 1.0) is None
    assert state.count == 1
    # gram accumulates the raw outer product; regularization only at solve time
    assert np.allclose(state.gram, [[1.0, 0.0], [0.0, 0.0]])
    assert np.allclose(state.regularized_gram(), [[2.0, 0.0], [0.0, 1.0]])
    contexts, responses = [np.array([1.0, 0.0])], [1.0]
    for _ in range(5):
        state.estimate()  # fills the cache the next absorb must drop
        c, y = rng.normal(size=2), float(rng.normal())
        state.absorb(c, y)
        contexts.append(c)
        responses.append(y)
        want = normal_equation_oracle(contexts, responses, lam=1.0)
        if np.linalg.norm(want) > 1.0:
            want = want / np.linalg.norm(want)
        assert np.allclose(state.estimate(), want, atol=1e-9)
    assert state.count == 6
    assert np.allclose(state.moment, np.vstack(contexts).T @ np.asarray(responses))


def test_ols_raises_before_identifiability():
    state = EstimatorState(2, mode=OLS)
    with pytest.raises(SingularMatrixError):
        state.estimate()
    state.absorb(np.array([1.0, 0.0]), 0.3)
    with pytest.raises(SingularMatrixError):
        state.estimate()  # rank 1 of 2
    state.absorb(np.array([0.0, 1.0]), -0.1)
    assert np.allclose(state.estimate(), [0.3, -0.1])


def test_repeated_context_never_identifies_ols():
    state = EstimatorState(2, mode=OLS)
    for _ in range(10):
        state.absorb(np.array([0.6, 0.8]), 0.5)
    with pytest.raises(SingularMatrixError):
        state.estimate()


def test_width_hand_value_on_empty_state():
    state = EstimatorState(1, mode=RIDGE, ridge_lambda=1.0)
    w = confidence_width(state, np.array([1.0]), delta=0.5, explore_m=1, t=1)
    want = 1.0 * (math.sqrt(math.log(4.0)) + 1.0)
    assert w == pytest.approx(want, abs=1e-5)
    assert w == pytest.approx(2.17741, abs=1e-5)


def test_width_zero_context_is_zero():
    state = EstimatorState(3, mode=RIDGE, ridge_lambda=1.0)
    assert confidence_width(state, np.zeros(3), delta=0.1, explore_m=4, t=10) == 0.0


def test_width_never_grows_when_observations_double():
    rng = np.random.default_rng(13)
    for _ in range(30):
        d = int(rng.integers(1, 6))
        contexts = rng.normal(size=(6, d))
        responses = rng.normal(size=6)
        once = absorb_all(
            EstimatorState(d, mode=RIDGE, ridge_lambda=1.0), contexts, responses
        )
        twice = absorb_all(
            EstimatorState(d, mode=RIDGE, ridge_lambda=1.0),
            np.vstack([contexts, contexts]), np.concatenate([responses, responses]),
        )
        assert (once.count, twice.count) == (6, 12)
        probe = rng.normal(size=d)
        t = int(rng.integers(1, 50))
        w1 = confidence_width(once, probe, 0.1, 2, t)
        w2 = confidence_width(twice, probe, 0.1, 2, t)
        assert w2 <= w1 + 1e-12


def test_width_requires_ridge_mode():
    state = EstimatorState(2, mode=OLS)
    with pytest.raises(ValueError):
        confidence_width(state, np.ones(2), 0.1, 2, 5)


def test_width_rejects_bad_delta():
    state = EstimatorState(2, mode=RIDGE, ridge_lambda=1.0)
    for delta in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            confidence_width(state, np.ones(2), delta, 2, 5)
