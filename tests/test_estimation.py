"""Per-arm estimator state: OLS/ridge solves, clipping, confidence widths,
and the dense kernels under them: factor, substitutions, smallest eigenvalue."""

import math

import numpy as np
import pytest

from payband import estimation
from payband.environment import FixedSequenceSpec, standardize_features
from payband.estimation import (
    OLS,
    PIVOT_TOL,
    RIDGE,
    EstimatorState,
    SingularMatrixError,
    back_substitute,
    cholesky_spd,
    confidence_width,
    forward_substitute,
    inv_norms,
    min_eig_sym,
)
from payband.model import unit_ball_rows


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


def inverses_of(states):
    """The states' current inverses as one (N, d, d) stack."""
    return np.array([state.inverse() for state in states])


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
    # gram accumulates the raw outer product; regularization only at solve time
    assert np.array_equal(state.gram, [[[1.0, 0.0], [0.0, 0.0]]])
    assert np.allclose(state.regularized_gram(), [[2.0, 0.0], [0.0, 1.0]])
    contexts, responses = [np.array([1.0, 0.0])], [1.0]
    for _ in range(5):
        state.estimate()  # caches the inverse the next absorb must keep current
        c, y = rng.normal(size=2), float(rng.normal())
        state.absorb(c, y)
        contexts.append(c)
        responses.append(y)
        want = normal_equation_oracle(contexts, responses, lam=1.0)
        if np.linalg.norm(want) > 1.0:
            want = want / np.linalg.norm(want)
        assert np.allclose(state.estimate(), want, atol=1e-9)
    assert np.allclose(state.gram[0], np.vstack(contexts).T @ np.vstack(contexts))
    assert np.allclose(state.moment[0], np.vstack(contexts).T @ np.asarray(responses))


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
    states = [EstimatorState(1, mode=RIDGE, ridge_lambda=1.0) for _ in range(3)]
    widths = confidence_width(inverses_of(states), 1.0, np.array([1.0]), delta=0.5,
                              explore_m=1, t=1)
    want = 1.0 * (math.sqrt(math.log(4.0)) + 1.0)
    assert widths.shape == (3,)
    for w in widths:
        assert w == pytest.approx(want, abs=1e-5)
        assert w == pytest.approx(2.17741, abs=1e-5)


def test_width_zero_context_is_zero():
    rng = np.random.default_rng(15)
    states = [EstimatorState(3, mode=RIDGE, ridge_lambda=1.0) for _ in range(4)]
    for k, state in enumerate(states):
        absorb_all(state, rng.normal(size=(k, 3)), rng.normal(size=k))
    widths = confidence_width(inverses_of(states), 1.0, np.zeros(3), delta=0.1,
                              explore_m=4, t=10)
    assert widths.tolist() == [0.0] * 4


def test_inv_norm_on_empty_ridge_state_is_euclidean_norm():
    # lambda = 1 and no observations: the metric is the identity.
    state = EstimatorState(2, mode=RIDGE, ridge_lambda=1.0)
    assert state.inv_norm(np.array([3.0, 4.0])) == 5.0
    assert state.inv_norm(np.zeros(2)) == 0.0


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
        assert np.allclose(twice.gram, 2 * once.gram)  # every pair absorbed twice
        probe = rng.normal(size=d)
        t = int(rng.integers(1, 50))
        w1, w2 = confidence_width(inverses_of([once, twice]), 1.0, probe, 0.1, 2, t)
        assert w2 <= w1 + 1e-12


def test_width_requires_ridge_mode():
    # One lambda scales every arm's width; OLS mode (lambda 0) has no width.
    inverses = inverses_of([EstimatorState(2, mode=RIDGE, ridge_lambda=1.0)])
    for lam in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="ridge_lambda"):
            confidence_width(inverses, lam, np.ones(2), 0.1, 2, 5)
    with pytest.raises(ValueError, match="ridge"):
        EstimatorState(2, mode=RIDGE, ridge_lambda=0.0)


def test_width_rejects_bad_delta():
    inverses = inverses_of([EstimatorState(2, mode=RIDGE, ridge_lambda=1.0) for _ in range(2)])
    for delta in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            confidence_width(inverses, 1.0, np.ones(2), delta, 2, 5)


@pytest.mark.parametrize("d", [1, 4, 14])
@pytest.mark.parametrize("n_arms", [1, 2, 8])
def test_batched_widths_match_per_arm_inverse_oracle(n_arms, d):
    rng = np.random.default_rng(100 * n_arms + d)
    lam, delta, m = 0.7, 0.1, 3
    bank = EstimatorState(d, RIDGE, lam, n_arms)
    grams = [lam * np.eye(d) for _ in range(n_arms)]
    for t in range(1, 200):
        arm = int(rng.integers(n_arms))
        x = rng.normal(size=d)
        bank.absorb(x, float(rng.normal()), arm)
        grams[arm] += np.outer(x, x)
        probe = rng.normal(size=d)
        scale = m * math.sqrt(d * math.log((1 + t / lam) / delta)) + math.sqrt(lam)
        want = [math.sqrt(probe @ np.linalg.inv(g) @ probe) * scale for g in grams]
        inverses = bank.current_inverses()  # factors the arms not absorbed yet
        assert inverses is bank.inverses and all(bank.current)
        got = confidence_width(inverses, lam, probe, delta, m, t)
        assert np.allclose(got, want, rtol=1e-9, atol=1e-9)
        assert np.allclose(inv_norms(inverses, probe),
                           [bank.inv_norm(probe, a) for a in range(n_arms)],
                           rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("d", [1, 4, 14])
@pytest.mark.parametrize("mode", [OLS, RIDGE])
def test_long_histories_match_normal_equation_solve(mode, d):
    # 10^4 updates, checked against np.linalg.solve every 500 of them.
    rng = np.random.default_rng(16 + d)
    lam = 1.0 if mode == RIDGE else 0.0
    n = 10_000
    truth = rng.normal(size=d)
    truth *= 0.9 / np.linalg.norm(truth)
    contexts = rng.uniform(-1.0, 1.0, size=(n, d))
    responses = contexts @ truth + 0.1 * rng.normal(size=n)
    state = EstimatorState(d, mode=mode, ridge_lambda=lam)
    checked = 0
    for k in range(n):
        state.absorb(contexts[k], responses[k])
        if (k + 1) % 500:
            continue
        checked += 1
        x, y = contexts[:k + 1], responses[:k + 1]
        gram = x.T @ x + lam * np.eye(d)
        want = np.linalg.solve(gram, x.T @ y)
        if np.linalg.norm(want) > 1.0:
            want = want / np.linalg.norm(want)
        assert np.max(np.abs(state.estimate() - want)) <= 1e-9
        for probe in rng.normal(size=(3, d)):
            want_norm = math.sqrt(probe @ np.linalg.solve(gram, probe))
            assert abs(state.inv_norm(probe) - want_norm) <= 1e-9
    assert checked == n // 500


def longdouble_solve(gram, rhs):
    """Solve gram @ X = rhs by Gaussian elimination with partial pivoting in np.longdouble."""
    a = np.array(gram, dtype=np.longdouble)
    b = np.array(rhs, dtype=np.longdouble)
    d = a.shape[0]
    for k in range(d):
        p = k + int(np.argmax(np.abs(a[k:, k])))
        a[[k, p]], b[[k, p]] = a[[p, k]], b[[p, k]]
        f = a[k + 1:, k] / a[k, k]
        a[k + 1:, k:] -= np.outer(f, a[k, k:])
        b[k + 1:] -= np.outer(f, b[k])
    x = np.zeros_like(b)
    for k in range(d - 1, -1, -1):
        x[k] = (b[k] - a[k, k + 1:] @ x[k + 1:]) / a[k, k]
    return x


def unit_ball_contexts(rng, n, d):
    x = rng.normal(size=(n, d))
    return x / np.maximum(1.0, np.linalg.norm(x, axis=1))[:, None]


@pytest.mark.parametrize("d", [4, 14])
@pytest.mark.parametrize("mode", [OLS, RIDGE])
def test_updated_inverse_matches_extended_precision_oracle(mode, d):
    # OLS: the first d contexts are nearly singular in coordinate 0, so the
    # first full-size context raises det G by ~1e10 and a rank-1 update of the
    # inverse would cancel catastrophically (errors near 1e-6 without the
    # refactor). Ridge: contexts nearly collinear, most updates cheap.
    lam = 1e-2 if mode == RIDGE else 0.0
    for seed in (1, 2, 3):
        rng = np.random.default_rng(seed)
        n = 300
        truth = rng.normal(size=d)
        truth *= 0.9 / np.linalg.norm(truth)
        contexts = unit_ball_contexts(rng, n, d)
        if mode == OLS:
            contexts[:d, 0] *= 1e-5
        else:
            u = rng.normal(size=d)
            contexts = rng.uniform(-1.0, 1.0, size=(n, 1)) * u / np.linalg.norm(u) \
                + 1e-4 * contexts
        responses = contexts @ truth + 0.1 * rng.normal(size=n)
        state = EstimatorState(d, mode=mode, ridge_lambda=lam)
        gram = lam * np.eye(d, dtype=np.longdouble)
        moment = np.zeros(d, dtype=np.longdouble)
        for k, (x, y) in enumerate(zip(contexts, responses)):
            state.absorb(x, y)
            xl = x.astype(np.longdouble)
            gram += np.outer(xl, xl)
            moment += xl * np.longdouble(y)
            if k + 1 < d and mode == OLS:  # fewer than d absorbs: not identifiable
                continue
            probe = rng.normal(size=d)
            sol = longdouble_solve(gram, np.column_stack([moment, probe]))
            want = sol[:, 0].astype(float)
            if np.linalg.norm(want) > 1.0:
                want = want / np.linalg.norm(want)
            assert np.max(np.abs(state.estimate() - want)) <= 1e-9
            want_norm = math.sqrt(float(probe.astype(np.longdouble) @ sol[:, 1]))
            assert abs(state.inv_norm(probe) - want_norm) <= 1e-9 * max(1.0, want_norm)


@pytest.mark.parametrize("d,rank,lam", [(14, 3, 1.0), (14, 3, 1e-5), (8, 2, 1e-4)])
def test_estimate_error_is_bounded_by_conditioning(d, rank, lam):
    # README's accuracy contract on 2 * 10^4 unit contexts of low rank, with
    # lam down to validate's floor: kappa(G) reaches 6.8e8. The constant
    # measured 9-29 over 15 seeds of these histories; 64 leaves headroom.
    rng = np.random.default_rng(20)
    n = 20_000
    basis = np.linalg.qr(rng.normal(size=(d, rank)))[0]
    contexts = rng.normal(size=(n, rank)) @ basis.T
    contexts /= np.linalg.norm(contexts, axis=1)[:, None]
    truth = basis @ rng.normal(size=rank)
    truth *= 0.9 / np.linalg.norm(truth)
    responses = contexts @ truth + 0.1 * rng.normal(size=n)
    bank = EstimatorState(d, mode=RIDGE, ridge_lambda=lam)
    for x, y in zip(contexts, responses):
        bank.absorb(x, y)
    gram = bank.regularized_gram()
    est = bank.current_inverses()[0] @ bank.moment[0]
    want = longdouble_solve(gram, bank.moment[0][:, None])[:, 0]
    err = np.linalg.norm((est - want).astype(float))
    assert err <= 64 * np.linalg.cond(gram) * 2.0 ** -52 * np.linalg.norm(est)


@pytest.mark.parametrize("d", [4, 14])
def test_refactorizations_bounded_by_determinant_doublings(monkeypatch, d):
    # Each refactor after the first follows an absorb that more than doubled
    # det G, and log2 det(G_n) / det(lam I) <= d log2(1 + n / (d lam)) for
    # contexts in the unit ball. lam < 1 lets single contexts double det G.
    calls = []
    factor = estimation.cholesky_spd

    def counted(a):
        calls.append(1)
        return factor(a)

    monkeypatch.setattr(estimation, "cholesky_spd", counted)
    lam, n = 0.1, 2000
    rng = np.random.default_rng(30 + d)
    state = EstimatorState(d, mode=RIDGE, ridge_lambda=lam)
    for x in unit_ball_contexts(rng, n, d):
        state.absorb(x, float(rng.normal()))
        state.estimate()
    assert 1 < len(calls) <= d * math.log2(1 + n / (d * lam)) + 1


def test_identified_ols_arm_never_raises_again():
    rng = np.random.default_rng(31)
    state = EstimatorState(3, mode=OLS)
    for x in np.eye(3):
        state.absorb(1e-5 * x, 0.0)  # barely identifiable
    state.estimate()
    repeated = unit_ball_contexts(rng, 1, 3)[0]
    for k, x in enumerate(unit_ball_contexts(rng, 400, 3)):
        # mostly one repeated direction, and new ones down to 1e-6 in size
        context = repeated if k % 3 else x * 10.0 ** -(k % 7)
        state.absorb(context, float(rng.normal()))
        state.estimate()
        state.inv_norm(x)


@pytest.mark.parametrize("mode,lam", [(OLS, 0.0), (RIDGE, 0.1), (RIDGE, 1.0)])
def test_cached_inverse_stays_exactly_symmetric(mode, lam):
    rng = np.random.default_rng(32)
    state = EstimatorState(5, mode=mode, ridge_lambda=lam)
    for k, x in enumerate(unit_ball_contexts(rng, 300, 5)):
        state.absorb(x, float(rng.normal()))
        if k + 1 >= 5:
            inv = state.inverse()
            assert np.array_equal(inv, inv.T)


def counted_factors(monkeypatch):
    """A list that gains an entry at every ``cholesky_spd`` call."""
    calls = []
    factor = estimation.cholesky_spd
    monkeypatch.setattr(estimation, "cholesky_spd", lambda a: calls.append(1) or factor(a))
    return calls


def test_ols_arm_with_fewer_contexts_than_dim_is_never_factored(monkeypatch):
    # Two nearly parallel contexts in three dims: rank 2, yet their Gram
    # matrix passes the pivot check, which displayed [0.937, -0.280, -0.207].
    calls = counted_factors(monkeypatch)
    state = EstimatorState(3, mode=OLS)
    state.absorb(np.array([0.32258355907592146, 0.6324499430627085, -0.7042349870134882]), 0.5)
    state.absorb(np.array([0.3227216803205707, 0.6327285544054103, -0.703921368826879]), 0.5)
    assert np.array_equal(state.shown[0], np.zeros(3)) and state.current == [False]
    with pytest.raises(SingularMatrixError, match="fewer than dim 3"):
        state.estimate()
    assert calls == []
    for d in (1, 2, 4, 14):
        calls.clear()
        state = EstimatorState(d, mode=OLS, n_arms=2)
        for k, x in enumerate(unit_ball_contexts(np.random.default_rng(d), d, d), start=1):
            state.absorb(x, 1.0, arm=1)
            assert (calls == []) == (k < d), (d, k)
        assert state.current == [False, True] and state.shown[1].any()


class BroadcastUpdate:
    """One arm's statistics kept by broadcast products, ``gram += x[:, None] * x``
    and ``moment += response * x``, and its inverse by the rank-1 update
    ``inv -= u[:, None] * u``, refactored where ``EstimatorState`` refactors;
    counts the -0.0 products."""

    def __init__(self, d, lam):
        self.gram, self.moment, self.lam, self.inv = np.zeros((d, d)), np.zeros(d), lam, None
        self.negative_zeros = 0

    def absorb(self, x, response):
        self.gram += x[:, None] * x
        self.moment += response * x
        if self.inv is not None:
            u = self.inv.dot(x)
            s = 1.0 + x.dot(u)
            if s <= estimation.REFACTOR_RATIO:
                u /= math.sqrt(s)
                vvt = u[:, None] * u
                self.negative_zeros += int(np.count_nonzero((vvt == 0) & np.signbit(vvt)))
                self.inv -= vvt
            else:
                self.inv = None
        if self.inv is None:
            d = len(x)
            w = forward_substitute(cholesky_spd(self.gram + self.lam * np.eye(d)), np.eye(d))
            self.inv = w.T @ w


def zero_signs_aside(a):
    """The int64 bit patterns of ``a`` with each -0.0 made +0.0."""
    return (a + 0.0).view(np.int64)


def bits(a):
    """The int64 bit patterns of ``a``, signs of zero included."""
    return np.ascontiguousarray(a).view(np.int64)


@pytest.mark.parametrize("history", ["dense", "fixed_cycled", "dataset_zero_column"])
@pytest.mark.parametrize("d", [1, 4, 14, 64])
def test_rank_one_update_matches_the_broadcast_outer_product(d, history):
    # absorb forms its products with BLAS, which writes +0.0 where the
    # broadcast writes -0.0. G and the moment must keep every bit, zero signs
    # included; every nonzero bit of every inverse must agree.
    rng = np.random.default_rng(70 + d)
    n = 6 * d + 40
    if history == "dense":
        contexts = unit_ball_contexts(rng, n, d)
    elif history == "fixed_cycled":  # exact zeros in alternate coordinates
        mask = np.resize([1.0, 0.0], d)
        rows = [rng.normal(size=d) * (mask if k % 2 else 1.0 - mask) for k in range(5)]
        contexts = FixedSequenceSpec(contexts=tuple(rows), cycle=True).draw(n, rng)
    else:  # a constant column, which standardizes to exact zeros
        features = rng.normal(size=(n, d))
        features[:, d // 2] = 3.25
        contexts = unit_ball_rows(standardize_features(features))
        assert not contexts[:, d // 2].any()
    for lam in (1.0, 0.1):  # 1: every update applies; 0.1: refactors in between
        bank = EstimatorState(d, RIDGE, lam, n_arms=2)
        references = [BroadcastUpdate(d, lam), BroadcastUpdate(d, lam)]
        for k, x in enumerate(contexts):
            arm = (k // 3) % 2
            response = 0.0 if k % 4 == 0 else float(rng.normal())  # zero products too
            bank.absorb(x, response, arm)
            references[arm].absorb(x, response)
            assert np.array_equal(bits(bank.gram[arm]), bits(references[arm].gram)), (k, lam)
            assert np.array_equal(bits(bank.moment[arm]), bits(references[arm].moment)), (k, lam)
            assert np.array_equal(zero_signs_aside(bank.inverses[arm]),
                                  zero_signs_aside(references[arm].inv)), (k, lam)
        if history != "dense" and d > 1:  # the histories reach the zero-sign case
            assert sum(r.negative_zeros for r in references) > 0


@pytest.mark.parametrize("d", [1, 4, 14, 64])
def test_statistics_block_equals_sequential_sums(d, monkeypatch):
    # G and the moment must keep the bits of adding each x x^T and
    # response * x in absorb order, read after every absorb and across
    # refactors, with exact zeros in the contexts and the responses.
    factors = []
    factor = estimation.cholesky_spd
    monkeypatch.setattr(estimation, "cholesky_spd", lambda a: factors.append(1) or factor(a))
    rng = np.random.default_rng(40 + d)
    count = 4 * d + 40
    for lam in (1.0, 1e-3):
        state = EstimatorState(d, mode=RIDGE, ridge_lambda=lam, n_arms=2)
        gram, moment = np.zeros((d, d)), np.zeros(d)
        scale = 10.0 ** rng.uniform(-3, 3, size=count)
        contexts = rng.normal(size=(count, d)) * scale[:, None]
        contexts[rng.random(size=(count, d)) < 0.2] = 0.0
        responses = rng.normal(size=count) * (rng.random(size=count) < 0.7)
        for k, (x, y) in enumerate(zip(contexts, responses)):
            state.absorb(x, float(y), arm=1)
            gram += x[:, None] * x
            moment += float(y) * x
            assert np.array_equal(bits(state.gram[1]), bits(gram)), k
            assert np.array_equal(bits(state.moment[1]), bits(moment)), k
            if k % 5 == 0:
                state.current_inverses()  # reads G through a refactor where one is due
        assert np.array_equal(bits(state.regularized_gram(1)), bits(gram + lam * np.eye(d)))
        assert not (state.gram[0].any() or state.moment[0].any())  # the other arm untouched
    assert len(factors) > 2 + 2  # each bank's first factors, then refactors


def test_bank_keeps_each_arms_inverse_in_its_row(monkeypatch):
    factors = []
    factor = estimation.cholesky_spd
    monkeypatch.setattr(estimation, "cholesky_spd", lambda a: factors.append(1) or factor(a))
    bank = EstimatorState(2, RIDGE, 0.5, n_arms=3)

    def in_row_and_exact():
        assert np.shares_memory(bank.inverse(2), bank.inverses[2]) and bank.current[2]
        assert np.allclose(bank.inverses[2], np.linalg.inv(bank.regularized_gram(2)),
                           rtol=1e-12, atol=1e-15)

    assert bank.current == [False] * 3  # nothing factored yet
    bank.absorb(np.array([1.0, 2.0]), 1.0, 2)
    in_row_and_exact()
    assert len(factors) == 1  # the first factor, made by the absorb's display refresh
    bank.absorb(np.array([0.3, 0.4]), 0.0, 2)
    in_row_and_exact()
    assert len(factors) == 1  # a rank-1 update, in place
    bank.absorb(np.array([10.0, -10.0]), 0.0, 2)
    in_row_and_exact()
    assert len(factors) == 2  # det G more than doubled: dropped, then refactored
    assert np.array_equal(bank.shown[2], bank.estimate(2))
    # the other arms' rows untouched
    assert not (bank.inverses[:2].any() or bank.moment[:2].any() or bank.shown[:2].any())
    assert not bank.gram[:2].any() and bank.current[:2] == [False, False]


@pytest.mark.parametrize("mode,lam", [(OLS, 0.0), (RIDGE, 0.05)])
@pytest.mark.parametrize("n_arms,d", [(2, 14), (8, 4)])
def test_bank_rows_equal_separate_single_arm_banks(n_arms, d, mode, lam):
    # One bank fed a seeded interleaving of (arm, x, y) against N one-arm
    # banks, each fed its arm's pairs in the same absorb/estimate order: every
    # row must match bit for bit after every step, so rows never interact.
    # Scales from 1e-3 to 10 make refactors.
    rng = np.random.default_rng(50 + 10 * n_arms + d)
    bank = EstimatorState(d, mode, lam, n_arms)
    singles = [EstimatorState(d, mode, lam) for _ in range(n_arms)]
    absorbed = [0] * n_arms
    for step in range(96 * n_arms):
        arm = int(rng.integers(n_arms))
        absorbed[arm] += 1
        x = rng.normal(size=d) * 10.0 ** rng.uniform(-3, 1)
        y = float(rng.normal())
        bank.absorb(x, y, arm)
        singles[arm].absorb(x, y)
        if mode == RIDGE and step % 5 == 0:
            bank.current_inverses()
            for single in singles:
                single.current_inverses()
        if step % 7 == 0:
            assert np.array_equal(bank.gram[arm], singles[arm].gram[0])
        for a, single in enumerate(singles):
            assert bank.current[a] == single.current[0]
            assert np.array_equal(bank.moment[a], single.moment[0])
            assert np.array_equal(bank.inverses[a], single.inverses[0])
            assert np.array_equal(bank.shown[a], single.shown[0])
    assert np.array_equal(bank.gram, np.concatenate([s.gram for s in singles]))
    assert min(absorbed) > 2 * d


@pytest.mark.parametrize("d", [1, 4, 14, 64])
def test_dot_has_the_bits_of_matmul_on_the_engines_shapes(d):
    """The round path computes 2-D x 1-D products with ``ndarray.dot``, which
    skips ``@``'s ufunc dispatch, and stacked products with ``@``; both must
    give the bits ``@`` gives one matrix, or the CSV digests move. The
    estimate is written into its ``shown`` row with ``.dot(..., out=row)``,
    and the widths, the clip and the rank-1 update scale their arrays in
    place; each must give the bits of the allocating form. A numpy or BLAS
    build that routes these calls differently fails here by name."""
    rng = np.random.default_rng(d)
    for _ in range(100):
        x = rng.standard_normal(d)
        for n in (2, 8):  # (N, d) . (d,): the scores, inv_norms' second product
            shown = rng.standard_normal((n, d))
            assert shown.dot(x).tobytes() == (shown @ x).tobytes()
        stack = rng.standard_normal((8, d, d))
        stack = stack + stack.transpose(0, 2, 1)  # symmetric, as the inverses are
        rows = [a.dot(x) for a in stack]  # (d, d) . (d,): absorb, estimate
        for a, row in zip(stack, rows):
            assert row.tobytes() == (a @ x).tobytes()
        stacked = stack @ x  # (N, d, d) @ (d,): inv_norms' first product
        assert stacked.tobytes() == np.array(rows).tobytes()
        assert stacked.dot(x).tobytes() == (stacked @ x).tobytes()

        shown = np.empty((8, d))  # estimate: A moment into the arm's shown row
        for a, row, out in zip(stack, rows, shown):
            assert a.dot(x, out=out) is out
            assert out.tobytes() == row.tobytes()
        norm = math.sqrt(rows[0].dot(rows[0]))  # the clip and the rank-1 scale
        clipped = rows[0].copy()
        clipped /= norm
        assert clipped.tobytes() == (rows[0] / norm).tobytes()
        scale = float(rng.uniform(1.0, 40.0))  # inv_norms, then confidence_width
        want = np.sqrt(np.maximum(stacked.dot(x), 0.0)) * scale
        quad = stacked.dot(x)  # symmetric, not definite: some forms are < 0
        np.maximum(quad, 0.0, out=quad)
        np.sqrt(quad, out=quad)
        quad *= scale
        assert quad.tobytes() == want.tobytes()
        assert inv_norms(stack, x).tobytes() == np.sqrt(np.maximum(stacked.dot(x), 0.0)).tobytes()


# -- dense kernels: factor, substitutions, smallest eigenvalue ----------------

def random_spd(rng, d, jitter=0.1):
    b = rng.normal(size=(d + 2, d))
    return b.T @ b + jitter * np.eye(d)


def test_cholesky_reconstructs_matrix():
    rng = np.random.default_rng(0)
    for d in range(1, 9):
        a = random_spd(rng, d)
        low = cholesky_spd(a)
        assert np.allclose(low @ low.T, a, atol=1e-10)
        assert np.allclose(low, np.tril(low))


def test_triangular_substitution_round_trip():
    rng = np.random.default_rng(3)
    low = np.tril(rng.normal(size=(5, 5)))
    np.fill_diagonal(low, np.abs(np.diag(low)) + 1.0)
    b = rng.normal(size=5)
    y = forward_substitute(low, b)
    assert np.allclose(low @ y, b)
    x = back_substitute(low, y)
    assert np.allclose(low.T @ x, y)
    # a matrix right-hand side is solved column by column
    rhs = rng.normal(size=(5, 3))
    y = forward_substitute(low, rhs)
    assert np.allclose(low @ y, rhs)
    assert np.allclose(back_substitute(low, y), np.column_stack(
        [back_substitute(low, col) for col in y.T]))


def test_singular_matrix_raises():
    a = np.array([[1.0, 1.0], [1.0, 1.0]])  # rank 1
    with pytest.raises(SingularMatrixError):
        cholesky_spd(a)


def test_near_singular_pivot_below_tolerance_raises():
    a = np.diag([1.0, PIVOT_TOL * 1e-4])
    with pytest.raises(SingularMatrixError):
        cholesky_spd(a)


def test_indefinite_matrix_raises():
    with pytest.raises(SingularMatrixError):
        cholesky_spd(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_asymmetric_input_rejected():
    with pytest.raises(ValueError):
        cholesky_spd(np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_min_eig_diagonal_and_identity():
    assert min_eig_sym(np.diag([3.0, 0.25, 1.0])) == pytest.approx(0.25)
    assert min_eig_sym(np.eye(4)) == pytest.approx(1.0)


def test_min_eig_rayleigh_quotient_bound():
    # lambda_min lower-bounds the Rayleigh quotient in every direction.
    rng = np.random.default_rng(4)
    for _ in range(50):
        d = int(rng.integers(2, 9))
        a = random_spd(rng, d, jitter=0.0)
        a = (a + a.T) / 2
        lam = min_eig_sym(a)
        dirs = rng.normal(size=(400, d))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        quot = np.einsum("ij,jk,ik->i", dirs, a, dirs)
        assert lam <= quot.min() + 1e-9


def test_min_eig_certified_by_shifted_cholesky():
    # Independent certification: A - s*I stays positive definite for
    # s slightly below lambda_min and loses definiteness slightly above it.
    rng = np.random.default_rng(5)
    for _ in range(50):
        d = int(rng.integers(2, 9))
        a = random_spd(rng, d, jitter=0.2)
        lam = min_eig_sym(a)
        eps = 1e-4 * (abs(lam) + 1.0)
        cholesky_spd(a - (lam - eps) * np.eye(d))
        with pytest.raises(SingularMatrixError):
            cholesky_spd(a - (lam + eps) * np.eye(d))


def test_min_eig_negative_for_indefinite():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert min_eig_sym(a) == pytest.approx(-1.0)
