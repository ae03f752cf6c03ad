"""Payment strategies: pure payment math, chaining, and the stateful loop hooks."""

import json
import math
from collections import Counter

import numpy as np
import pytest

from payband import policies
from payband.environment import FixedSequenceSpec, LinearEnvironment
from payband.estimation import OLS, RIDGE, EstimatorState, confidence_width, width_scale
from payband.harness import child_seed_sequence, load_config_data, preset_config_path, run_single
from payband.estimation import PIVOT_TOL
from payband.metrics import RunTrace
from payband.model import agent_choose
from payband.policies import (
    ChainedPolicy,
    LinUCBAlignmentPolicy,
    NoPaymentsPolicy,
    PerturbationPaymentsPolicy,
    PolicyConfig,
    alignment_payment,
    build_chain,
    build_policy,
    chained_payment,
    initial_exploration,
    linucb_choose,
    perturbation_payment,
    play_round,
    realize_outcomes,
    ridge_lambda_floor,
)


def rng_for(seed=0):
    return np.random.default_rng(seed)


# -- configuration -----------------------------------------------------------

def test_config_rejects_unknown_kind():
    with pytest.raises(ValueError):
        PolicyConfig(kind="mystery")


def test_budget_only_on_restricted_kind():
    with pytest.raises(ValueError):
        PolicyConfig(kind="no_payments", budget=1.0)
    with pytest.raises(ValueError, match="requires a budget"):
        PolicyConfig(kind="chained_restricted")
    with pytest.raises(ValueError):
        PolicyConfig(kind="chained_restricted", budget=-0.5)
    PolicyConfig(kind="chained_restricted", budget=0.0)  # zero is allowed
    assert type(PolicyConfig(kind="chained_restricted", budget=5).budget) is float
    assert build_policy(PolicyConfig(kind="chained_unrestricted"), 2, 2).budget == math.inf


def test_config_parameter_ranges():
    with pytest.raises(ValueError):
        PolicyConfig(kind="perturbation_payments", sigma_pay=-1.0)
    with pytest.raises(ValueError):
        PolicyConfig(kind="no_payments", delta=1.0)
    with pytest.raises(ValueError):
        PolicyConfig(kind="chained_unrestricted", ridge_lambda=0.0)
    with pytest.raises(ValueError):
        PolicyConfig(kind="linucb_alignment", ridge_lambda=0.1 * PIVOT_TOL)
    PolicyConfig(kind="linucb_alignment", ridge_lambda=PIVOT_TOL)
    PolicyConfig(kind="no_payments", ridge_lambda=0.1 * PIVOT_TOL)  # OLS: lambda unused
    with pytest.raises(ValueError):
        PolicyConfig(kind="no_payments", estimator_mode="bayes")


def test_estimator_mode_defaults_and_override():
    assert PolicyConfig(kind="no_payments").resolved_mode() == OLS
    assert PolicyConfig(kind="perturbation_payments").resolved_mode() == OLS
    for kind in ("linucb_alignment", "chained_unrestricted"):
        assert PolicyConfig(kind=kind).resolved_mode() == RIDGE
    assert PolicyConfig(kind="chained_restricted", budget=1.0).resolved_mode() == RIDGE
    assert PolicyConfig(kind="no_payments", estimator_mode="ridge").resolved_mode() == RIDGE


# -- perturbation payments ---------------------------------------------------

def test_perturbation_payment_is_estimate_dot_zeta():
    est = np.array([[1.0, 0.0], [0.0, 2.0], [0.5, 0.5]])
    zeta = np.array([0.3, -0.1])
    assert np.allclose(perturbation_payment(est, zeta), [0.3, -0.2, 0.1])


def test_perturbation_acts_like_a_perturbed_context():
    rng = rng_for(1)
    est = rng.normal(size=(5, 3))
    ctx = rng.normal(size=3)
    zeta = rng.normal(size=3)
    pay = perturbation_payment(est, zeta)
    perceived = est @ ctx + pay
    assert np.allclose(perceived, est @ (ctx + zeta))


def test_perturbation_update_folds_payment_into_response():
    pol = build_policy(PolicyConfig(kind="perturbation_payments", sigma_pay=1.0), 2, 2)
    ref = EstimatorState(2, mode=OLS)
    for x, y in (([1.0, 0.0], 0.5), ([0.0, 1.0], 0.3)):  # identify arm 1
        pol.absorb_forced(0, np.array(x), 1, y)
        ref.absorb(np.array(x), y)
    ctx = np.array([1.0, 0.0])
    pol.start_run(0, 1, rng_for(16))
    pay = pol.calc_payments(1, ctx, pol.displayed_estimates().dot(ctx))
    zeta = rng_for(16).standard_normal(2)  # the draw start_run made
    assert pay[1] != 0.0
    pol.update(1, ctx, 1, observed=0.4, payments=pay)
    ref.absorb(ctx + zeta, 0.4 + pay[1])
    assert np.array_equal(pol.bank.gram[1], ref.gram[0])
    assert np.array_equal(pol.bank.moment[1], ref.moment[0])
    assert not pol.bank.gram[0].any()  # all three pairs went to arm 1


# -- alignment payments ------------------------------------------------------

def test_alignment_payment_pays_the_gap():
    scores = np.array([0.9, 0.2, 0.5])
    pay = alignment_payment(scores, greedy=0, base=2)
    assert np.allclose(pay, [0.0, 0.0, 0.4])


def test_alignment_payment_zero_when_agreeing():
    assert np.allclose(alignment_payment(np.array([0.9, 0.2]), 0, 0), 0.0)


def test_alignment_payment_never_negative():
    # base scoring above greedy would imply a negative gap; clamp at zero
    pay = alignment_payment(np.array([0.2, 0.9]), greedy=0, base=1)
    assert np.allclose(pay, 0.0)


def test_alignment_payment_moves_the_agent():
    est = np.array([[0.9, 0.0], [0.2, 0.0], [0.5, 0.0]])
    ctx = np.array([1.0, 0.0])
    scores = est @ ctx
    pay = alignment_payment(scores, greedy=0, base=1)
    assert agent_choose(est, ctx, pay) == 1


def test_linucb_prefers_less_explored_arm_on_equal_scores():
    lam = 1.0
    s_seen = EstimatorState(2, RIDGE, lam)
    for _ in range(20):
        s_seen.absorb(np.array([1.0, 0.0]), 0.0)
    s_fresh = EstimatorState(2, RIDGE, lam)
    scores = np.zeros(2)  # equal point scores
    ctx = np.array([1.0, 0.0])
    inverses = np.array([s_seen.inverse(), s_fresh.inverse()])
    pick = linucb_choose(inverses, scores, ctx, alpha=1.0)
    assert pick == 1
    # with zero alpha the bonus vanishes and ties go to the lowest index
    assert linucb_choose(inverses, scores, ctx, alpha=0.0) == 0


@pytest.mark.parametrize("kind", ["linucb_alignment", "chained_unrestricted"])
def test_stacked_inverses_equal_factoring_every_arm_every_round(kind):
    # The rule the stack replaced: each width round called every arm's
    # inverse(), so an arm that had not absorbed was factored then, and its
    # first absorb updated that inverse rather than refactoring. With no
    # exploration the rounds reach arms before they absorb.
    rng = rng_for(21)
    n, d, lam = 4, 3, 0.3
    pol = build_policy(PolicyConfig(kind=kind, ridge_lambda=lam), n, d)
    pol.start_run(0, 60, rng)
    ref = [EstimatorState(d, RIDGE, lam) for _ in range(n)]
    for t in range(1, 61):
        x = rng.normal(size=d)
        pay = pol.calc_payments(t, x, pol.displayed_estimates().dot(x))
        assert np.array_equal(pol.bank.inverses, [state.inverse() for state in ref])
        arm, y = int(rng.integers(min(n, 1 + t // 10))), float(rng.normal())
        pol.update(t, x, arm, y, pay)
        ref[arm].absorb(x, y)
        assert np.array_equal(pol.displayed_estimates()[arm], ref[arm].estimate())


# -- chaining ----------------------------------------------------------------

def test_chain_isolated_anchor():
    e = np.array([0.9, 0.1, -0.5])
    w = np.array([0.1, 0.1, 0.1])
    assert build_chain(e, w, anchor=0) == [0]


def test_chain_direct_overlap():
    e = np.array([0.5, 0.4])
    w = np.array([0.1, 0.1])
    assert build_chain(e, w, anchor=0) == [0, 1]


def test_chain_transitive_bridge():
    # 0 overlaps 1, 1 overlaps 2, but 0 and 2 do not touch directly
    e = np.array([1.0, 0.7, 0.4])
    w = np.array([0.16, 0.16, 0.16])
    assert build_chain(e, w, anchor=0) == [0, 1, 2]
    # shrink the middle interval and the bridge collapses
    assert build_chain(e, np.array([0.16, 0.05, 0.16]), anchor=0) == [0]


def test_chain_boundary_touch_counts():
    e = np.array([0.6, 0.2])
    w = np.array([0.2, 0.2])  # intervals meet exactly at 0.4
    assert build_chain(e, w, anchor=0) == [0, 1]


def union_find_closure(e, w, anchor):
    """Independent reference: union-find over all pairwise interval
    overlaps, then collect the anchor's component."""
    n = len(e)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if max(e[i] - w[i], e[j] - w[j]) <= min(e[i] + w[i], e[j] + w[j]):
                parent[find(i)] = find(j)
    root = find(anchor)
    return sorted(k for k in range(n) if find(k) == root)


def test_chain_matches_union_find_oracle_on_random_instances():
    rng = rng_for(2)
    for _ in range(300):
        n = int(rng.integers(2, 10))
        e = rng.normal(size=n)
        w = np.abs(rng.normal(size=n)) * rng.choice([0.05, 0.3, 1.0])
        anchor = int(np.argmax(e))
        assert build_chain(e, w, anchor) == union_find_closure(e, w, anchor)


def pairwise_closure(e, w, anchor):
    """The chain as a frontier search over all pairs of intervals."""
    lo, hi = e - w, e + w
    members = {anchor}
    frontier = [anchor]
    while frontier:
        i = frontier.pop()
        for j in range(len(e)):
            if j not in members and max(lo[i], lo[j]) <= min(hi[i], hi[j]):
                members.add(j)
                frontier.append(j)
    return sorted(members)


def test_chain_matches_pairwise_closure_with_touching_endpoints():
    # Endpoints on a 0.1 grid, so many intervals only touch.
    rng = rng_for(20)
    touching = whole = swept = 0
    for _ in range(20_000):
        n = int(rng.integers(1, 10))
        e = np.round(rng.uniform(-1.0, 1.0, size=n), 1)
        w = np.round(rng.uniform(0.0, 0.4, size=n), 1)
        anchor = int(rng.integers(n))
        lo, hi = e - w, e + w
        touching += bool(np.isin(lo, hi).any())
        meets = bool(lo.max() <= hi.min())  # every interval meets every other
        whole += meets
        swept += not meets
        assert build_chain(e, w, anchor) == pairwise_closure(e, w, anchor)
    assert touching > 1000
    assert whole > 1000 and swept > 1000  # chains of every arm and sweeps that part


def test_chained_runs_on_fig1_sweep_and_match_pairwise_closure(monkeypatch):
    # The shipped fig1 never calls build_chain: its widths scale with
    # init_explore_m, and the width floor shows every arm chained. At m = 0
    # the scale is sqrt(ridge_lambda), the floor never holds, intervals part,
    # and many rounds end in a chain of some arms only; every chain must
    # equal the pairwise closure.
    data = json.loads(preset_config_path("fig1").read_text())
    data["instance"]["init_explore_m"] = 0
    config, _ = load_config_data(data)
    tally = Counter()

    def checked(e, w, anchor):
        chain = build_chain(e, w, anchor)
        assert chain == pairwise_closure(e, w, anchor)
        tally["swept"] += bool((e - w).max() > (e + w).min())
        tally["partial"] += len(chain) < len(e)
        return chain

    monkeypatch.setattr(policies, "build_chain", checked)
    for policy_index, policy in enumerate(config.policies):
        if policy.kind in ("chained_unrestricted", "chained_restricted"):
            for run_index in range(3):
                run_single(config.instance, policy, child_seed_sequence(7, policy_index, run_index))
    assert tally["swept"] > 1000 and tally["partial"] > 100, tally


def floor_rounds(dim, lam, contexts, warm, rng, horizon=100):
    """Rounds of a two-arm ridge bank whose true attributes are u and -u for
    a random unit u, so the estimates part by up to 2 ||x||, the most the
    floor allows for. The unit-ball ``contexts`` are "aligned" with u (rank
    1), lie in a random half-``dim`` "subspace" that holds u, or are "full"
    rank, and the arms take turns. ``warm`` first absorbs four contexts far
    outside the unit ball, near +-u. At each round the exploration length is
    the least that makes ``chain_is_whole`` hold, and the widths and chain
    at it are computed in full. Returns how many of the rounds chain every
    arm."""
    pol = build_policy(PolicyConfig(kind="chained_unrestricted", ridge_lambda=lam), 2, dim)
    u = rng.normal(size=dim)
    u /= np.linalg.norm(u)
    attrs = np.array([u, -u])
    span = {"aligned": u[:, None],
            "subspace": np.column_stack([u, rng.normal(size=(dim, dim // 2 - 1))]),
            "full": np.eye(dim)}[contexts]
    if warm:
        for i in range(4):
            x = u * rng.choice([-1.0, 1.0]) * rng.uniform(5.0, 20.0) + rng.normal(size=dim)
            pol.absorb_forced(0, x, i % 2, float(attrs[i % 2].dot(x)))
    whole = 0
    for t in range(1, horizon + 1):
        x = span @ rng.normal(size=span.shape[1])
        x *= rng.uniform(0.5, 1.0) / np.linalg.norm(x)
        scores = pol.displayed_estimates().dot(x)
        pol.explore_m = 0
        while not pol.chain_is_whole(t):
            pol.explore_m += 1
        widths = confidence_width(pol.bank.current_inverses(), lam, x, 0.1, pol.explore_m, t)
        whole += build_chain(scores, widths, int(scores.argmax())) == [0, 1]
        arm = t % 2
        pol.update(t, x, arm, float(attrs[arm].dot(x) + 0.05 * rng.normal()), None)
    return whole


@pytest.mark.parametrize("dim", [2, 4, 14])
def test_width_floor_never_disagrees_with_the_widths(dim):
    # Wherever the floor says every arm is chained, the widths and the chain
    # computed in full say so too, at the least exploration length at which
    # it says so. Looser floors fail here: with the factor 2 lowered to 0.7
    # (1 is the least the proof allows), or with S short of the warm-start
    # contexts, some of these rounds chain one arm only.
    rng = rng_for(30 + dim)
    for lam in (ridge_lambda_floor(dim, 100), 1e-3, 1.0, 1e3):
        for contexts in ("aligned", "subspace", "full"):
            for warm in (False, True):
                assert floor_rounds(dim, lam, contexts, warm, rng) == 100, (lam, contexts, warm)


@pytest.mark.parametrize("preset", ["fig1", "fig2-like"])
def test_width_floor_holds_on_every_free_round_of_the_presets(preset):
    # Every absorbed context lies in the unit ball, so S <= t - 1 as round t
    # begins, and a scale of at least 2 sqrt(lam + t - 1) makes
    # chain_is_whole hold on every free round for any seed: no chained run
    # of a preset, or of a benchmark workload (these presets at their
    # horizons or shorter), builds a chain or draws a pick past its run's
    # draw, and no floor round factors an inverse. README "Run engine"
    # states the least margin scale / (2 sqrt(lam + t - 1)), over 3 on both.
    config, diags = load_config_data(json.loads(preset_config_path(preset).read_text()))
    assert not diags
    inst = config.instance
    chained = [p for p in config.policies
               if p.kind in ("chained_unrestricted", "chained_restricted")]
    assert len(chained) == 2
    for p in chained:
        m = inst.init_explore_m if p.init_explore_m is None else p.init_explore_m
        for t in range(m + 1, inst.horizon + 1):
            scale = width_scale(p.ridge_lambda, inst.dim, p.delta, m, t)
            assert scale >= 2 * math.sqrt(p.ridge_lambda + t - 1), (p.kind, t)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")  # inf - inf
def test_chain_with_nonfinite_endpoints_is_well_formed():
    # Estimates and widths that are NaN or infinite, at any position, mostly
    # in instances whose finite intervals all meet. Every chain is a sorted
    # list of distinct arms that holds the anchor. Where every interval has
    # lo <= hi (no NaN endpoint, no negative width, which no width formula
    # gives), infinite endpoints still order and meet, and the chain is the
    # pairwise closure.
    rng = rng_for(21)
    bad = np.array([math.nan, math.inf, -math.inf])
    infinite = 0
    for _ in range(5000):
        n = int(rng.integers(1, 9))
        e = rng.uniform(-0.1, 0.1, size=n)
        w = rng.uniform(0.0, 1.0, size=n) * rng.choice([0.01, 1.0])
        p = rng.choice([0.1, 0.3])
        e = np.where(rng.random(n) < p, rng.choice(bad, n), e)
        w = np.where(rng.random(n) < p, rng.choice(bad, n), w)
        anchor = int(rng.integers(n))
        chain = build_chain(e, w, anchor)
        assert chain == sorted(set(chain)) and anchor in chain
        assert all(type(i) is int and 0 <= i < n for i in chain)
        if (e - w <= e + w).all():
            assert chain == pairwise_closure(e, w, anchor), (e, w, anchor)
            infinite += bool(np.isinf([e - w, e + w]).any())
    assert infinite > 500, infinite
    # e = -inf with w = +inf gives the interval [-inf, NaN]: sorted first, it
    # leaves the sweep's reach at -inf, so it joins no other arm.
    e = np.array([0.0, -math.inf, 0.1])
    w = np.array([1.0, math.inf, 1.0])
    assert build_chain(e, w, 0) == [0, 2]
    assert build_chain(e, w, 1) == [1]


def test_chained_payment_amount_is_gap_to_anchor():
    e = np.array([0.9, 0.4, 0.6])
    members = [0, 1, 2]
    seen = {}
    for s in range(40):
        pay, j, amount, b = chained_payment(members, e, anchor=0, picks=rng_for(s))
        assert b == math.inf  # the default budget clamps nothing and stays infinite
        assert amount == e[0] - e[j]
        assert pay[j] == amount and np.count_nonzero(pay) <= 1
        seen[j] = seen.get(j, 0) + 1
    assert set(seen) == {0, 1, 2}


def test_chained_payment_uniform_over_members():
    members = [0, 1, 2, 3]
    e = np.array([0.8, 0.6, 0.4, 0.2])
    rng = rng_for(3)
    counts = np.zeros(4)
    n = 8000
    for _ in range(n):
        _, j, _, _ = chained_payment(members, e, 0, rng)
        counts[j] += 1
    freqs = counts / n
    assert np.all(np.abs(freqs - 0.25) < 0.02)


def test_chained_payment_budget_clamps_and_decrements():
    e = np.array([1.0, 0.0])
    # force member 1 (two-member chain, find a seed that picks index 1)
    for s in range(50):
        pay, j, amount, b = chained_payment([0, 1], e, 0, rng_for(s), budget=0.3)
        if j == 1:
            assert amount == 0.3  # clamped from the full gap 1.0
            assert b == 0.0
            break
    else:
        pytest.fail("no seed picked the paid member")
    # picking the anchor costs nothing
    for s in range(50):
        pay, j, amount, b = chained_payment([0, 1], e, 0, rng_for(s), budget=0.3)
        if j == 0:
            assert amount == 0.0 and b == 0.3
            break


# -- stateful strategies -----------------------------------------------------

def test_build_policy_classes_and_modes():
    n, d = 3, 2
    assert isinstance(build_policy(PolicyConfig(kind="no_payments"), n, d), NoPaymentsPolicy)
    assert isinstance(
        build_policy(PolicyConfig(kind="perturbation_payments"), n, d),
        PerturbationPaymentsPolicy,
    )
    assert isinstance(
        build_policy(PolicyConfig(kind="linucb_alignment"), n, d), LinUCBAlignmentPolicy
    )
    for kind, budget in (("chained_unrestricted", None), ("chained_restricted", 2.0)):
        pol = build_policy(PolicyConfig(kind=kind, budget=budget), n, d)
        assert isinstance(pol, ChainedPolicy)
        assert pol.bank.mode == RIDGE
    assert build_policy(PolicyConfig(kind="no_payments"), n, d).bank.mode == OLS


def test_displayed_estimates_zero_before_identifiability():
    pol = build_policy(PolicyConfig(kind="no_payments"), 2, 2)
    assert np.array_equal(pol.displayed_estimates(), np.zeros((2, 2)))
    pol.absorb_forced(1, np.array([1.0, 0.0]), 0, 0.4)
    est = pol.displayed_estimates()
    assert np.array_equal(est[0], [0.0, 0.0])  # still rank deficient
    pol.absorb_forced(2, np.array([0.0, 1.0]), 0, -0.2)
    est = pol.displayed_estimates()
    assert np.allclose(est[0], [0.4, -0.2])
    assert np.array_equal(est[1], [0.0, 0.0])


def test_displayed_estimates_are_the_banks_shown_rows():
    pol = build_policy(PolicyConfig(kind="no_payments"), 3, 2)
    shown = pol.displayed_estimates()
    assert shown is pol.bank.shown and shown.shape == (3, 2)
    pol.absorb_forced(1, np.array([1.0, 0.0]), 2, 0.4)
    pol.absorb_forced(2, np.array([0.0, 1.0]), 2, -0.2)
    assert pol.displayed_estimates() is shown  # rewritten in place, row by row
    assert np.array_equal(shown[2], pol.bank.estimate(2)) and not shown[:2].any()


def test_absorb_refreshes_the_arms_displayed_row():
    pol = build_policy(PolicyConfig(kind="linucb_alignment"), 2, 2)
    shown = pol.displayed_estimates()
    pol.absorb_forced(1, np.array([0.6, 0.8]), 1, 0.5)
    assert np.array_equal(shown[1], pol.bank.estimate(1))  # no display call in between
    assert shown[1].any() and not shown[0].any()


def refuses_rounds_outside_the_run(pol):
    """A paid round before start_run, a mandated round and the round after
    the last free one raise a RuntimeError naming start_run before the bank
    is factored; the run's free round then plays."""
    ctx = np.array([1.0, 0.0])
    scores = np.zeros(2)

    def refused(t):
        current, inverses = list(pol.bank.current), pol.bank.inverses.copy()
        with pytest.raises(RuntimeError, match="start_run"):
            pol.calc_payments(t, ctx, scores)
        assert pol.bank.current == current and np.array_equal(pol.bank.inverses, inverses)

    refused(1)
    pol.start_run(3, 1, rng_for(0))  # rounds 1-3 mandated, round 4 free
    refused(3)
    refused(5)
    pay = pol.calc_payments(4, ctx, scores)
    pol.update(4, ctx, 0, 0.5, pay)
    assert pol.bank.gram[0].any() and not pol.bank.gram[1].any()


def test_perturbation_rounds_require_start_run():
    # start_run is the only call that hands a strategy its stream.
    pol = build_policy(PolicyConfig(kind="perturbation_payments"), 2, 2)
    with pytest.raises(RuntimeError, match="start_run"):
        pol.update(1, np.array([1.0, 0.0]), 0, 0.5, np.zeros(2))
    refuses_rounds_outside_the_run(pol)


def test_linucb_rounds_require_start_run():
    # start_run begins the alignment log.
    refuses_rounds_outside_the_run(build_policy(PolicyConfig(kind="linucb_alignment"), 2, 2))


@pytest.mark.parametrize("kind", ["chained_unrestricted", "chained_restricted"])
def test_chained_rounds_require_start_run(kind):
    budget = 1.0 if kind == "chained_restricted" else None
    refuses_rounds_outside_the_run(build_policy(PolicyConfig(kind=kind, budget=budget), 2, 2))


def test_perturbation_history_keeps_perturbed_pairs():
    pol = build_policy(PolicyConfig(kind="perturbation_payments", sigma_pay=1.0), 2, 2)
    ctx = np.array([1.0, 0.0])
    rng = rng_for(4)
    pol.start_run(0, 1, rng)
    pay = pol.calc_payments(1, ctx, pol.displayed_estimates().dot(ctx))
    pol.update(1, ctx, 0, observed=0.5, payments=pay)
    (stored,) = pol.effective_contexts
    assert not np.array_equal(stored, ctx)  # the zeta went in
    assert np.array_equal(pol.bank.gram[0], np.outer(stored, stored))
    assert not pol.bank.gram[1].any()
    assert np.array_equal(pol.bank.moment[0], (0.5 + pay[0]) * stored)


def test_zero_budget_restricted_pays_nothing_and_skips_rng():
    pol = build_policy(PolicyConfig(kind="chained_restricted", budget=0.0), 3, 2)
    rng = rng_for(5)
    pol.picks = rng
    state_before = rng.bit_generator.state
    pay = pol.calc_payments(1, np.array([1.0, 0.0]), np.zeros(3))
    assert np.array_equal(pay, np.zeros(3))
    assert rng.bit_generator.state == state_before  # stream untouched


def test_restricted_budget_never_goes_negative():
    pol = build_policy(PolicyConfig(kind="chained_restricted", budget=0.4), 3, 2)
    # give the arms distinguishable estimates
    for arm, val in ((0, 0.9), (1, 0.1), (2, 0.5)):
        pol.absorb_forced(0, np.array([1.0, 0.0]), arm, val)
        pol.absorb_forced(0, np.array([0.0, 1.0]), arm, 0.0)
    pol.start_run(2, 59, rng_for(6))
    ctx = np.array([1.0, 0.0])
    for t in range(3, 62):
        pol.calc_payments(t, ctx, pol.displayed_estimates().dot(ctx))
        assert pol.budget >= 0.0
    assert pol.budget == 0.0  # 0.4 cannot survive 59 offers here


def test_unrestricted_chained_payment_targets_chain_member():
    pol = build_policy(PolicyConfig(kind="chained_unrestricted"), 3, 2)
    for arm, val in ((0, 0.9), (1, 0.8), (2, -0.9)):
        pol.absorb_forced(0, np.array([1.0, 0.0]), arm, val)
        pol.absorb_forced(0, np.array([0.0, 1.0]), arm, 0.0)
    pol.start_run(1, 1, rng_for(7))
    ctx = np.array([1.0, 0.0])
    pay = pol.calc_payments(2, ctx, pol.displayed_estimates().dot(ctx))
    assert pol.budget == math.inf
    assert np.count_nonzero(pay) <= 1
    assert pay.min() >= 0.0


# -- the interaction loop ----------------------------------------------------

def make_env(attrs, contexts, horizon, cycle=True, seed=0):
    spec = FixedSequenceSpec(contexts=tuple(contexts), cycle=cycle)
    return LinearEnvironment(np.asarray(attrs, float), spec, horizon, rng_for(seed))


def empty_trace(env, cfg):
    return RunTrace.allocate(cfg, env.contexts, env.n_arms)


def test_initial_exploration_is_round_robin_with_zero_payments():
    attrs = [[0.5, 0.0], [0.0, 0.5], [0.3, 0.3]]
    env = make_env(attrs, [np.array([1.0, 0.0])], horizon=7)
    cfg = PolicyConfig(kind="no_payments")
    pol = build_policy(cfg, 3, 2)
    trace, noise = empty_trace(env, cfg), np.zeros(7)
    pol.start_run(7, 0, rng_for(0))
    initial_exploration(pol, env, noise, trace)
    realize_outcomes(env, noise, trace)
    records = trace.records
    assert [r.t for r in records] == list(range(1, 8))
    assert [r.chosen_arm for r in records] == [0, 1, 2, 0, 1, 2, 0]
    for r in records:
        assert np.array_equal(r.payments, np.zeros(3))
        assert r.payment_paid == 0.0
    # every context is e_1, so each arm's G[0, 0] tallies its absorbs
    assert pol.bank.gram[:, 0, 0].tolist() == [3.0, 2.0, 2.0]
    assert np.array_equal(pol.bank.gram[0], 3 * np.outer([1.0, 0.0], [1.0, 0.0]))
    assert np.array_equal(pol.bank.moment[2], [0.6, 0.0])


def test_play_round_record_is_replayable():
    attrs = [[0.5, 0.0], [0.0, 0.5]]
    env = make_env(attrs, [np.array([0.8, 0.6]), np.array([0.6, -0.8])], horizon=2)
    cfg = PolicyConfig(kind="perturbation_payments", sigma_pay=0.5)
    pol = build_policy(cfg, 2, 2)
    trace = empty_trace(env, cfg)
    noise = 0.1 * rng_for(10).standard_normal(2)
    pol.start_run(0, 2, rng_for(11))
    initial_exploration(pol, env, noise, trace)
    outcomes = [play_round(pol, env, noise, trace, t) for t in (1, 2)]
    realize_outcomes(env, noise, trace)
    for rec, outcome in zip(trace.records, outcomes, strict=True):
        assert rec.chosen_arm == agent_choose(rec.displayed_estimates, rec.context, rec.payments)
        assert rec.payment_paid == rec.payments[rec.chosen_arm]
        assert (outcome.chosen_arm, outcome.payment_paid) == (rec.chosen_arm, rec.payment_paid)
        assert rec.inst_regret >= 0.0
        assert rec.observed_reward == rec.true_mean_reward + noise[rec.t - 1]


def test_realize_outcomes_regret_is_gap_to_best_arm():
    env = make_env([[0.2, 0.0], [0.9, 0.0]], [np.array([1.0, 0.0])], horizon=2)
    trace, noise = empty_trace(env, PolicyConfig(kind="no_payments")), np.zeros(2)
    trace.arm[:] = [1, 0]
    realize_outcomes(env, noise, trace)
    assert trace.inst_regret[0] == 0.0  # the best arm
    assert trace.inst_regret[1] == pytest.approx(0.7)  # its gap to the best arm


def test_play_round_snapshot_not_aliased_to_live_estimates():
    attrs = [[0.5, 0.0], [0.0, 0.5]]
    env = make_env(attrs, [np.array([1.0, 0.0])], horizon=2)
    cfg = PolicyConfig(kind="no_payments", estimator_mode="ridge")
    pol = build_policy(cfg, 2, 2)
    trace, noise = empty_trace(env, cfg), np.zeros(2)
    play_round(pol, env, noise, trace, 1)
    frozen = trace.records[0].displayed_estimates.copy()
    play_round(pol, env, noise, trace, 2)
    assert not np.array_equal(pol.displayed_estimates(), frozen)  # the estimates moved on
    assert np.array_equal(trace.records[0].displayed_estimates, frozen)
