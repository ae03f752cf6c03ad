"""Payment strategies the platform can run against myopic agents.

All strategies share one per-round contract: given the round's context they
produce a payment vector, the agent picks the arm maximizing estimated utility
plus payment, and the strategy then absorbs the realized observation. Five
strategies are provided:

* ``no_payments``            - passive baseline; agents act greedily on the
                               displayed estimates.
* ``perturbation_payments``  - draws a Gaussian vector each round and pays
                               each arm that vector dotted with the arm's
                               estimate, which makes the agent behave as if
                               the context itself were perturbed; the chosen
                               arm's estimator absorbs the perturbed context
                               with the payment folded into the response.
* ``linucb_alignment``       - runs a disjoint-model LinUCB choice internally
                               and, when it disagrees with the greedy arm,
                               pays the LinUCB arm the estimated utility gap
                               so the agent's choice lands on it.
* ``chained_unrestricted``   - builds confidence intervals per arm, chains
                               together every arm whose interval overlaps the
                               greedy arm's (transitively), picks a chain
                               member uniformly at random and pays it the
                               estimated gap to the greedy arm.
* ``chained_restricted``     - same, but clamps each payment to a finite
                               budget that depletes as payments are offered;
                               at zero budget it degenerates to no_payments.

Every strategy is built (``build_policy``), started (``start_run``) with the
run's exploration length, free-round count and random stream, played round by
round, and read back through ``diagnostics``. Strategies only ever see contexts,
payments, and realized rewards; ground truth never crosses this interface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple, Optional

import numpy as np

from .estimation import (
    OLS,
    PIVOT_TOL,
    RIDGE,
    EstimatorState,
    confidence_width,
    inv_norms,
    width_scale,
)
from .model import MAX_MAGNITUDE, ConfigError, agent_pick
# No round calls agent_choose or realize_from_mean any more (play_round
# reuses the round's scores, and noise is drawn per run), but
# perfbench/worker.py still looks both up in this module.
from .model import agent_choose  # noqa: F401
from .environment import realize_from_mean  # noqa: F401

if TYPE_CHECKING:
    from .metrics import RunTrace

NO_PAYMENTS = "no_payments"
PERTURBATION = "perturbation_payments"
LINUCB_ALIGNMENT = "linucb_alignment"
CHAINED_UNRESTRICTED = "chained_unrestricted"
CHAINED_RESTRICTED = "chained_restricted"

def ridge_lambda_floor(dim: int, horizon: int) -> float:
    """The least ``ridge_lambda`` a ridge arm may use over ``horizon`` rounds.

    An empty arm's pivots are lambda, so lambda must pass ``PIVOT_TOL``. The
    Gram matrix then sums up to ``horizon`` outer products of unit-ball
    contexts, and rounding in that sum can move its least eigenvalue by up
    to about ``dim * horizon**2 * 2**-52``; on rank-deficient contexts that
    is all that keeps the pivots of G + lambda*I positive, so lambda must
    cover it too.
    """
    return max(PIVOT_TOL, dim * horizon ** 2 * 2.0 ** -52)


@dataclass(frozen=True)
class PolicyConfig:
    """Declarative configuration for one strategy.

    ``init_explore_m`` overrides the instance-level initial exploration
    length when set; ``ExperimentConfig`` checks it against the horizon.
    ``estimator_mode`` forces "ols" or "ridge" (the ridge override on
    no_payments gives an exact zero-budget reference for the restricted
    chained strategy); strategies with confidence widths require "ridge".
    Ridge mode needs ``ridge_lambda >= PIVOT_TOL``, an empty arm's pivot;
    ``ExperimentConfig`` checks it against ``ridge_lambda_floor`` too.
    """

    kind: str
    sigma_pay: float = 1.0
    ridge_lambda: float = 1.0
    delta: float = 0.1
    linucb_alpha: float = 1.0
    budget: Optional[float] = None
    init_explore_m: Optional[int] = None
    estimator_mode: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in _POLICY_CLASSES:
            raise ConfigError("kind", f"one of {', '.join(POLICY_KINDS)}", self.kind)
        for name in ("sigma_pay", "ridge_lambda", "delta", "linucb_alpha", "budget"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ConfigError(name, "finite number", value)
        if not 0 <= self.sigma_pay <= MAX_MAGNITUDE:
            raise ConfigError("sigma_pay", f"number in [0, {MAX_MAGNITUDE:g}]", self.sigma_pay)
        if not (0 < self.delta < 1):
            raise ConfigError("delta", "in (0, 1)", self.delta)
        # A context's inverse-Gram norm is at most 1/sqrt(PIVOT_TOL), so alpha times it is finite.
        if not 0 <= self.linucb_alpha <= MAX_MAGNITUDE:
            raise ConfigError("linucb_alpha", f"number in [0, {MAX_MAGNITUDE:g}]",
                              self.linucb_alpha)
        if self.budget is not None:
            if self.kind != CHAINED_RESTRICTED:
                raise ConfigError("budget", "only applies to chained_restricted", self.budget)
            if self.budget < 0:
                raise ConfigError("budget", ">= 0", self.budget)
        if self.kind == CHAINED_RESTRICTED and self.budget is None:
            raise ConfigError("budget", "chained_restricted requires a budget", None)
        if self.resolved_mode() == RIDGE and self.ridge_lambda < PIVOT_TOL:
            raise ConfigError("ridge_lambda", f">= {PIVOT_TOL:g} in ridge mode", self.ridge_lambda)
        if self.estimator_mode is not None and self.estimator_mode not in (OLS, RIDGE):
            raise ConfigError("estimator_mode", f"one of {OLS}, {RIDGE}", self.estimator_mode)
        if self.estimator_mode == OLS and _POLICY_CLASSES[self.kind].mode == RIDGE:
            raise ConfigError("estimator_mode",
                              f"{RIDGE}: {self.kind} needs confidence widths", OLS)

    def resolved_mode(self) -> str:
        return self.estimator_mode or _POLICY_CLASSES[self.kind].mode


# ---------------------------------------------------------------------------
# Pure strategy operations (unit-testable in isolation).
# ---------------------------------------------------------------------------

def perturbation_payment(estimates: np.ndarray, zeta: np.ndarray) -> np.ndarray:
    """Payment vector p_i = zeta . estimate_i.

    Adding p_i to the estimated utility makes arm i's perceived utility equal
    (context + zeta) . estimate_i, so the agent acts on a perturbed context.
    """
    return np.asarray(estimates, float).dot(np.asarray(zeta, float))


def alignment_payment(scores: np.ndarray, greedy: int, base: int) -> np.ndarray:
    """Pay the base algorithm's arm the utility gap to the greedy arm.

    ``scores`` are the displayed estimated utilities. The gap is clamped at
    zero; when greedy == base no payment is needed.
    """
    pay = np.zeros(len(scores))
    if base != greedy:
        pay[base] = max(scores.item(greedy) - scores.item(base), 0.0)
    return pay


def linucb_choose(inverses: np.ndarray, scores: np.ndarray,
                  context: np.ndarray, alpha: float) -> int:
    """Disjoint-model LinUCB pick: argmax of score + alpha * width.

    ``scores`` (N,) are the estimated utilities estimate_i . context. The
    widths are the context norms in the arms' inverse regularized Gram
    metrics, the (N, d, d) stack ``inverses``, all from one product. Ties
    break toward the lowest arm index.
    """
    return int((scores + alpha * inv_norms(inverses, context)).argmax())


def build_chain(point_estimates: np.ndarray, widths: np.ndarray, anchor: int) -> list[int]:
    """Arms reachable from the anchor through overlapping confidence intervals.

    Interval i is [e_i - w_i, e_i + w_i]; overlap is closed (touching
    endpoints count) and membership is the transitive closure, so two arms
    can be chained through an intermediate arm without overlapping each
    other. Returns a sorted list that always contains the anchor.

    Sorted by lower endpoint, the intervals split into components wherever a
    lower endpoint exceeds every upper endpoint before it; the chain is the
    anchor's component. ``ChainedPolicy`` calls this only on rounds where
    its width floor cannot show that the chain is every arm.
    """
    e = np.asarray(point_estimates, float)
    w = np.asarray(widths, float)
    lo, hi = (e - w).tolist(), (e + w).tolist()
    chain: list[int] = []
    reach = -math.inf
    found = False
    for i in sorted(range(len(lo)), key=lo.__getitem__):
        if lo[i] > reach:  # nothing so far reaches interval i: a new component
            if found:
                break
            chain = []
        chain.append(i)
        found = found or i == anchor
        reach = max(reach, hi[i])
    return sorted(chain)


def chained_payment(members: list[int], point_estimates: np.ndarray, anchor: int,
                    picks,
                    budget: Optional[float] = None) -> tuple[np.ndarray, int, float, Optional[float]]:
    """Pick a chain member uniformly and pay it the estimated gap to the anchor.

    Returns (payments, picked member, offered amount, new budget). With a
    budget the offered amount is clamped to what remains and the budget is
    reduced by the offer itself, so offers can never overshoot it. The pick
    is one ``picks.integers(len(members))`` call, so ``picks`` is anything
    that answers it like a Generator: in a run, ``ChainedPolicy.picks``.
    """
    e = np.asarray(point_estimates, float)
    pay = np.zeros(len(e))
    j = int(members[picks.integers(len(members))])
    amount = e.item(anchor) - e.item(j)  # >= 0: the anchor maximizes e
    if budget is not None:
        amount = min(amount, budget)
        budget = budget - amount
    pay[j] = amount
    return pay, j, amount, budget


# ---------------------------------------------------------------------------
# Stateful strategy objects driven by the interaction loop.
# ---------------------------------------------------------------------------

class Policy:
    """Base class: a strategy's arm bank and the round hooks that feed it.

    ``bank`` is one ``EstimatorState`` for all N arms. Each run calls
    ``start_run``, then ``absorb_forced`` or ``calc_payments`` and ``update``
    per round; ``diagnostics`` then holds what that run recorded. Runs share
    what the object learned: the bank and ``budget``, None when unrestricted.

    ``mode`` is the strategy's default estimator. The passive baseline and
    the perturbation strategy use plain least squares with a zero-vector
    display before identifiability; everything that needs confidence
    geometry uses ridge regression, which keeps every Gram matrix positive
    definite.
    """

    mode = OLS

    def __init__(self, config: PolicyConfig, n_arms: int, dim: int) -> None:
        self.config = config
        self.n_arms = n_arms
        self.dim = dim
        mode = config.resolved_mode()
        lam = config.ridge_lambda if mode == RIDGE else 0.0
        self.bank = EstimatorState(dim, mode, lam, n_arms)
        self.budget = config.budget
        self.explore_m = 0
        self.rounds = 0  # no round is free before start_run

    def displayed_estimates(self) -> np.ndarray:
        """(n_arms, dim) matrix of displayed estimates, the bank's ``shown``.

        Arms whose least-squares system is still rank deficient display the
        zero vector. Each absorb rewrites its arm's row in place; callers
        who keep the array must copy.
        """
        return self.bank.shown

    # -- interaction loop hooks -------------------------------------------

    def start_run(self, explore_m: int, rounds: int, rng: np.random.Generator) -> None:
        """Begin a run of ``explore_m`` mandated rounds and then ``rounds`` free
        ones, the rounds ``free_row`` lets through, with a fresh ``diagnostics``.
        Every per-run draw and record starts here, the only call that hands a
        strategy its stream ``rng``: the perturbation zetas, and the chained
        strategies' picks among all arms (``ChainPicks``), drawn ahead. The
        budget carries over: the chained width floor needs one that never rises."""
        self.explore_m = explore_m
        self.rounds = rounds
        self.diagnostics = {}

    def free_row(self, t: int) -> int:
        """Row of free round t in the run's draws; raises outside them, before any read."""
        i = t - self.explore_m - 1
        if not 0 <= i < self.rounds:
            raise RuntimeError(f"round {t} is not a free round of the run; call start_run")
        return i

    def calc_payments(self, t: int, context: np.ndarray, scores: np.ndarray) -> np.ndarray:
        """The payment vector of free round t. ``scores`` are the round's
        estimated utilities ``displayed_estimates().dot(context)``; a strategy
        reads them and keeps no reference."""
        raise NotImplementedError

    def update(self, t: int, context: np.ndarray, chosen: int, observed: float,
               payments: np.ndarray) -> None:
        """Absorb the round's observation (overridden by the perturbation strategy)."""
        self.bank.absorb(context, observed, chosen)

    def absorb_forced(self, t: int, context: np.ndarray, arm: int, observed: float) -> None:
        """Mandated pull during initial exploration: plain absorb, no payment."""
        self.bank.absorb(context, observed, arm)


class NoPaymentsPolicy(Policy):
    """Passive baseline: never pays, agents follow the greedy estimate."""

    def calc_payments(self, t, context, scores):
        return np.zeros(self.n_arms)


class PerturbationPaymentsPolicy(Policy):
    """Gaussian payment perturbations that emulate context diversity.

    Each round takes its zeta ~ N(0, sigma_pay^2 I) and pays every arm
    zeta . estimate. The chosen arm's regression then absorbs the perturbed
    context (context + zeta) with the disbursed payment folded into the
    response, keeping the absorbed pairs consistent with the perturbed
    linear model. ``start_run`` draws the ``zetas`` of all free rounds in one
    (rounds, dim) call, which holds the bits of one (dim,) draw per round;
    ``effective_contexts`` (also in ``diagnostics``) keeps the perturbed
    contexts, one row per free round, for diversity diagnostics.
    """

    def start_run(self, explore_m, rounds, rng):
        super().start_run(explore_m, rounds, rng)
        self.zetas = self.config.sigma_pay * rng.standard_normal((rounds, self.dim))
        self.effective_contexts = self.diagnostics["effective_contexts"] = \
            np.empty_like(self.zetas)

    def calc_payments(self, t, context, scores):
        i = self.free_row(t)
        return perturbation_payment(self.displayed_estimates(), self.zetas[i])

    def update(self, t, context, chosen, observed, payments):
        i = self.free_row(t)
        perturbed = np.add(context, self.zetas[i], out=self.effective_contexts[i])
        self.bank.absorb(perturbed, observed + payments.item(chosen), chosen)


class LinUCBAlignmentPolicy(Policy):
    """Pays the utility gap to steer agents onto an internal LinUCB choice.

    When the LinUCB pick differs from the greedy arm, that arm receives a
    payment equal to the estimated utility gap; the tie rule in agent_choose
    then lands the agent exactly on the LinUCB pick. Rounds where the two
    agree need no payment. The (t, greedy, base) triples are logged per
    round in ``alignment_log``, which ``diagnostics`` shares.
    """

    mode = RIDGE

    def start_run(self, explore_m, rounds, rng):
        super().start_run(explore_m, rounds, rng)
        self.alignment_log = self.diagnostics["alignment_log"] = []

    def calc_payments(self, t, context, scores):
        self.free_row(t)
        greedy = int(scores.argmax())
        base = linucb_choose(self.bank.current_inverses(), scores, context,
                             self.config.linucb_alpha)
        self.alignment_log.append((t, greedy, base))
        return alignment_payment(scores, greedy, base)


class ChainPicks:
    """A run's chain picks, drawn from the policy stream ``rng`` ahead.

    ``integers(n)`` answers what ``rng.integers(n)`` would at the same point
    of the stream, which nothing else draws from during the run. The answers
    for n = ``n_arms`` are drawn at construction in one ``rng.integers(n_arms,
    size=rounds)`` call, which holds the bits of one call per round. The
    first request for another n restores the stream's state from before that
    call, replays the k picks used so far with ``rng.integers(n_arms,
    size=k)``, and draws that request and every later one from the stream.
    """

    def __init__(self, rng: np.random.Generator, n_arms: int, rounds: int) -> None:
        self.rng = rng
        self.n_arms = n_arms
        self.state = rng.bit_generator.state
        self.ahead = rng.integers(n_arms, size=rounds).tolist()
        self.used = 0

    def integers(self, n: int) -> int:
        used = self.used
        if used < len(self.ahead):
            if n == self.n_arms:
                self.used = used + 1
                return self.ahead[used]
            self.rng.bit_generator.state = self.state
            self.rng.integers(self.n_arms, size=used)
        self.ahead = []  # the stream has drawn exactly the picks used: draw from it
        return self.rng.integers(n)


class ChainedPolicy(Policy):
    """Randomizes over the chain of statistically indistinguishable arms.

    The anchor is the greedy arm; any arm whose confidence interval overlaps
    the chain transitively joins it. One member is drawn uniformly and paid
    the estimated gap to the anchor, which under the tie rule makes the agent
    take that member. With a budget, offers are clamped to the remaining
    amount and the budget is decremented by each offer; once it reaches zero
    the strategy stops paying entirely.

    Most rounds need neither the widths nor the chain: ``chain_is_whole``
    shows from two floats that every interval meets every other. Picks come
    only from ``picks``, the ``ChainPicks`` that ``start_run`` sets; a test
    may set any object whose ``integers(n)`` answers like a Generator.
    ``absorbed_sq_norms`` is the floor's S, the sum of ||x||^2 over every
    context the bank has absorbed while the budget was positive.
    """

    mode = RIDGE

    def __init__(self, config, n_arms, dim):
        super().__init__(config, n_arms, dim)
        self.absorbed_sq_norms = 0.0
        self._arms = range(n_arms)

    def start_run(self, explore_m, rounds, rng):
        super().start_run(explore_m, rounds, rng)
        self.picks = ChainPicks(rng, self.n_arms, rounds)

    def chain_is_whole(self, t: int) -> bool:
        """True when the width floor proves that round t chains every arm.

        Each displayed estimate has norm at most 1, so two estimated
        utilities differ by at most 2 ||x||. Arm i's Gram matrix G_i sums
        outer products of absorbed contexts, so its largest eigenvalue is at
        most tr G_i <= S, and ||x|| in the (G_i + lam I)^-1 metric is at least
        ||x|| / sqrt(lam + S): every width is at least ||x|| * scale /
        sqrt(lam + S). With scale >= 2 sqrt(lam + S) every width is at least
        2 ||x||, so each interval holds every estimate. The proof needs only
        scale >= sqrt(lam + S); the factor 2 covers the rounding of the
        computed widths and estimates. The comparison is of Python floats
        and squares nothing, so it cannot overflow.
        """
        lam = self.config.ridge_lambda
        scale = width_scale(lam, self.dim, self.config.delta, self.explore_m, t)
        return scale >= 2.0 * math.sqrt(lam + self.absorbed_sq_norms)

    def calc_payments(self, t, context, scores):
        if self.budget is not None and self.budget <= 0:
            return np.zeros(self.n_arms)
        self.free_row(t)
        anchor = int(scores.argmax())
        # The refactors happen now either way: their timing sets the bits of later updates.
        inverses = self.bank.current_inverses()
        if self.chain_is_whole(t):
            members = self._arms
        else:
            widths = confidence_width(inverses, self.config.ridge_lambda, context,
                                      self.config.delta, self.explore_m, t)
            members = build_chain(scores, widths, anchor)
        pay, _, _, self.budget = chained_payment(members, scores, anchor, self.picks, self.budget)
        return pay

    def update(self, t, context, chosen, observed, payments):
        self.bank.absorb(context, observed, chosen)
        # S is read only while the budget is positive, and a budget never rises.
        if self.budget is None or self.budget > 0:
            self.absorbed_sq_norms += float(np.dot(context, context))

    def absorb_forced(self, t, context, arm, observed):
        self.update(t, context, arm, observed, None)


_POLICY_CLASSES = {
    NO_PAYMENTS: NoPaymentsPolicy,
    PERTURBATION: PerturbationPaymentsPolicy,
    LINUCB_ALIGNMENT: LinUCBAlignmentPolicy,
    CHAINED_UNRESTRICTED: ChainedPolicy,
    CHAINED_RESTRICTED: ChainedPolicy,
}

POLICY_KINDS = tuple(_POLICY_CLASSES)


def build_policy(config: PolicyConfig, n_arms: int, dim: int) -> Policy:
    return _POLICY_CLASSES[config.kind](config, n_arms, dim)


# ---------------------------------------------------------------------------
# The interaction loop. A run's rounds are rows of its RunTrace: row t - 1
# holds round t. The environment supplies every round's context and true
# means, and ``noise`` (horizon,) the reward noise already scaled by the
# noise level, all drawn before the first round. The rounds write the
# columns only they can fill (arm, payments, displayed estimates, budget);
# ``realize_outcomes`` then fills the rest from the arm column in bulk.
# ---------------------------------------------------------------------------

class RoundOutcome(NamedTuple):
    """The agent's pick in one free round and the payment it was paid."""

    chosen_arm: int
    payment_paid: float


def initial_exploration(policy: Policy, env, noise: np.ndarray, trace: RunTrace) -> None:
    """Mandated round-robin pulls for rounds 1..m, the started policy's ``explore_m``.

    Round t forces arm (t - 1) mod n_arms. Payments stay zero (a mandate, not
    a purchase), so these rounds add nothing to payment totals while their
    regret still counts.
    """
    m = policy.explore_m
    arms = np.arange(m) % env.n_arms
    trace.arm[:m] = arms
    trace.budget[:m] = policy.budget
    observed = env.means[np.arange(m), arms] + noise[:m]
    for i, arm in enumerate(arms.tolist()):
        trace.displayed[i] = policy.displayed_estimates()
        policy.absorb_forced(i + 1, env.contexts[i], arm, observed[i])


def play_round(policy: Policy, env, noise: np.ndarray, trace: RunTrace, t: int) -> RoundOutcome:
    """One free-choice round: payments, agent choice, realization, update.

    The round's estimated utilities are one product: the strategy reads
    them, and the agent (``agent_choose``'s rule) adds the payments to them.
    """
    i = t - 1
    theta = env.contexts[i]
    shown = policy.displayed_estimates()
    scores = shown.dot(theta)
    payments = policy.calc_payments(t, theta, scores)
    scores += payments
    chosen = agent_pick(scores, payments)
    trace.arm[i] = chosen
    trace.payments[i] = payments
    trace.displayed[i] = shown
    policy.update(t, theta, chosen, env.means.item(i, chosen) + noise.item(i), payments)
    trace.budget[i] = policy.budget
    return RoundOutcome(chosen, payments.item(chosen))


def realize_outcomes(env, noise: np.ndarray, trace: RunTrace) -> None:
    """Fill each round's chosen-arm columns once every arm is chosen: true
    mean, regret against the best arm, disbursed payment and the observed
    reward (true mean plus the round's noise, as the round observed it)."""
    rows = np.arange(trace.horizon)
    trace.true_mean[:] = env.means[rows, trace.arm]
    trace.inst_regret[:] = env.means.max(axis=1) - trace.true_mean
    trace.paid[:] = trace.payments[rows, trace.arm]
    trace.observed[:] = trace.true_mean + noise
