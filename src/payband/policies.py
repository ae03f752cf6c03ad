"""Payment strategies the platform can run against myopic agents.

Each round a strategy turns the context and estimated utilities into a
payment vector, the agent picks the arm maximizing estimated utility plus
payment, and the strategy absorbs the realized observation; ground truth
never crosses this interface. The strategies: README "Strategies"; a run:
README "Run engine".
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
# Unused here; perfbench/worker.py looks both up in this module until ROADMAP K.
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
    """The least ``ridge_lambda`` a ridge arm may use over ``horizon`` rounds:
    ``PIVOT_TOL``, an empty arm's pivot, or the rounding a Gram sum of
    ``horizon`` unit contexts can reach (README "Command line")."""
    return max(PIVOT_TOL, dim * horizon ** 2 * 2.0 ** -52)


@dataclass(frozen=True)
class PolicyConfig:
    """Declarative configuration for one strategy (README "Config format").

    ``estimator_mode`` forces "ols" or "ridge" (a ridge ``no_payments`` is the
    exact zero-budget reference of ``chained_restricted``); strategies with
    confidence widths require "ridge". ``harness.check_policy`` holds the
    rules that tie it to an instance.
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
    """Disjoint-model LinUCB pick: argmax of score + alpha * width, ties to the
    lowest arm index. ``scores`` (N,) are the estimated utilities, and the
    widths the context's norms in the (N, d, d) stack ``inverses``, from one
    product."""
    return int((scores + alpha * inv_norms(inverses, context)).argmax())


def build_chain(point_estimates: np.ndarray, widths: np.ndarray, anchor: int) -> list[int]:
    """Arms reachable from the anchor through overlapping confidence intervals.

    Interval i is [e_i - w_i, e_i + w_i]; overlap is closed (touching
    endpoints count) and membership is the transitive closure, so two arms
    can be chained through an intermediate arm without overlapping each
    other. Returns a sorted list that always contains the anchor.

    Sorted by lower endpoint, the intervals split into components wherever a
    lower endpoint exceeds every upper endpoint before it; the chain is the
    anchor's component.
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

    ``bank`` is one ``EstimatorState`` for all N arms, built in ``mode``, the
    strategy's default estimator (README "Strategies"). Each run calls
    ``start_run``, then ``absorb_forced`` or ``calc_payments`` and ``update``
    per round; ``diagnostics`` then holds what that run recorded, while the
    bank and ``budget`` (None when unrestricted) carry over
    (README "Run engine").
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
        """(n_arms, dim) displayed estimates, the bank's ``shown``, zero for an
        arm not yet identifiable. Each absorb rewrites its arm's row in place;
        callers who keep the array must copy."""
        return self.bank.shown

    # -- interaction loop hooks -------------------------------------------

    def start_run(self, explore_m: int, rounds: int, rng: np.random.Generator) -> None:
        """Begin a run of ``explore_m`` mandated rounds and then ``rounds`` free
        ones, the rounds ``free_row`` lets through, with a fresh ``diagnostics``.
        Every per-run draw and record starts here, the only call that hands a
        strategy its stream ``rng`` (README "Run engine")."""
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

    Round i pays every arm ``zetas[i]`` . estimate, zeta ~ N(0, sigma_pay^2 I),
    drawn for all free rounds by ``start_run``. The chosen arm then absorbs
    the perturbed context (context + zeta) with the disbursed payment folded
    into the response; ``effective_contexts`` (also in ``diagnostics``) keeps
    those contexts, one row per free round.
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

    When the LinUCB pick differs from the greedy arm, that arm is paid the
    estimated utility gap, and the tie rule lands the agent on it. Each free
    round's (t, greedy, base) triple goes to ``alignment_log``, which
    ``diagnostics`` shares.
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
    """A run's chain picks from the policy stream ``rng``: ``integers(n)``
    answers what ``rng.integers(n)`` would at the same point of the stream.
    Picks among all arms are drawn ahead; the first other n rewinds the
    stream (README "Run engine"; `test_chained_configs_reach_every_pick_path`).
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

    The anchor is the greedy arm, and the chain every arm whose confidence
    interval overlaps it transitively. One member, drawn from ``picks``, is
    paid the estimated gap to the anchor, which the tie rule makes the agent
    take. A budget clamps each offer and shrinks by it; at zero the strategy
    stops paying. ``absorbed_sq_norms`` is the width floor's S (``chain_is_whole``).
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
        """True when the width floor ``scale >= 2 sqrt(lam + S)`` proves that
        round t chains every arm; it compares Python floats and squares nothing,
        so it cannot overflow. The proof: README "Run engine"; its check:
        `test_width_floor_never_disagrees_with_the_widths`."""
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
# The interaction loop: a run's rounds are rows of its RunTrace, row t - 1 for
# round t. The environment's contexts and true means and ``noise``, the scaled
# reward noise, are drawn before the first round (README "Run engine").
# ---------------------------------------------------------------------------

class RoundOutcome(NamedTuple):
    """The agent's pick in one free round and the payment it was paid."""

    chosen_arm: int
    payment_paid: float


def initial_exploration(policy: Policy, env, noise: np.ndarray, trace: RunTrace) -> None:
    """Mandated round-robin pulls for rounds 1..m, the started policy's
    ``explore_m``: round t forces arm (t - 1) mod n_arms and pays nothing,
    while its regret counts. Every run begins here, even with m = 0, since
    the trace's ``shown_start`` takes the display as the run starts."""
    m = policy.explore_m
    shown = policy.displayed_estimates()
    trace.shown_start[...] = shown
    arms = np.arange(m) % env.n_arms
    trace.arm[:m] = arms
    trace.budget[:m] = policy.budget
    observed = env.means[np.arange(m), arms] + noise[:m]
    for i, arm in enumerate(arms.tolist()):
        policy.absorb_forced(i + 1, env.contexts[i], arm, observed[i])
        trace.shown_log[i] = shown[arm]


def play_round(policy: Policy, env, noise: np.ndarray, trace: RunTrace, t: int) -> RoundOutcome:
    """One free-choice round: payments, agent choice, realization, update, from
    one product of estimated utilities that the strategy and the agent share."""
    i = t - 1
    theta = env.contexts[i]
    shown = policy.displayed_estimates()
    scores = shown.dot(theta)
    payments = policy.calc_payments(t, theta, scores)
    scores += payments
    chosen = agent_pick(scores, payments)
    trace.arm[i] = chosen
    trace.payments[i] = payments
    policy.update(t, theta, chosen, env.means.item(i, chosen) + noise.item(i), payments)
    trace.shown_log[i] = shown[chosen]  # the absorb rewrote only this row of the display
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
