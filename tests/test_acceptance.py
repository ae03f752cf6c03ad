"""Acceptance suite: nine end-to-end behavioral criteria.

Each test prints one terminal-visible [PASS]/[FAIL] line. Shared fig1 runs
(five strategies, ten runs each) are computed once per session in a worker
pool and reused by the replay, regret-slope, and alignment criteria.
"""

import concurrent.futures
import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from payband.environment import (
    FixedSequenceSpec,
    covariate_diversity_report,
)
from payband.estimation import OLS, EstimatorState
from payband.harness import (
    _run_one,
    child_seed_sequence,
    load_config_file,
    preset_config_path,
    run_single,
)
from payband.metrics import payment_bound_ratio
from payband.model import InstanceSpec, agent_choose
from payband.policies import PolicyConfig, build_policy

REPO_ROOT = Path(__file__).resolve().parent.parent


def _report(capsys, ok, num, desc):
    tag = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"[{tag}] acceptance {num}: {desc}")
    assert ok, f"acceptance {num}: {desc}"


# ---------------------------------------------------------------------------
# Shared fixtures.
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def fig1_runs():
    """kind -> (policy config, effective m, list of 10 traces) for the fig1 preset."""
    config, diags = load_config_file(preset_config_path("fig1"))
    assert not diags, diags
    inst = config.instance
    tasks = [
        (inst, pcfg, pi, ri)
        for pi, pcfg in enumerate(config.policies)
        for ri in range(config.n_runs)
    ]
    results = {}
    with concurrent.futures.ProcessPoolExecutor(max_workers=4) as pool:
        for pi, ri, trace in pool.map(_run_one, tasks):
            results[(pi, ri)] = trace
    out = {}
    for pi, pcfg in enumerate(config.policies):
        m = pcfg.init_explore_m if pcfg.init_explore_m is not None else inst.init_explore_m
        out[pcfg.kind] = (pcfg, m, [results[(pi, ri)] for ri in range(config.n_runs)])
    return inst, out


def constant_context_instance(horizon):
    """Worst-case stream for payment-perturbation checks: one repeated context."""
    rng = np.random.default_rng(99)
    attrs = rng.normal(size=(8, 4))
    attrs /= np.maximum(1.0, np.linalg.norm(attrs, axis=1, keepdims=True))
    theta = np.array([0.5, 0.5, 0.5, 0.5])
    return InstanceSpec(
        n_arms=8,
        dim=4,
        horizon=horizon,
        true_attrs=attrs,
        noise_std=0.1,
        context_source=FixedSequenceSpec(contexts=(theta,), cycle=True),
        init_explore_m=32,
        master_seed=7,
    )


# ---------------------------------------------------------------------------
# 1. Estimator correctness against a brute-force oracle.
# ---------------------------------------------------------------------------

def test_acceptance_1_estimator_correctness(capsys):
    start = time.monotonic()
    rng = np.random.default_rng(100)

    for d in range(1, 9):
        truth = rng.normal(size=d)
        truth /= max(1.0, float(np.linalg.norm(truth)))
        state = EstimatorState(d, mode=OLS)
        for c in rng.normal(size=(d, d)):
            state.absorb(c, float(c @ truth))
        assert np.linalg.norm(state.estimate() - truth) < 1e-9

    histories = 0
    worst = 0.0
    while histories < 520:
        d = int(rng.integers(1, 9))
        n = int(rng.integers(d, d + 15))
        contexts = rng.normal(size=(n, d))
        responses = rng.normal(size=n)
        state = EstimatorState(d, mode=OLS)
        for c, y in zip(contexts, responses):
            state.absorb(c, float(y))
        x = np.vstack(contexts)
        want = np.linalg.solve(x.T @ x, x.T @ responses)
        if np.linalg.norm(want) > 1.0:
            want = want / np.linalg.norm(want)
        worst = max(worst, float(np.max(np.abs(state.estimate() - want))))
        histories += 1
    elapsed = time.monotonic() - start
    ok = worst < 1e-8 and elapsed < 10.0
    _report(capsys, ok, 1,
            f"noiseless recovery < 1e-9 and {histories} oracle histories "
            f"(worst dev {worst:.2e}) in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. Every logged round replays: forced rounds are round-robin, free rounds
#    reproduce the agent's argmax from the stored inputs.
# ---------------------------------------------------------------------------

def test_acceptance_2_choice_replay(capsys, fig1_runs):
    inst, runs = fig1_runs
    checked = 0
    bad = 0
    for kind, (pcfg, m, traces) in runs.items():
        for trace in traces:
            for rec in trace.records:
                if rec.t <= m:
                    expect = (rec.t - 1) % inst.n_arms
                    bad += rec.chosen_arm != expect or np.any(rec.payments != 0.0)
                else:
                    replay = agent_choose(rec.displayed_estimates, rec.context, rec.payments)
                    bad += replay != rec.chosen_arm
                checked += 1
    ok = bad == 0 and checked == 5 * 10 * inst.horizon
    _report(capsys, ok, 2,
            f"{checked} rounds across 5 strategies replay exactly ({bad} mismatches)")


# ---------------------------------------------------------------------------
# 3. Cumulative payment growth stays sublinear: per-arm payment sums over a
#    worst-case constant-context stream grow like sqrt(T), not T.
# ---------------------------------------------------------------------------

def test_acceptance_3_payment_growth(capsys):
    start = time.monotonic()
    inst = constant_context_instance(horizon=8000)
    cfg = PolicyConfig(kind="perturbation_payments", sigma_pay=1.0)
    checkpoints = [1000, 2000, 4000, 8000]
    totals = []
    for k in range(10):
        trace = run_single(inst, cfg, child_seed_sequence(0, 0, k))
        offered = np.cumsum([r.payments for r in trace.records], axis=0)
        totals.append([float(np.abs(offered[T - 1]).sum()) for T in checkpoints])
    medians = np.median(np.asarray(totals), axis=0)
    slope = float(np.polyfit(np.log(checkpoints), np.log(medians), 1)[0])
    ratios = [payment_bound_ratio(m, inst.n_arms, T) for m, T in zip(medians, checkpoints)]
    elapsed = time.monotonic() - start
    ok = slope <= 0.65 and max(ratios) <= 3.0 and elapsed < 120.0
    _report(capsys, ok, 3,
            f"median per-arm payment totals {np.round(medians, 1).tolist()} "
            f"grow with slope {slope:.3f} <= 0.65, bound ratios <= {max(ratios):.3f}, "
            f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 4. The payment perturbations induce covariate diversity even when the raw
#    context stream is a single repeated vector.
# ---------------------------------------------------------------------------

def test_acceptance_4_induced_diversity(capsys):
    start = time.monotonic()
    inst = constant_context_instance(horizon=10_000)
    cfg = PolicyConfig(kind="perturbation_payments", sigma_pay=1.0)
    values = []
    for k in range(5):
        trace = run_single(inst, cfg, child_seed_sequence(0, 0, k))
        perturbed = np.asarray(trace.diagnostics["effective_contexts"])
        values.append(covariate_diversity_report(perturbed))
    spread = max(values) - min(values)
    elapsed = time.monotonic() - start
    ok = min(values) >= 0.5 and spread <= 0.2 and elapsed < 30.0
    _report(capsys, ok, 4,
            f"min eigenvalue of perturbed second moment in "
            f"[{min(values):.3f}, {max(values):.3f}] >= 0.5, spread {spread:.3f}, "
            f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 5. A finite payment budget is never overshot, and a zero budget reproduces
#    the passive baseline round-for-round.
# ---------------------------------------------------------------------------

def test_acceptance_5_budget_safety(capsys, fig1_runs):
    inst, _ = fig1_runs
    overshoot = 0
    for budget in (0.0, 0.5, 5.0):
        cfg = PolicyConfig(kind="chained_restricted", budget=budget)
        for k in range(20):
            trace = run_single(inst, cfg, child_seed_sequence(13, 0, k))
            disbursed = np.cumsum([r.payment_paid for r in trace.records])
            if disbursed.max() > budget:
                overshoot += 1
            if any(r.budget_remaining < 0.0 for r in trace.records):
                overshoot += 1

    zero_cfg = PolicyConfig(kind="chained_restricted", budget=0.0)
    twin_cfg = PolicyConfig(kind="no_payments", estimator_mode="ridge")
    twin_mismatch = 0
    for k in range(20):
        a = run_single(inst, zero_cfg, child_seed_sequence(13, 0, k))
        b = run_single(inst, twin_cfg, child_seed_sequence(13, 0, k))
        for ra, rb in zip(a.records, b.records):
            same = (
                ra.chosen_arm == rb.chosen_arm
                and ra.observed_reward == rb.observed_reward
                and ra.inst_regret == rb.inst_regret
                and np.array_equal(ra.payments, rb.payments)
            )
            twin_mismatch += not same
    ok = overshoot == 0 and twin_mismatch == 0
    _report(capsys, ok, 5,
            f"budgets {{0, 0.5, 5.0}} never overshot across 20 seeds; zero-budget "
            f"trace matches the passive baseline ({twin_mismatch} mismatched rounds)")


# ---------------------------------------------------------------------------
# 6. Regret: sublinear growth on the fig1 preset, and escape from a crafted
#    greedy trap that pins the passive baseline at linear regret.
# ---------------------------------------------------------------------------

def _trapped_policy(cfg):
    """Warm-start a strategy with adversarial responses: the inferior arm's
    estimate (0.2 along the context) dominates the superior arm's (0.1)."""
    policy = build_policy(cfg, 2, 2)
    policy.absorb_forced(0, np.array([1.0, 0.0]), 0, 0.2)
    policy.absorb_forced(0, np.array([0.0, 1.0]), 0, 0.0)
    policy.absorb_forced(0, np.array([1.0, 0.0]), 1, 0.1)
    policy.absorb_forced(0, np.array([0.0, 1.0]), 1, 0.3)
    return policy


def test_acceptance_6_regret_sublinearity_and_trap_escape(capsys, fig1_runs):
    start = time.monotonic()
    _, runs = fig1_runs
    _, _, pert_traces = runs["perturbation_payments"]
    curves = np.vstack([
        np.cumsum([r.inst_regret for r in trace.records]) for trace in pert_traces
    ])
    mean_curve = curves.mean(axis=0)
    points = [mean_curve[199], mean_curve[399], mean_curve[799]]
    slope = float(np.polyfit(np.log([200, 400, 800]), np.log(points), 1)[0])

    horizon = 600
    gap = 0.7
    trap = InstanceSpec(
        n_arms=2, dim=2, horizon=horizon,
        true_attrs=np.array([[0.2, 0.0], [0.9, 0.0]]),
        noise_std=0.0,
        context_source=FixedSequenceSpec(contexts=(np.array([1.0, 0.0]),), cycle=True),
        init_explore_m=0,
        master_seed=11,
    )
    base_cfg = PolicyConfig(kind="no_payments")
    stuck = True
    for k in range(20):
        trace = run_single(trap, base_cfg, child_seed_sequence(5, 0, k),
                           policy=_trapped_policy(base_cfg))
        regs = np.array([r.inst_regret for r in trace.records])
        stuck = stuck and bool(np.all(regs == gap))

    pert_cfg = PolicyConfig(kind="perturbation_payments", sigma_pay=1.0)
    hits = total = 0
    for k in range(20):
        trace = run_single(trap, pert_cfg, child_seed_sequence(5, 1, k),
                           policy=_trapped_policy(pert_cfg))
        for rec in trace.records:
            if rec.t > horizon // 2:
                greedy = agent_choose(rec.displayed_estimates, rec.context, np.zeros(2))
                hits += greedy == 1
                total += 1
    frac = hits / total
    elapsed = time.monotonic() - start
    ok = slope <= 0.85 and stuck and frac >= 0.95 and elapsed < 120.0
    _report(capsys, ok, 6,
            f"fig1 regret slope {slope:.3f} <= 0.85; trapped baseline exactly linear "
            f"({gap}/round): {stuck}; perturbed strategy greedy-correct late fraction "
            f"{frac:.3f} >= 0.95; {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 7. Whenever the internal bandit disagrees with the greedy arm, the offered
#    payment actually lands the agent on the bandit's choice.
# ---------------------------------------------------------------------------

def test_acceptance_7_alignment_effectiveness(capsys, fig1_runs):
    _, runs = fig1_runs
    _, _, traces = runs["linucb_alignment"]
    disagreements = aligned = 0
    for trace in traces:
        for t, greedy, base in trace.diagnostics["alignment_log"]:
            if greedy == base:
                continue
            disagreements += 1
            aligned += trace.records[t - 1].chosen_arm == base
    ok = disagreements > 0 and aligned == disagreements
    _report(capsys, ok, 7,
            f"{aligned}/{disagreements} disagreeing rounds landed on the internal "
            f"bandit's arm")


# ---------------------------------------------------------------------------
# 8. Bitwise reproducibility of the CLI run pipeline.
# ---------------------------------------------------------------------------

def _cli(args, cwd):
    code = subprocess.run(
        [sys.executable, "-c",
         "import sys; from payband.cli import main; sys.exit(main(sys.argv[1:]))",
         *args],
        cwd=cwd,
    ).returncode
    return code


def test_acceptance_8_byte_identical_reruns(capsys, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    code_a = _cli(["run", "--config", "presets/fig1.json", "--out", str(out_a)], REPO_ROOT)
    code_b = _cli(["run", "--config", "presets/fig1.json", "--out", str(out_b)], REPO_ROOT)
    files_a = sorted(p.name for p in out_a.glob("*.csv"))
    files_b = sorted(p.name for p in out_b.glob("*.csv"))
    same_names = files_a == files_b and len(files_a) == 10
    identical = same_names and all(
        (out_a / name).read_bytes() == (out_b / name).read_bytes() for name in files_a
    )
    ok = code_a == 0 and code_b == 0 and identical
    _report(capsys, ok, 8,
            f"two CLI runs produced {len(files_a)} byte-identical output files")


# ---------------------------------------------------------------------------
# 9. The dataset-replay pipeline completes for all five strategies.
# ---------------------------------------------------------------------------

def test_acceptance_9_dataset_pipeline_smoke(capsys, tmp_path):
    out = tmp_path / "fig2"
    code = _cli(["preset", "fig2-like", "--out", str(out), "--jobs", "4"], REPO_ROOT)
    files = sorted(out.glob("*_aggregate.csv"))
    monotone = len(files) == 5
    for path in files:
        rows = path.read_text().splitlines()
        header = rows[0].split(",")
        idx = header.index("mean_cum_regret")
        curve = np.array([float(line.split(",")[idx]) for line in rows[1:]])
        monotone = monotone and len(curve) == 2500 and bool(np.all(np.diff(curve) >= 0.0))
    ok = code == 0 and monotone
    _report(capsys, ok, 9,
            f"14-d dataset preset ran 5 strategies to completion with "
            f"nondecreasing mean regret curves")
