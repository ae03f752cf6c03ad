"""The run engine: bulk streams and columns against a round-by-round loop."""

import filecmp
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from payband import harness, metrics, policies
from payband.environment import (
    BanditDataset,
    DatasetReplaySpec,
    FixedSequenceSpec,
    GaussianContextSpec,
    realize_from_mean,
)
from payband.harness import child_seed_sequence, run_experiment, run_single, spawn_streams
from payband.metrics import RunTrace
from payband.model import InstanceSpec, agent_choose, unit_ball_rows
from payband.policies import (
    PERTURBATION,
    PolicyConfig,
    build_policy,
    perturbation_payment,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
N_ARMS, DIM, HORIZON, EXPLORE = 3, 3, 40, 6

POLICIES = [
    PolicyConfig(kind="no_payments"),
    PolicyConfig(kind="perturbation_payments", sigma_pay=0.7),
    PolicyConfig(kind="linucb_alignment", linucb_alpha=0.8),
    PolicyConfig(kind="chained_unrestricted", delta=0.2),
    PolicyConfig(kind="chained_restricted", budget=0.5),
    PolicyConfig(kind="chained_restricted", budget=1),  # an integer budget stays one
    # Without exploration the width floor never holds: every round computes
    # the widths and the chain, and a partial chain rewinds the run's picks.
    # With one round of it the floor holds on the first free rounds, and the
    # budget runs out (test_chained_configs_reach_every_pick_path).
    PolicyConfig(kind="chained_unrestricted", init_explore_m=0),
    PolicyConfig(kind="chained_restricted", budget=1.5, init_explore_m=1),
]


def unit_ball_projection(v):
    """One context scaled down to unit norm when it exceeds the unit ball:
    the one-at-a-time oracle for ``unit_ball_rows``."""
    v = np.asarray(v, dtype=float)
    norm = float(np.linalg.norm(v))
    return v / norm if norm > 1.0 else v


def instance(source):
    rng = np.random.default_rng(31)
    attrs = None
    if not isinstance(source, DatasetReplaySpec):
        attrs = rng.normal(size=(N_ARMS, DIM))
        attrs /= np.maximum(1.0, np.linalg.norm(attrs, axis=1, keepdims=True))
    return InstanceSpec(N_ARMS, DIM, HORIZON, attrs, 0.2, source, EXPLORE, 0)


def sources():
    rng = np.random.default_rng(32)
    dataset = BanditDataset(rng.normal(scale=0.6, size=(50, DIM)),
                            rng.integers(N_ARMS, size=50), N_ARMS)
    return {
        "gaussian": GaussianContextSpec(mean=np.array([0.3, -0.1, 0.2]), std=0.7),
        "fixed_cycled": FixedSequenceSpec(contexts=tuple(rng.normal(size=(7, DIM))), cycle=True),
        "dataset": DatasetReplaySpec(dataset, sample_with_replacement=False),
        "dataset_with_replacement": DatasetReplaySpec(dataset, sample_with_replacement=True),
    }


def reference_run(inst, cfg, seed):
    """The run one round at a time: each round draws its own context, noise,
    perturbation and chain pick and builds its own row, as the engine did
    before it drew streams per run. Returns the rows, the perturbed contexts
    and the policy."""
    ctx_rng, noise_rng, policy_rng = spawn_streams(seed)
    source = inst.context_source
    if isinstance(source, DatasetReplaySpec):
        ds, n = source.dataset, len(source.dataset)
        order = (ctx_rng.integers(0, n, size=inst.horizon) if source.sample_with_replacement
                 else ctx_rng.permutation(n)[:inst.horizon])

        def round_inputs(i):
            means = np.zeros(inst.n_arms)
            means[ds.labels[order[i]]] = 1.0
            return unit_ball_projection(ds.features[order[i]]), means
    else:
        def round_inputs(i):
            if isinstance(source, FixedSequenceSpec):
                raw = source.contexts[i % len(source.contexts)]
            else:
                raw = source.mean + source.std * ctx_rng.standard_normal(inst.dim)
            x = unit_ball_projection(raw)
            return x, inst.true_attrs @ x

    policy = build_policy(cfg, inst.n_arms, inst.dim)
    m = cfg.init_explore_m if cfg.init_explore_m is not None else inst.init_explore_m
    # Started on a throwaway stream, the policy's own draws go unused: the
    # perturbation below draws per round, and a chained round's pick is one
    # integers call on the run's stream itself.
    policy.start_run(m, inst.horizon - m, np.random.default_rng(0))
    policy.picks = policy_rng
    rows, effective = [], []
    for t in range(1, inst.horizon + 1):
        x, means = round_inputs(t - 1)
        if t <= m:
            arm, pay = (t - 1) % inst.n_arms, np.zeros(inst.n_arms)
            shown = policy.displayed_estimates().copy()
            observed = realize_from_mean(float(means[arm]), inst.noise_std, noise_rng)
            policy.absorb_forced(t, x, arm, observed)
        else:
            if cfg.kind == PERTURBATION:
                zeta = cfg.sigma_pay * policy_rng.standard_normal(inst.dim)
                pay = perturbation_payment(policy.displayed_estimates(), zeta)
            else:
                pay = policy.calc_payments(t, x, policy.displayed_estimates().dot(x))
            shown = policy.displayed_estimates().copy()
            arm = agent_choose(shown, x, pay)
            observed = realize_from_mean(float(means[arm]), inst.noise_std, noise_rng)
            if cfg.kind == PERTURBATION:
                effective.append(x + zeta)
                policy.absorb_forced(t, x + zeta, arm, observed + float(pay[arm]))
            else:
                policy.update(t, x, arm, observed, pay)
        rows.append({"arm": arm, "payments": pay, "displayed": shown,
                     "shown_log": policy.displayed_estimates()[arm].copy(), "contexts": x,
                     "budget": policy.budget, "true_mean": float(means[arm]),
                     "inst_regret": float(means.max() - means[arm]),
                     "paid": float(pay[arm]), "observed": observed})
    return rows, effective, policy


@pytest.mark.parametrize("source_name", list(sources()))
def test_columns_equal_a_round_by_round_loop(source_name):
    inst = instance(sources()[source_name])
    for pi, cfg in enumerate(POLICIES):
        for run in range(10):
            seed = child_seed_sequence(5, pi, run)
            trace = run_single(inst, cfg, seed)
            rows, effective, policy = reference_run(inst, cfg, seed)
            assert trace.horizon == len(rows) == HORIZON
            for name in RunTrace.COLUMNS:
                want = [row[name] for row in rows]
                got = getattr(trace, name)
                if name == "budget":
                    assert [(type(b), b) for b in got] == [(type(b), b) for b in want]
                else:
                    assert np.array_equal(got, np.array(want)), (cfg.kind, run, name)
            want = np.array([row["displayed"] for row in rows])
            assert np.array_equal(trace.snapshots(), want), (cfg.kind, run)
            if cfg.kind == PERTURBATION:
                assert np.array_equal(trace.diagnostics["effective_contexts"],
                                      np.array(effective))
            if cfg.kind == "linucb_alignment":
                assert trace.diagnostics["alignment_log"] == policy.alignment_log


def warm_start(policy):
    """A few mandated pulls before the run: arm 0 identifiable, arm 1 one
    pull (zero under OLS, not under ridge), the others none."""
    rng = np.random.default_rng(34)
    for k, arm in enumerate([0, 0, 0, 0, 1]):
        policy.absorb_forced(k + 1, unit_ball_projection(rng.normal(size=DIM)), arm,
                             float(rng.normal()))
    return policy


@pytest.mark.parametrize("warm", [False, True], ids=["fresh", "warm"])
@pytest.mark.parametrize("cfg", POLICIES[:5], ids=lambda cfg: cfg.kind)
def test_every_record_path_rebuilds_the_snapshots_the_agent_saw(monkeypatch, cfg, warm):
    inst = instance(sources()["gaussian"])
    policy = build_policy(cfg, N_ARMS, DIM)
    if warm:
        assert warm_start(policy).displayed_estimates().any()
    seen = []

    def seeing(fn):  # a copy of the display as each round begins
        def call(*args, **kwargs):
            seen.append(policy.displayed_estimates().copy())
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(harness, "play_round", seeing(harness.play_round))
    monkeypatch.setattr(policy, "absorb_forced", seeing(policy.absorb_forced))
    trace = run_single(inst, cfg, child_seed_sequence(5, 0, 0), policy=policy)
    assert len(seen) == HORIZON

    def bits(snapshots):
        return [np.asarray(s).tobytes() for s in snapshots]

    want = bits(seen)
    assert bits(r.displayed_estimates for r in list(trace.records)) == want
    assert bits(trace.records[i].displayed_estimates for i in range(HORIZON)) == want
    for rows in (slice(EXPLORE - 2, HORIZON - 3, 3), slice(None, None, -1), slice(7, 7)):
        got = bits(r.displayed_estimates for r in trace.records[rows])
        assert got == want[rows], rows
    assert bits(trace.snapshots()) == want
    assert trace.snapshots().shape == (HORIZON, N_ARMS, DIM)


@pytest.mark.parametrize("cfg", POLICIES[:5] + POLICIES[5:6],
                         ids=lambda cfg: f"{cfg.kind}-{cfg.budget!r}")
def test_iterating_the_records_equals_indexing_them(cfg):
    # Iteration and slices build whole columns of records at once; every
    # field of every record agrees with indexing that row, value and type:
    # an int arm, float rewards, arrays of the same bits, the budget column's
    # own object.
    inst = instance(sources()["gaussian"])
    trace = run_single(inst, cfg, child_seed_sequence(6, 0, 0))
    records = trace.records
    for rows, got in [(range(HORIZON), list(records)),
                      (range(HORIZON)[::-3], records[::-3]),
                      (range(HORIZON)[2:9:2], records[2:9:2])]:
        assert len(got) == len(rows)
        for i, rec in zip(rows, got):
            want = records[i]
            for name, value in vars(want).items():
                other = getattr(rec, name)
                assert type(other) is type(value), (cfg.kind, i, name)
                if isinstance(value, np.ndarray):
                    assert (other.dtype, other.shape, other.tobytes()) == \
                        (value.dtype, value.shape, value.tobytes()), (cfg.kind, i, name)
                else:
                    assert other == value or (other != other and value != value), \
                        (cfg.kind, i, name)
    assert records[-1].t == HORIZON and records[HORIZON:] == []


def test_snapshots_count_negative_rows_from_the_end_and_refuse_rows_outside():
    trace = run_single(instance(sources()["gaussian"]), POLICIES[0], child_seed_sequence(6, 0, 0))
    every = trace.snapshots()
    assert not np.array_equal(every[-1], trace.shown_start)
    assert trace.snapshots((-1, 3, -HORIZON)).tobytes() == every[[-1, 3, 0]].tobytes()
    assert trace.snapshots([-1])[0].tobytes() == trace.records[-1].displayed_estimates.tobytes()
    assert trace.snapshots([]).shape == (0, N_ARMS, DIM)
    for row in (HORIZON, HORIZON + 20, -HORIZON - 1, -HORIZON - 20):
        with pytest.raises(IndexError, match=f"index {row} is out of bounds"):
            trace.snapshots([2, row])


def test_a_finished_trace_holds_no_per_round_snapshot():
    # The agent's (N, d) snapshot per round is rebuilt from one logged (d,)
    # row per round; a trace that kept it would hold N * d cells a round.
    n_arms, dim, horizon, explore = 64, 16, 200, 64
    rng = np.random.default_rng(35)
    inst = InstanceSpec(n_arms, dim, horizon, unit_ball_rows(rng.normal(size=(n_arms, dim))),
                        0.1, GaussianContextSpec(mean=np.zeros(dim), std=0.5), explore, 0)
    for pi, cfg in enumerate(POLICIES[:5]):
        trace = run_single(inst, cfg, child_seed_sequence(3, pi, 0))
        arrays = [a for a in [*vars(trace).values(), *trace.diagnostics.values()]
                  if isinstance(a, np.ndarray)]
        assert all(a.size < horizon * n_arms * dim for a in arrays), cfg.kind
        # The columns, the start rows, the contexts and the perturbed contexts.
        cells = RunTrace.cells(n_arms, dim, horizon) + horizon * dim
        if cfg.kind == PERTURBATION:
            cells += (horizon - explore) * dim
        assert sum(a.nbytes for a in arrays) <= 8 * cells, cfg.kind


def test_chained_configs_reach_every_pick_path(monkeypatch):
    # What the reference loop above checks the chained rounds against: picks
    # from the run's draw on floor rounds and on swept whole chains, a rewind
    # after some of them were used, and a budget that runs out.
    seen = Counter()
    integers, floor = policies.ChainPicks.integers, policies.ChainedPolicy.chain_is_whole

    def counted_integers(picks, n):
        if picks.used < len(picks.ahead):
            seen["rewind after picks" if n != picks.n_arms and picks.used else "drawn ahead"] += 1
        return integers(picks, n)

    def counted_floor(policy, t):
        whole = floor(policy, t)
        seen["floor"] += whole
        return whole

    monkeypatch.setattr(policies.ChainPicks, "integers", counted_integers)
    monkeypatch.setattr(policies.ChainedPolicy, "chain_is_whole", counted_floor)
    for source in sources().values():
        for pi, cfg in enumerate(POLICIES):
            if cfg.init_explore_m is not None:
                for run in range(10):
                    trace = run_single(instance(source), cfg, child_seed_sequence(5, pi, run))
                    seen["budget out"] += cfg.budget is not None and trace.budget[-1] <= 0
    assert seen["floor"] > 100 and seen["drawn ahead"] > 1000, seen
    assert seen["rewind after picks"] > 0 and seen["budget out"] > 10, seen


@pytest.mark.parametrize("dim", [1, 4, 14, 64])
def test_bulk_projection_equals_one_at_a_time(dim):
    rng = np.random.default_rng(dim)
    rows = rng.normal(size=(5000, dim)) * rng.choice([0.05, 0.3, 1.0, 3.0], size=(5000, 1))
    rows[:3] = 0.0
    rows[3] = unit_ball_projection(rows[3] + 1.0)  # on or next to the sphere
    projected = unit_ball_rows(rows)
    assert projected is not rows and not np.array_equal(projected, rows)  # some rows shrank
    assert np.array_equal(projected, np.array([unit_ball_projection(r) for r in rows]))


def test_packaged_presets_equal_the_repo_copies():
    # Acceptance 8 runs the repo-root copy, acceptance 9 the packaged one.
    packaged = harness.preset_config_path("fig1").parent
    names = sorted(p.name for p in (REPO_ROOT / "presets").glob("*.json"))
    assert names == sorted(p.name for p in packaged.glob("*.json")) == [
        "fig1.json", "fig2_like.json"]
    for name in names:
        assert filecmp.cmp(REPO_ROOT / "presets" / name, packaged / name, shallow=False), name


def test_prefix_sums_computed_once_per_strategy(tmp_path, monkeypatch):
    config, diags = harness.load_config_file(REPO_ROOT / "presets" / "fig1.json")
    assert not diags
    config = type(config)(config.instance, config.policies[:2], 3, emit_full_trace=True)
    calls = []

    def counted(traces):
        calls.append(traces)
        return accumulate(traces)

    accumulate = metrics.accumulate
    monkeypatch.setattr(metrics, "accumulate", counted)
    manifest = run_experiment(config, out_dir=tmp_path)
    assert all("trace" in entry for entry in manifest["policies"])
    assert [len(traces) for traces in calls] == [3, 3]  # once per strategy, all its runs
    assert [tr.policy for tr in calls[0]] == [config.policies[0]] * 3
    assert len({id(tr) for traces in calls for tr in traces}) == 2 * 3
