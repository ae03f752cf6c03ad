"""Config validation, seeding, the run engine, CSV output, and the CLI."""

import concurrent.futures
import csv
import io
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from payband import harness
from payband.cli import main
from payband.environment import (
    DatasetFormatError,
    FixedSequenceSpec,
    GaussianContextSpec,
    load_dataset_csv,
)
from payband.harness import (
    SEED_ENV_VAR,
    TRACE_COLUMNS,
    child_seed_sequence,
    load_config_file,
    preset_config_path,
    run_cells,
    run_experiment,
    run_single,
    spawn_streams,
    validate_config_data,
)
from payband.estimation import PIVOT_TOL
from payband.metrics import RunTrace, accumulate
from payband.model import MAX_MAGNITUDE, ConfigError, InstanceSpec, most_that_fit
from payband.policies import (
    CHEAPEST_KIND,
    POLICY_KINDS,
    PolicyConfig,
    build_policy,
    ridge_lambda_floor,
)

SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def base_config():
    return {
        "instance": {
            "n_arms": 2,
            "dim": 2,
            "horizon": 12,
            "master_seed": 3,
            "noise_std": 0.1,
            "init_explore_m": 4,
            "context_source": {"kind": "gaussian_iid", "mean": [0.2, 0.1], "std": 0.5},
            "true_attrs": [[0.5, 0.0], [0.0, 0.5]],
        },
        "policies": [{"kind": "no_payments"}],
        "n_runs": 2,
    }


def errors_of(diags):
    return [d for d in diags if d.severity == "error"]


def fields_of(diags):
    return {d.field for d in diags}


def test_valid_config_has_no_diagnostics():
    assert validate_config_data(base_config()) == []


def test_bundled_presets_validate_cleanly():
    for name in ("fig1", "fig2_like"):
        path = preset_config_path(name.replace("_", "-") if name == "fig2_like" else name)
        data = json.loads(path.read_text())
        diags = validate_config_data(data, base_dir=path.parent)
        assert errors_of(diags) == [], (name, diags)


def test_validator_applies_the_env_seed_as_the_cli_does(monkeypatch, capsys):
    path = preset_config_path("fig1")
    monkeypatch.setenv(SEED_ENV_VAR, "-5")
    diags = validate_config_data(json.loads(path.read_text()), base_dir=path.parent)
    assert fields_of(errors_of(diags)) == {SEED_ENV_VAR}
    assert main(["validate", "--config", str(path)]) == 2
    assert SEED_ENV_VAR in capsys.readouterr().err


def test_attr_norm_violation_is_reported():
    cfg = base_config()
    cfg["instance"]["true_attrs"][0] = [1.2, 0.9]
    diags = validate_config_data(cfg)
    assert any("true_attrs[0]" in d.field and "norm" in d.constraint for d in diags)


def test_m_exceeding_horizon_is_reported():
    cfg = base_config()
    cfg["instance"]["init_explore_m"] = 99
    assert any("init_explore_m" in f for f in fields_of(errors_of(validate_config_data(cfg))))


def test_short_initial_exploration_is_a_warning_not_an_error():
    cfg = base_config()
    cfg["instance"]["init_explore_m"] = 1  # below n_arms * dim = 4
    diags = validate_config_data(cfg)
    assert errors_of(diags) == []
    assert any(d.severity == "warning" for d in diags)


def test_budget_on_wrong_policy_kind_is_reported():
    cfg = base_config()
    cfg["policies"] = [{"kind": "no_payments", "budget": 1.0}]
    assert any("policies[0]" in f for f in fields_of(errors_of(validate_config_data(cfg))))


def test_unknown_policy_field_is_reported():
    cfg = base_config()
    cfg["policies"] = [{"kind": "no_payments", "siverity": 2}]
    diags = errors_of(validate_config_data(cfg))
    assert diags and "siverity" in diags[0].actual


def test_unknown_context_kind_is_reported():
    cfg = base_config()
    cfg["instance"]["context_source"] = {"kind": "oracle"}
    assert any("context_source.kind" in f for f in fields_of(validate_config_data(cfg)))


def test_fixed_sequence_must_cover_horizon_unless_cycling():
    cfg = base_config()
    cfg["instance"]["context_source"] = {
        "kind": "fixed_sequence",
        "contexts": [[1.0, 0.0], [0.0, 1.0]],
    }
    diags = errors_of(validate_config_data(cfg))
    assert any("contexts" in f for f in fields_of(diags))
    cfg["instance"]["context_source"]["cycle"] = True
    assert validate_config_data(cfg) == []


def test_missing_dataset_file_is_reported(tmp_path):
    cfg = base_config()
    cfg["instance"]["context_source"] = {"kind": "dataset_replay", "path": "nope.csv"}
    diags = errors_of(validate_config_data(cfg, base_dir=tmp_path))
    assert any("path" in f for f in fields_of(diags))


def test_dataset_dimension_mismatch_is_reported(tmp_path):
    data = tmp_path / "toy.csv"
    data.write_text("0.1,0.2,0.3,0\n0.2,0.1,0.0,1\n")  # 3 features
    cfg = base_config()  # dim = 2
    cfg["instance"]["horizon"] = 2
    cfg["instance"]["init_explore_m"] = 2
    cfg["instance"]["context_source"] = {"kind": "dataset_replay", "path": "toy.csv"}
    del cfg["instance"]["true_attrs"]
    diags = errors_of(validate_config_data(cfg, base_dir=tmp_path))
    assert any("dimension" in d.constraint for d in diags)


def test_errors_in_separate_sections_are_reported_together():
    cfg = base_config()
    cfg["n_runs"] = 0
    cfg["policies"] = [{"kind": "no_payments"}, {"kind": "no_payments", "delta": 2.0}]
    assert fields_of(errors_of(validate_config_data(cfg))) == {"n_runs", "policies[1].delta"}


def bad_instance_fields(cfg):
    cfg["instance"]["n_arms"] = "2"
    cfg["instance"]["noise_std"] = float("nan")


def bad_policy_fields(cfg):
    cfg["policies"] = [{"kind": "perturbation_payments", "sigma_pay": float("nan"),
                        "delta": "x"}]


def no_instance_and_no_runs(cfg):
    del cfg["instance"]
    cfg["n_runs"] = 0


@pytest.mark.parametrize("corrupt, fields", [
    (bad_instance_fields, {"instance.n_arms", "instance.noise_std"}),
    (bad_policy_fields, {"policies[0].sigma_pay", "policies[0].delta"}),
    (no_instance_and_no_runs, {"instance", "n_runs"}),
])
def test_every_bad_field_of_an_object_is_reported(corrupt, fields):
    cfg = base_config()
    corrupt(cfg)
    assert fields_of(errors_of(validate_config_data(cfg))) == fields


def minimal_policies():
    return [{"kind": kind, **({"budget": 1.0} if kind == "chained_restricted" else {})}
            for kind in POLICY_KINDS]


@pytest.mark.parametrize("kind", ["fixed_sequence", "gaussian_iid", "dataset_replay"])
def test_omitted_fields_take_their_constructors_defaults(tmp_path, kind):
    cfg = base_config()
    cfg["policies"] = minimal_policies()
    source = {"fixed_sequence": {"kind": kind, "contexts": [[1.0, 0.0]] * 12},
              "gaussian_iid": {"kind": kind, "mean": [0.2, 0.1], "std": 0.5},
              "dataset_replay": {"kind": kind, "path": "toy.csv"}}[kind]
    cfg["instance"]["context_source"] = source
    if kind == "dataset_replay":
        del cfg["instance"]["true_attrs"]
        (tmp_path / "toy.csv").write_text("".join(f"{i}.0,0.5,{i % 2}\n" for i in range(12)))
    config, diags = harness.load_config_data(cfg, base_dir=tmp_path)
    assert diags == []
    assert config.policies == tuple(PolicyConfig(**p) for p in minimal_policies())
    assert (config.output_dir, config.emit_full_trace) == ("out", True)
    spec = config.instance.context_source
    if kind == "fixed_sequence":
        assert spec.cycle is False
    if kind == "dataset_replay":
        assert spec.sample_with_replacement is False
        assert spec.dataset.standardized is False
        assert len(spec.dataset) == 12  # no header row was skipped


def test_diagnostics_render_field_constraint_and_actual():
    cfg = base_config()
    cfg["n_runs"] = 0
    (diag,) = errors_of(validate_config_data(cfg))
    text = str(diag)
    assert "n_runs" in text and "1" in text and "0" in text


# -- seeding -----------------------------------------------------------------

def test_child_seeds_are_unique_across_the_grid():
    keys = {
        child_seed_sequence(9, pi, ri).spawn_key
        for pi in range(10)
        for ri in range(10)
    }
    assert len(keys) == 100


def test_child_seed_depends_on_master():
    a = spawn_streams(child_seed_sequence(1, 0, 0))[0].standard_normal(4)
    b = spawn_streams(child_seed_sequence(2, 0, 0))[0].standard_normal(4)
    assert not np.array_equal(a, b)


def test_spawn_streams_idempotent_and_distinct():
    seed = child_seed_sequence(5, 1, 2)
    first = [g.standard_normal(6) for g in spawn_streams(seed)]
    second = [g.standard_normal(6) for g in spawn_streams(seed)]
    for a, b in zip(first, second):
        assert np.array_equal(a, b)
    assert not np.array_equal(first[0], first[1])
    assert not np.array_equal(first[1], first[2])
    # plain integers are accepted too
    spawn_streams(123)


def small_instance(horizon=20):
    attrs = np.array([[0.6, 0.0], [0.0, 0.6]])
    spec = FixedSequenceSpec(
        contexts=(np.array([0.8, 0.6]), np.array([0.6, -0.8])), cycle=True
    )
    return InstanceSpec(2, 2, horizon, attrs, 0.1, spec, 4, 3)


def test_run_single_is_deterministic_per_seed():
    inst = small_instance()
    cfg = PolicyConfig(kind="perturbation_payments", sigma_pay=0.5)
    a = run_single(inst, cfg, child_seed_sequence(3, 0, 0))
    b = run_single(inst, cfg, child_seed_sequence(3, 0, 0))
    c = run_single(inst, cfg, child_seed_sequence(3, 0, 1))
    for ra, rb in zip(a.records, b.records):
        assert ra.chosen_arm == rb.chosen_arm
        assert ra.observed_reward == rb.observed_reward
        assert np.array_equal(ra.payments, rb.payments)
    assert any(
        ra.observed_reward != rc.observed_reward for ra, rc in zip(a.records, c.records)
    )


def test_run_single_copies_each_strategys_diagnostics():
    inst = small_instance()
    free = inst.horizon - inst.init_explore_m
    want = {"perturbation_payments": {"effective_contexts"},
            "linucb_alignment": {"alignment_log"}}
    for kind in POLICY_KINDS:
        cfg = PolicyConfig(kind=kind, budget=1.0 if kind == "chained_restricted" else None)
        trace = run_single(inst, cfg, child_seed_sequence(3, 0, 0))
        assert set(trace.diagnostics) == want.get(kind, set()), kind
        assert all(len(value) == free for value in trace.diagnostics.values()), kind


def test_one_policy_object_records_each_run_alone():
    # An injected policy keeps what it learned across runs, but start_run
    # begins its records afresh: each trace holds its own run's only.
    inst = small_instance()
    free_rounds = list(range(inst.init_explore_m + 1, inst.horizon + 1))
    for kind in POLICY_KINDS:
        cfg = PolicyConfig(kind=kind, budget=1.0 if kind == "chained_restricted" else None)
        pol = build_policy(cfg, inst.n_arms, inst.dim)
        first = run_single(inst, cfg, child_seed_sequence(3, 0, 0), policy=pol)
        kept = {name: np.copy(value) for name, value in first.diagnostics.items()}
        second = run_single(inst, cfg, child_seed_sequence(3, 0, 1), policy=pol)
        for trace in (first, second):
            values = trace.diagnostics.values()
            assert all(len(value) == len(free_rounds) for value in values), kind
            log = trace.diagnostics.get("alignment_log", [])
            assert [t for t, _, _ in log] in ([], free_rounds), kind
        assert set(first.diagnostics) == set(kept), kind
        for name, value in kept.items():
            assert np.array_equal(first.diagnostics[name], value), (kind, name)


def test_run_single_respects_policy_level_exploration_override():
    inst = small_instance()
    cfg = PolicyConfig(kind="no_payments", init_explore_m=8)
    tr = run_single(inst, cfg, child_seed_sequence(3, 0, 0))
    assert [r.chosen_arm for r in tr.records[:8]] == [0, 1, 0, 1, 0, 1, 0, 1]
    assert all(np.all(r.payments == 0.0) for r in tr.records[:8])


# -- config file loading -----------------------------------------------------

def test_load_config_file_round_trip(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(base_config()))
    config, diags = load_config_file(p)
    assert diags == []
    assert config.instance.n_arms == 2
    assert config.instance.master_seed == 3
    assert config.n_runs == 2


def test_env_var_overrides_master_seed(tmp_path, monkeypatch):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(base_config()))
    monkeypatch.setenv(SEED_ENV_VAR, "991")
    config, _ = load_config_file(p)
    assert config.instance.master_seed == 991


def test_non_integer_env_seed_is_rejected(tmp_path, monkeypatch):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(base_config()))
    monkeypatch.setenv(SEED_ENV_VAR, "not-a-seed")
    config, diags = load_config_file(p)
    assert config is None
    assert any(SEED_ENV_VAR in d.field for d in diags)


def test_negative_env_seed_is_rejected_before_any_run(tmp_path, monkeypatch, capsys):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(base_config()))
    monkeypatch.setenv(SEED_ENV_VAR, "-1")
    assert main(["validate", "--config", str(p)]) == 2
    assert SEED_ENV_VAR in capsys.readouterr().err
    dataset = preset_config_path("fig2-like").parent / "fig2_synth.csv"
    out = tmp_path / "out"
    assert main(["preset", "fig2-like", "--dataset", str(dataset), "--out", str(out)]) == 2
    assert SEED_ENV_VAR in capsys.readouterr().err
    assert not out.exists()


def test_malformed_json_reports_a_diagnostic(tmp_path, capsys):
    p = tmp_path / "broken.json"
    for content in (b"{ nope",
                    b"\xff\xfe{\x00}\x00",  # not UTF-8
                    b"[" * 200_000 + b"]" * 200_000,  # deeper than the parser recurses
                    b'{"n_runs": 1' + b"0" * 5000 + b"}"):  # more digits than int() reads
        p.write_bytes(content)
        config, diags = load_config_file(p)
        assert config is None and [d.constraint for d in diags] == ["readable JSON file"]
        assert main(["validate", "--config", str(p)]) == 2
        assert main(["run", "--config", str(p), "--out", str(tmp_path / "out")]) == 2
        assert "readable JSON file" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_a_byte_order_mark_before_the_config_is_skipped(tmp_path, capsys):
    p = tmp_path / "fig1.json"
    p.write_bytes(b"\xef\xbb\xbf" + preset_config_path("fig1").read_bytes())
    assert main(["validate", "--config", str(p)]) == 0
    assert capsys.readouterr() == ("config valid\n", "")


BEYOND_FLOAT64 = 10 ** 400


@pytest.mark.parametrize("field", [
    "instance.noise_std", "policies[0].sigma_pay", "instance.context_source.mean",
    "instance.true_attrs[1]", "instance.horizon",
])
def test_integer_literals_beyond_float64_fail_validation(tmp_path, capsys, field):
    data = base_config()
    inst = data["instance"]
    if field == "instance.noise_std":
        inst["noise_std"] = BEYOND_FLOAT64
    elif field == "policies[0].sigma_pay":
        data["policies"] = [{"kind": "perturbation_payments", "sigma_pay": BEYOND_FLOAT64}]
    elif field == "instance.context_source.mean":
        inst["context_source"]["mean"] = [BEYOND_FLOAT64, 0]
    elif field == "instance.true_attrs[1]":
        inst["true_attrs"][1] = [0, BEYOND_FLOAT64]
    else:  # with a ridge strategy, whose lambda floor grows with horizon**2
        inst["horizon"] = BEYOND_FLOAT64
        data["policies"].append({"kind": "chained_unrestricted"})
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(data))
    assert main(["validate", "--config", str(p)]) == 2
    assert field in capsys.readouterr().err
    assert main(["run", "--config", str(p), "--out", str(tmp_path / "out")]) == 2
    assert field in capsys.readouterr().err


# -- the run engine and CSV output -------------------------------------------

def run_config(tmp_path):
    data = base_config()
    data["policies"] = [
        {"kind": "no_payments"},
        {"kind": "chained_restricted", "budget": 1.0},
    ]
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(data))
    config, diags = load_config_file(p)
    assert diags == []
    return config


def test_run_experiment_writes_expected_files(tmp_path):
    config = run_config(tmp_path)
    manifest = run_experiment(config, out_dir=tmp_path / "out")
    assert len(manifest["policies"]) == 2
    for entry in manifest["policies"]:
        agg = tmp_path / "out" / (entry["label"] + "_aggregate.csv")
        trace = tmp_path / "out" / (entry["label"] + "_trace.csv")
        assert agg.exists() and trace.exists()
        with open(trace) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == config.n_runs * config.instance.horizon
        with open(agg) as fh:
            arows = list(csv.DictReader(fh))
        assert len(arows) == config.instance.horizon


def test_trace_budget_column_only_for_budgeted_strategies(tmp_path):
    config = run_config(tmp_path)
    run_experiment(config, out_dir=tmp_path / "out")
    with open(tmp_path / "out" / "p0_no_payments_trace.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert all(r["budget_remaining"] == "" for r in rows)
    with open(tmp_path / "out" / "p1_chained_restricted_trace.csv") as fh:
        rows = list(csv.DictReader(fh))
    remaining = [float(r["budget_remaining"]) for r in rows]
    assert all(b >= 0.0 for b in remaining)
    assert remaining[0] <= 1.0


def test_trace_floats_round_trip_exactly(tmp_path):
    config = run_config(tmp_path)
    manifest = run_experiment(config, out_dir=tmp_path / "out")
    inst = config.instance
    tr = run_single(inst, config.policies[0], child_seed_sequence(inst.master_seed, 0, 0))
    with open(manifest["policies"][0]["trace"]) as fh:
        rows = [r for r in csv.DictReader(fh) if r["run"] == "0"]
    assert len(rows) == inst.horizon
    for row, rec in zip(rows, tr.records):
        assert float(row["inst_regret"]) == rec.inst_regret
        assert float(row["inst_payment_disbursed"]) == rec.payment_paid
    assert list(rows[0].keys()) == TRACE_COLUMNS


def test_dataset_is_read_once_per_experiment(tmp_path, monkeypatch):
    (tmp_path / "toy.csv").write_text(
        "\n".join(f"{i % 3 * 0.3},{i % 5 * 0.2},{i % 2}" for i in range(12)))
    data = base_config()
    data["instance"]["context_source"] = {"kind": "dataset_replay", "path": "toy.csv"}
    del data["instance"]["true_attrs"]
    data["policies"] = [{"kind": "no_payments"}, {"kind": "perturbation_payments"}]
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(data))
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return load_dataset_csv(*args, **kwargs)

    monkeypatch.setattr(harness, "load_dataset_csv", counted)
    config, diags = load_config_file(p)
    assert errors_of(diags) == []
    manifest = run_experiment(config, out_dir=tmp_path / "out")
    assert len(manifest["policies"]) == 2 and config.n_runs == 2
    assert len(calls) == 1


# Cells whose text a writer could get wrong: a signed zero, exponent forms on
# both sides, the smallest subnormal.
AWKWARD_FLOATS = [-0.0, 1e-05, 1e+16, 5e-324]


def csv_module_lines(rows):
    """The text ``csv.writer`` writes for rows of already formatted cells."""
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def cell(value):
    """A cell as the csv-module writers formatted it: repr of a float, the
    digits of an int, nothing for a missing budget."""
    if value is None:
        return ""
    return str(value) if isinstance(value, int) else repr(float(value))


def awkward_traces():
    # Runs of one kind, whose budget columns hold None in one and numbers in the other.
    traces = []
    cfg = PolicyConfig(kind="chained_restricted", budget=5)
    for budget in (None, 5):
        tr = RunTrace.allocate(cfg, np.zeros((len(AWKWARD_FLOATS), 2)), 3)
        tr.arm[:] = [2, 0, 1, 2]
        tr.inst_regret[:] = AWKWARD_FLOATS
        tr.paid[:] = AWKWARD_FLOATS[::-1]
        tr.budget[:] = [budget, budget, 4.5 if budget else None, -0.0 if budget else None]
        traces.append(tr)
    return traces


def test_trace_csv_bytes_equal_the_csv_modules(tmp_path):
    traces = awkward_traces()
    curves = accumulate(traces)
    curves.cum_regret[:] = AWKWARD_FLOATS[1:] + AWKWARD_FLOATS[:1]
    rows = [TRACE_COLUMNS]
    for r, tr in enumerate(traces):
        for i in range(tr.horizon):
            rows.append([i + 1, r, int(tr.arm[i])] + [cell(v) for v in (
                tr.inst_regret[i], curves.cum_regret[r, i], tr.paid[i],
                curves.cum_payment[r, i], curves.cum_payment_abs[r, i], tr.budget[i])])
    harness.write_trace_csv(tmp_path / "trace.csv", traces, curves)
    text = (tmp_path / "trace.csv").read_bytes().decode()
    assert text == csv_module_lines(rows)
    assert ",5\r\n" in text and ",\r\n" in text and "5e-324" in text


def test_aggregate_csv_bytes_equal_the_csv_modules(tmp_path):
    agg = harness.aggregate(awkward_traces()[:1])
    columns = [agg.mean_cum_regret, agg.stderr_cum_regret, agg.mean_cum_payment,
               agg.stderr_cum_payment, agg.mean_cum_payment_abs, agg.stderr_cum_payment_abs,
               *agg.mean_per_arm_payment]
    for k, column in enumerate(columns):
        column[:] = np.roll(AWKWARD_FLOATS, k)
    harness.write_aggregate_csv(tmp_path / "agg.csv", agg)
    lines = (tmp_path / "agg.csv").read_bytes().decode()
    header = lines.split("\r\n", 1)[0].split(",")
    assert header[-1] == "mean_cum_payment_arm2"
    rows = [header] + [[t + 1] + [cell(c[t]) for c in columns]
                       for t in range(len(AWKWARD_FLOATS))]
    assert lines == csv_module_lines(rows)


# A column with long runs, runs of one, adjacent signed zeros, NaNs with two
# payloads, both infinities and subnormals: the writers format each run of
# bit-equal cells once, so every run boundary must still get its own text.
OTHER_NAN = np.array([0x7FF8000000000001], dtype=np.int64).view(float)[0]
RUNNY = np.array([0.0] * 300 + [-0.0, 0.0, -0.0, -0.0] + [1.5] + [np.nan] * 3 + [OTHER_NAN]
                 + [np.inf, np.inf, -np.inf] + [5e-324, 5e-324, 1.1125369292536007e-308]
                 + [0.1] * 4 + [0.30000000000000004, 0.1 + 0.2, 0.3] + [2.0 ** 60] * 2)


def reprs_oracle(column):
    """Each cell's own ``float.__repr__``, formatted one by one."""
    return [float.__repr__(float(v)) for v in column]


@pytest.mark.parametrize("horizon", [len(RUNNY), 1])
def test_trace_csv_formats_every_run_of_cells_as_each_cell_alone(tmp_path, horizon):
    traces = [RunTrace.allocate(PolicyConfig(kind="chained_restricted", budget=5),
                                np.zeros((horizon, 2)), 3) for _ in range(2)]
    curves = harness.aggregate(traces).runs
    columns = []
    for r, tr in enumerate(traces):
        tr.budget[:] = [5 if i % 3 else 5.0 for i in range(horizon)]  # equal, printed apart
        cols = [tr.inst_regret, curves.cum_regret[r], tr.paid, curves.cum_payment[r],
                curves.cum_payment_abs[r]]
        for k, column in enumerate(cols):
            column[:] = np.roll(RUNNY, 3 * k + r)[:horizon]
        columns.append([reprs_oracle(c) for c in cols])
    lines = [",".join(TRACE_COLUMNS) + "\r\n"]
    for r, tr in enumerate(traces):
        for i in range(horizon):
            lines.append(",".join([str(i + 1), str(r), str(int(tr.arm[i]))]
                                  + [c[i] for c in columns[r]] + [cell(tr.budget[i])]) + "\r\n")
    harness.write_trace_csv(tmp_path / "trace.csv", traces, curves)
    assert (tmp_path / "trace.csv").read_bytes().decode() == "".join(lines)


@pytest.mark.parametrize("horizon", [len(RUNNY), 1])
def test_aggregate_csv_formats_every_run_of_cells_as_each_cell_alone(tmp_path, horizon):
    trace = RunTrace.allocate(PolicyConfig(kind="no_payments"), np.zeros((horizon, 2)), 3)
    agg = harness.aggregate([trace])
    columns = [agg.mean_cum_regret, agg.stderr_cum_regret, agg.mean_cum_payment,
               agg.stderr_cum_payment, agg.mean_cum_payment_abs, agg.stderr_cum_payment_abs,
               *agg.mean_per_arm_payment]
    for k, column in enumerate(columns):
        column[:] = np.roll(RUNNY, 5 * k)[:horizon]
    texts = [reprs_oracle(c) for c in columns]
    harness.write_aggregate_csv(tmp_path / "agg.csv", agg)
    header, *rows = (tmp_path / "agg.csv").read_bytes().decode().split("\r\n")
    assert header.split(",")[-1] == "mean_cum_payment_arm2"
    assert rows == [",".join([str(t + 1)] + [c[t] for c in texts]) for t in range(horizon)] + [""]


def twin_columns(horizon):
    """Two columns bit-equal except for one 0.0/-0.0 cell and one NaN payload,
    each in its own chunk of rows, so a chunk between them is bit-equal. No
    other cell is a NaN, so the first chunk's columns are equal as values."""
    cells = RUNNY[~np.isnan(RUNNY)]
    first = np.roll(cells, 7)[np.arange(horizon) % len(cells)]
    second = first.copy()
    first[5], second[5] = 0.0, -0.0
    first[-3], second[-3] = np.nan, OTHER_NAN
    return first, second


# Past two chunks, so the differing cells sit in different chunks of rows.
TWIN_HORIZON = 2 * harness.CHUNK_ROWS + 9


def test_trace_csv_reuses_no_text_of_a_column_that_differs_in_one_bit(tmp_path):
    traces = [RunTrace.allocate(PolicyConfig(kind="no_payments"),
                                np.zeros((TWIN_HORIZON, 2)), 3) for _ in range(2)]
    curves = harness.aggregate(traces).runs
    for r, tr in enumerate(traces):
        first, second = twin_columns(TWIN_HORIZON)
        tr.inst_regret[:] = tr.paid[:] = curves.cum_regret[r] = first
        curves.cum_payment[r], curves.cum_payment_abs[r] = (first, second)[::1 - 2 * r]
    harness.write_trace_csv(tmp_path / "trace.csv", traces, curves)
    rows = (tmp_path / "trace.csv").read_bytes().decode().split("\r\n")[1:-1]
    assert len(rows) == 2 * TWIN_HORIZON
    for r, tr in enumerate(traces):
        columns = (tr.inst_regret, curves.cum_regret[r], tr.paid, curves.cum_payment[r],
                   curves.cum_payment_abs[r])
        texts = [reprs_oracle(c) for c in columns]
        assert rows[r * TWIN_HORIZON:(r + 1) * TWIN_HORIZON] == [
            ",".join([str(i + 1), str(r), "0"] + [c[i] for c in texts] + [""])
            for i in range(TWIN_HORIZON)]
    assert "-0.0" in rows[5] and "-0.0" in rows[TWIN_HORIZON + 5]


def test_aggregate_csv_reuses_no_text_of_a_column_that_differs_in_one_bit(tmp_path):
    trace = RunTrace.allocate(PolicyConfig(kind="no_payments"),
                              np.zeros((TWIN_HORIZON, 2)), 3)
    agg = harness.aggregate([trace])
    first, second = twin_columns(TWIN_HORIZON)
    columns = [agg.mean_cum_regret, agg.stderr_cum_regret, agg.mean_cum_payment,
               agg.stderr_cum_payment, agg.mean_cum_payment_abs, agg.stderr_cum_payment_abs,
               *agg.mean_per_arm_payment]
    for k, column in enumerate(columns):
        column[:] = (first, second)[k % 2]  # the last column, which ends the line, too
    texts = [reprs_oracle(c) for c in columns]
    harness.write_aggregate_csv(tmp_path / "agg.csv", agg)
    header, *rows = (tmp_path / "agg.csv").read_bytes().decode().split("\r\n")
    assert rows == [",".join([str(t + 1)] + [c[t] for c in texts])
                    for t in range(TWIN_HORIZON)] + [""]
    assert rows[5].count("-0.0") == 4


@pytest.mark.parametrize("write", ["write_trace_csv", "write_aggregate_csv"])
def test_csv_write_failing_after_the_header_leaves_no_file(tmp_path, monkeypatch, write):
    config = run_config(tmp_path)
    traces = [run_single(config.instance, config.policies[0],
                         child_seed_sequence(3, 0, r)) for r in range(2)]
    agg = harness.aggregate(traces)
    args = {"write_trace_csv": (traces, agg.runs), "write_aggregate_csv": (agg,)}[write]
    written = []

    class FullDisk:
        """A text file that takes the header and four rows, then fails as a
        full disk would."""

        def __init__(self, *open_args, **open_kwargs):
            self.fh = open(*open_args, **open_kwargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()
            return False

        def write(self, text):
            written.append(text)
            return self.fh.write(text)

        def writelines(self, lines):
            for line in lines:
                if len(written) == 5:  # part-way through the rows
                    raise OSError("disk full")
                self.write(line)

    monkeypatch.setattr(harness, "open", FullDisk, raising=False)
    out = tmp_path / "out"
    out.mkdir()
    with pytest.raises(OSError, match="disk full"):
        getattr(harness, write)(out / "curves.csv", *args)
    assert written[0].startswith("t,") and len(written) == 5
    assert list(out.iterdir()) == []


def test_workers_capped_by_tasks_and_cpus(tmp_path, monkeypatch):
    config = run_config(tmp_path)  # 2 policies x 2 runs = 4 tasks
    started = []

    class InlinePool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 64)  # some the process may not use
    for cpus, jobs, want in ((64, 1000, 4), (3, 1000, 3), (64, 2, 2), (1, 1000, None)):
        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        started.clear()
        run_experiment(config, jobs=jobs, out_dir=tmp_path / "out")
        assert started == ([] if want is None else [want])
    # Where the platform has no sched_getaffinity, cpu_count bounds them.
    monkeypatch.delattr(harness.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 3)
    started.clear()
    run_experiment(config, jobs=1000, out_dir=tmp_path / "out")
    assert started == [3]
    with pytest.raises(ValueError, match="jobs"):
        run_experiment(config, jobs=0, out_dir=tmp_path / "out")


def test_parallel_run_byte_identical_to_serial(tmp_path):
    config = run_config(tmp_path)
    run_experiment(config, jobs=1, out_dir=tmp_path / "serial")
    run_experiment(config, jobs=2, out_dir=tmp_path / "parallel")
    for entry in ("p0_no_payments", "p1_chained_restricted"):
        for suffix in ("_aggregate.csv", "_trace.csv"):
            a = (tmp_path / "serial" / (entry + suffix)).read_bytes()
            b = (tmp_path / "parallel" / (entry + suffix)).read_bytes()
            assert a == b, entry + suffix


def test_each_strategys_traces_are_released_once_its_csvs_are_written(tmp_path, monkeypatch):
    config = run_config(tmp_path)
    config = harness.ExperimentConfig(config.instance, config.policies + config.policies[:1],
                                      config.n_runs)
    refs = []  # (policy index, weak reference to one of its traces)
    alive = []  # (policy index being written, policy indices of live traces)
    real_run_single, real_write = harness.run_single, harness.write_aggregate_csv

    def tracked(instance, policy_cfg, seed, policy=None):
        trace = real_run_single(instance, policy_cfg, seed, policy)
        refs.append((seed.spawn_key[0], weakref.ref(trace)))
        return trace

    def checked(path, agg):
        written = int(Path(path).name[1:].split("_", 1)[0])
        alive.append((written, [pi for pi, ref in refs if ref() is not None]))
        real_write(path, agg)

    monkeypatch.setattr(harness, "run_single", tracked)
    monkeypatch.setattr(harness, "write_aggregate_csv", checked)
    run_experiment(config, out_dir=tmp_path / "out")
    assert alive == [(0, [0, 0]), (1, [1, 1]), (2, [2, 2])]


# -- CLI ---------------------------------------------------------------------

def test_cli_validate_ok(tmp_path, capsys):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(base_config()))
    assert main(["validate", "--config", str(p)]) == 0


def test_cli_validate_bad_config_exits_2(tmp_path, capsys):
    data = base_config()
    data["n_runs"] = -1
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(data))
    assert main(["validate", "--config", str(p)]) == 2
    assert "n_runs" in capsys.readouterr().err


def nan_noise(cfg):
    cfg["instance"]["noise_std"] = float("nan")


def nan_context_std(cfg):
    cfg["instance"]["context_source"]["std"] = float("nan")


def inf_context_mean(cfg):
    cfg["instance"]["context_source"]["mean"] = [float("inf"), 0.0]


def nan_true_attr(cfg):
    cfg["instance"]["true_attrs"][1] = [0.0, float("nan")]


def nan_sigma_pay(cfg):
    cfg["policies"] = [{"kind": "perturbation_payments", "sigma_pay": float("nan")}]


def negative_policy_m(cfg):
    cfg["policies"][0]["init_explore_m"] = -3


def fractional_policy_m(cfg):
    cfg["policies"][0]["init_explore_m"] = 2.5


def boolean_policy_m(cfg):
    cfg["policies"][0]["init_explore_m"] = True


def string_emit_full_trace(cfg):
    cfg["emit_full_trace"] = "no"


def numeric_output_dir(cfg):
    cfg["output_dir"] = 5


def string_cycle(cfg):
    # One context, horizon 12: a truthy string must not stand in for true.
    cfg["instance"]["context_source"] = {
        "kind": "fixed_sequence", "contexts": [[1.0, 0.0]], "cycle": "no",
    }


def replay_with_string(flag):
    def corrupt(cfg):
        cfg["instance"]["context_source"] = {
            "kind": "dataset_replay", "path": "pkg:fig2_synth.csv", flag: "no",
        }
        del cfg["instance"]["true_attrs"]
    corrupt.__name__ = f"string_{flag}"
    return corrupt


def one_arm_replay(cfg):
    # Labels are read against n_arms: the error is n_arms, not the dataset.
    cfg["instance"]["n_arms"] = 1
    cfg["instance"]["context_source"] = {"kind": "dataset_replay", "path": "pkg:fig2_synth.csv"}
    del cfg["instance"]["true_attrs"]


def huge_noise(cfg):
    cfg["instance"]["noise_std"] = 1e308


def huge_sigma_pay(cfg):
    cfg["policies"] = [{"kind": "perturbation_payments", "sigma_pay": 1e160}]


def huge_linucb_alpha(cfg):
    cfg["policies"].append({"kind": "linucb_alignment", "linucb_alpha": 1e308})


def huge_context_std(cfg):
    cfg["instance"]["context_source"]["std"] = 1e160


def huge_context_mean(cfg):
    cfg["instance"]["context_source"]["mean"] = [0.0, -1e160]


def huge_fixed_context(cfg):
    cfg["instance"]["context_source"] = {
        "kind": "fixed_sequence", "contexts": [[1.0, 0.0], [1e200, 1e200]], "cycle": True,
    }


def tiny_ridge_lambda_for(kind):
    # An arm with no observations has ridge pivots equal to lambda.
    def corrupt(cfg):
        cfg["policies"] = [{"kind": kind, "ridge_lambda": 1e-13}]
    corrupt.__name__ = f"tiny_ridge_lambda_{kind}"
    return corrupt


def ols_estimator_for(kind):
    # Widths are norms in the inverse Gram metric; an OLS Gram matrix is
    # singular until every arm has dim independent observations.
    def corrupt(cfg):
        policy = {"kind": kind, "estimator_mode": "ols", "init_explore_m": 8}
        if kind == "chained_restricted":
            policy["budget"] = 1.0
        cfg["policies"] = [policy]
    corrupt.__name__ = f"ols_{kind}"
    return corrupt


@pytest.mark.parametrize("corrupt, field", [
    (nan_noise, "instance.noise_std"),
    (nan_context_std, "context_source.std"),
    (inf_context_mean, "context_source.mean"),
    (nan_true_attr, "instance.true_attrs[1]"),
    (nan_sigma_pay, "sigma_pay"),
    (negative_policy_m, "policies[0].init_explore_m"),
    (fractional_policy_m, "policies[0].init_explore_m"),
    (boolean_policy_m, "policies[0].init_explore_m"),
    (string_emit_full_trace, "emit_full_trace"),
    (numeric_output_dir, "output_dir"),
    (string_cycle, "context_source.cycle"),
    (replay_with_string("standardize"), "context_source.standardize"),
    (replay_with_string("has_header"), "context_source.has_header"),
    (replay_with_string("sample_with_replacement"), "context_source.sample_with_replacement"),
    (one_arm_replay, "instance.n_arms"),
    (huge_noise, "instance.noise_std"),
    (huge_sigma_pay, "policies[0].sigma_pay"),
    (huge_linucb_alpha, "policies[1].linucb_alpha"),
    (huge_context_std, "instance.context_source.std"),
    (huge_context_mean, "instance.context_source.mean"),
    (huge_fixed_context, "instance.context_source.contexts[1]"),
    (ols_estimator_for("linucb_alignment"), "policies[0].estimator_mode"),
    (ols_estimator_for("chained_unrestricted"), "policies[0].estimator_mode"),
    (ols_estimator_for("chained_restricted"), "policies[0].estimator_mode"),
    (tiny_ridge_lambda_for("linucb_alignment"), "policies[0].ridge_lambda"),
    (tiny_ridge_lambda_for("chained_unrestricted"), "policies[0].ridge_lambda"),
])
def test_cli_validate_rejects_bad_values(tmp_path, capsys, corrupt, field):
    data = base_config()
    corrupt(data)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(data))  # json writes NaN and Infinity literals
    assert main(["validate", "--config", str(p)]) == 2
    assert field in capsys.readouterr().err
    out = tmp_path / "out"
    assert main(["run", "--config", str(p), "--out", str(out)]) == 2
    assert field in capsys.readouterr().err
    assert not out.exists()


def replay_source(cfg):
    cfg["instance"]["context_source"] = {"kind": "dataset_replay", "path": "pkg:fig2_synth.csv"}
    del cfg["instance"]["true_attrs"]


def fixed_source(cfg):
    cfg["instance"]["context_source"] = {"kind": "fixed_sequence", "contexts": [[1.0, 0.0]],
                                         "cycle": True}


@pytest.mark.parametrize("where, source, key", [
    ("<root>", None, "n_run"),
    ("instance", None, "noize_std"),
    ("instance.context_source", None, "stdev"),
    ("instance.context_source", fixed_source, "std"),
    ("instance.context_source", replay_source, "standardise"),
    ("policies[0]", None, "sigma"),
])
def test_cli_rejects_an_unknown_key_in_every_object(tmp_path, capsys, where, source, key):
    data = base_config()
    if source is not None:
        source(data)
    obj = {"<root>": data, "instance": data["instance"],
           "instance.context_source": data["instance"]["context_source"],
           "policies[0]": data["policies"][0]}[where]
    obj[key] = 1
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(data))
    for command in (["validate"], ["run", "--out", str(tmp_path / "out")]):
        assert main([*command, "--config", str(p)]) == 2
        err = capsys.readouterr().err
        assert f"[error] {where}: only the fields" in err and repr(key) in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("where, key, values", [
    ("<root>", "n_runs", (2, 1)),
    ("instance", "horizon", (12, 5)),
    ("instance.context_source", "std", (0.5, 0.0)),
    ("policies[0]", "kind", ("no_payments", "perturbation_payments")),
])
def test_cli_rejects_a_key_written_twice_in_any_object(tmp_path, capsys, where, key, values):
    """Python's ``json`` keeps the last of two equal keys, so a config that sets
    ``horizon`` twice would run the second value; the reader refuses it."""
    data = base_config()
    obj = {"<root>": data, "instance": data["instance"],
           "instance.context_source": data["instance"]["context_source"],
           "policies[0]": data["policies"][0]}[where]
    del obj[key]
    obj["twice"] = None
    twice = ", ".join(f"{json.dumps(key)}: {json.dumps(value)}" for value in values)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(data).replace('"twice": null', twice))
    config, diags = load_config_file(p)
    assert config is None and [d.constraint for d in diags] == ["readable JSON file"]
    for command in (["validate"], ["run", "--out", str(tmp_path / "out")]):
        assert main([*command, "--config", str(p)]) == 2
        err = capsys.readouterr().err
        assert "readable JSON file" in err and repr(key) in err
    assert not (tmp_path / "out").exists()


def fig2_like_config(**instance):
    data = json.loads(preset_config_path("fig2-like").read_text())
    data["instance"].update(instance)
    return data


def replay_with_replacement_and_no_ridge(horizon):
    data = fig2_like_config(horizon=horizon)
    data["instance"]["context_source"]["sample_with_replacement"] = True
    data["policies"] = data["policies"][:2]
    return data


@pytest.mark.parametrize("data, field", [
    ({**base_config(), "n_runs": 10 ** 400}, "n_runs"),
    (replay_with_replacement_and_no_ridge(10 ** 12), "instance.horizon"),
    (fig2_like_config(n_arms=10 ** 9), "instance.horizon"),
], ids=["n_runs", "horizon", "n_arms"])
def test_cli_rejects_runs_beyond_the_cell_bound(tmp_path, capsys, data, field):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(data))
    for command in (["validate"], ["run", "--out", str(tmp_path / "out")]):
        assert main([*command, "--config", str(p)]) == 2
        assert f"[error] {field}: <=" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_counts_the_estimator_bank_against_the_cell_bound(tmp_path, capsys):
    # 4e6 arms of 64 features: one round's trace is small, but the bank's
    # (N, 64, 64) inverses and Gram matrices alone are 3.3e10 cells.
    (tmp_path / "wide.csv").write_text(",".join(["0.5"] * 64) + ",0\n")
    data = base_config()
    data["instance"].update(n_arms=4_000_000, dim=64, horizon=1, init_explore_m=0,
                            context_source={"kind": "dataset_replay", "path": "wide.csv"})
    data["n_runs"] = 1
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(data))
    assert main(["validate", "--config", str(p)]) == 2
    assert "[error] instance.horizon: <= 0 at n_arms 4000000 and dim 64" \
        in capsys.readouterr().err


# The least share of its run_cells that a run's measured peak reaches: the
# count sums allocations that do not all live at once (README "Command line").
LEAST_SHARE_OF_RUN_CELLS = 0.6


def test_every_strategy_allocates_about_its_run_cells():
    # What run_cells counts: run_single, accumulate and one records pass. The
    # untraced runs come first: a process's first run also allocates what it
    # keeps for later runs.
    def run(instance, cfg):
        trace = run_single(instance, cfg, 1)
        curves = accumulate([trace])
        for _ in trace.records:
            pass
        return curves

    configs = [PolicyConfig(kind, budget=5.0 if kind == "chained_restricted" else None)
               for kind in POLICY_KINDS]
    shares = {}
    for n_arms, dim, horizon in [(8, 4, 800), (2, 14, 2500), (40, 2, 2000)]:
        attrs = np.random.default_rng(3).normal(size=(n_arms, dim))
        attrs /= 2 * np.linalg.norm(attrs, axis=1)[:, None]
        instance = InstanceSpec(n_arms, dim, horizon, attrs, 0.1,
                                GaussianContextSpec(mean=np.full(dim, 0.1), std=0.5),
                                2 * n_arms, 7)
        for cfg in configs:
            run(instance, cfg)
        for cfg in configs:
            tracemalloc.start()
            try:
                run(instance, cfg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            cells = run_cells(cfg.kind, n_arms, dim, horizon)
            shares[n_arms, dim, horizon, cfg.kind] = round(peak / (8 * cells), 3)
    assert {key: share for key, share in shares.items()
            if not LEAST_SHARE_OF_RUN_CELLS <= share <= 1} == {}, shares


@pytest.mark.parametrize("shape", [(3, 2), (2, 3), (1, 2)], ids=str)
def test_run_single_rejects_a_policy_built_for_another_shape(shape):
    cfg = PolicyConfig("no_payments")
    policy = build_policy(cfg, *shape)
    want = (f"policy built for n_arms {shape[0]} and dim {shape[1]}, "
            "instance has n_arms 2 and dim 2")
    with pytest.raises(ValueError, match=want):
        run_single(small_instance(), cfg, 1, policy=policy)


def test_run_single_rejects_a_policy_built_from_another_config(monkeypatch):
    # A LinUCB object under a no_payments config would pay and log while the
    # trace records no_payments; it is refused before any stream is drawn.
    monkeypatch.setattr(harness, "spawn_streams", lambda seed: pytest.fail("streams drawn"))
    policy = build_policy(PolicyConfig(kind="linucb_alignment"), 2, 2)
    with pytest.raises(ValueError, match="kind='linucb_alignment'.*kind='no_payments'"):
        run_single(small_instance(), PolicyConfig(kind="no_payments"), 1, policy=policy)
    with pytest.raises(ValueError, match="sigma_pay=0.5.*sigma_pay=1.0"):
        run_single(small_instance(), PolicyConfig("perturbation_payments", sigma_pay=1.0), 1,
                   policy=build_policy(PolicyConfig("perturbation_payments", sigma_pay=0.5),
                                       2, 2))


def test_the_cell_bound_admits_a_run_that_fills_it():
    data = base_config()
    assert data["policies"] == [{"kind": CHEAPEST_KIND}]
    longest = most_that_fit(lambda horizon: run_cells(CHEAPEST_KIND, 2, 2, horizon))
    data["instance"]["horizon"] = longest
    data["n_runs"] = 1
    assert validate_config_data(data) == []
    data["n_runs"] = 2
    assert fields_of(validate_config_data(data)) == {"n_runs"}
    data["n_runs"] = 1
    data["instance"]["horizon"] = longest + 1
    assert fields_of(validate_config_data(data)) == {"instance.horizon"}


@pytest.mark.parametrize("source", [
    {"kind": "gaussian_iid", "mean": [MAX_MAGNITUDE, -MAX_MAGNITUDE], "std": MAX_MAGNITUDE},
    {"kind": "fixed_sequence", "contexts": [[MAX_MAGNITUDE, -MAX_MAGNITUDE], [0.5, 0.0]],
     "cycle": True},
    {"kind": "dataset_replay", "path": "ceiling.csv", "sample_with_replacement": True},
], ids=["gaussian_iid", "fixed_sequence", "dataset_replay"])
def test_every_strategy_runs_cleanly_at_the_magnitude_ceiling(tmp_path, source):
    big = repr(MAX_MAGNITUDE)
    (tmp_path / "ceiling.csv").write_text(f"{big},-{big},0\n-{big},{big},1\n0.5,0.0,1\n")
    data = base_config()
    data["instance"].update(noise_std=MAX_MAGNITUDE, horizon=30, context_source=source)
    data["policies"] = [{"kind": kind} for kind in POLICY_KINDS if kind != "chained_restricted"]
    data["policies"][1]["sigma_pay"] = MAX_MAGNITUDE
    data["policies"].append({"kind": "chained_restricted", "budget": 1.0})
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(data))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["validate", "--config", str(p)]) == 0
        assert main(["run", "--config", str(p), "--out", str(tmp_path / "out")]) == 0
    for path in (tmp_path / "out").glob("*.csv"):
        assert "nan" not in path.read_text() and "inf" not in path.read_text(), path.name


def test_cli_validate_rejects_non_finite_dataset_cell(tmp_path, capsys):
    data = base_config()
    data["instance"].update(horizon=2, init_explore_m=2)
    data["instance"]["context_source"] = {"kind": "dataset_replay", "path": "toy.csv"}
    del data["instance"]["true_attrs"]
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(data))
    for cell in ("nan", "1e200", "-1e200"):  # the last two pass float() but not the ceiling
        (tmp_path / "toy.csv").write_text(f"0.1,0.2,0\n{cell},0.4,1\n")
        assert main(["validate", "--config", str(p)]) == 2
        err = capsys.readouterr().err
        assert "context_source.path" in err and "row 2, column 1" in err, cell


def test_cli_reports_a_dataset_cell_past_csvs_field_limit(tmp_path):
    # Only the per-row reader meets such a cell; it is a finding, not a traceback.
    data = base_config()
    data["instance"].update(horizon=2, init_explore_m=2)
    data["instance"]["context_source"] = {"kind": "dataset_replay", "path": "long.csv"}
    del data["instance"]["true_attrs"]
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(data))
    cell = "0." + "1" * (csv.field_size_limit() + 8)
    (tmp_path / "long.csv").write_text(f"0.1,0.2,0\n{cell},0.4,1\n")
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    for argv, code, message in (
            (["validate", "--config", str(p)], 2, "instance.context_source.path"),
            (["import", "--csv", str(tmp_path / "long.csv"), "--classes", "2"], 3,
             "import failed: row 2: field larger than field limit")):
        proc = subprocess.run([sys.executable, "-m", "payband.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == code, proc.stderr
        assert message in proc.stderr and "Traceback" not in proc.stderr, proc.stderr
        assert f"({csv.field_size_limit()})" in proc.stderr
    (tmp_path / "head.csv").write_text(f"{cell},b,label\n0.1,0.2,0\n")  # a header cell too
    with pytest.raises(DatasetFormatError, match="^row 1: field larger than field limit"):
        load_dataset_csv(str(tmp_path / "head.csv"), 2, has_header=True)


def test_width_strategies_run_at_the_ridge_lambda_floor(tmp_path):
    data = json.loads(preset_config_path("fig1").read_text())
    data["instance"].update(init_explore_m=0, horizon=100)
    data["n_runs"] = 2
    floor = ridge_lambda_floor(4, 100)
    data["policies"] = [{"kind": "linucb_alignment", "ridge_lambda": floor},
                        {"kind": "chained_unrestricted", "ridge_lambda": floor},
                        {"kind": "chained_restricted", "budget": 1.0, "ridge_lambda": floor}]
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(data))
    assert main(["validate", "--config", str(p)]) == 0
    assert main(["run", "--config", str(p), "--out", str(tmp_path / "out")]) == 0


def rank_deficient_config(ridge_lambda):
    """Two unit contexts cycled for 20,000 rounds in d=7: every arm's Gram
    matrix has rank 2, so lambda alone keeps five pivots of G + lambda*I
    positive while the rounding in G grows with the rounds."""
    rng = np.random.default_rng(11)
    draws = [rng.standard_normal(7) for _ in range(5)]
    contexts = [(v / np.linalg.norm(v)).tolist() for v in draws[:2]]
    attrs = [(v / np.linalg.norm(v) / 1.5).tolist() for v in draws[2:]]
    return {
        "instance": {"n_arms": 3, "dim": 7, "horizon": 20000, "master_seed": 0,
                     "noise_std": 0.1, "init_explore_m": 0,
                     "context_source": {"kind": "fixed_sequence", "contexts": contexts,
                                        "cycle": True},
                     "true_attrs": attrs},
        "policies": [{"kind": "chained_unrestricted", "ridge_lambda": ridge_lambda}],
        "n_runs": 1,
        "emit_full_trace": False,
    }


def test_ridge_lambda_below_the_rounding_floor_fails_validation(tmp_path, capsys):
    # At 1e-12 and 1e-10 this run died mid-way with SingularMatrixError (exit 3).
    assert ridge_lambda_floor(7, 20000) == pytest.approx(6.2172e-7, rel=1e-4)
    for lam in (PIVOT_TOL, 1e-10, 6.2e-7):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(rank_deficient_config(lam)))
        assert main(["validate", "--config", str(p)]) == 2
        assert "policies[0].ridge_lambda" in capsys.readouterr().err


def test_ridge_lambda_at_the_rounding_floor_runs_to_the_end(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(rank_deficient_config(ridge_lambda_floor(7, 20000))))
    config, diags = load_config_file(p)
    assert errors_of(diags) == []
    trace = run_single(config.instance, config.policies[0], 5)
    assert trace.horizon == 20000 and np.isfinite(trace.inst_regret).all()


def test_run_single_applies_the_rules_that_tie_a_strategy_to_its_instance(tmp_path):
    # Each run used to die mid-way: a broadcast error, "negative dimensions"
    # and, after about 10,000 rounds, SingularMatrixError.
    for kind in ("no_payments", "perturbation_payments"):
        with pytest.raises(ConfigError) as exc:
            run_single(small_instance(horizon=50), PolicyConfig(kind=kind, init_explore_m=80), 0)
        assert (exc.value.field, exc.value.actual) == ("init_explore_m", 80)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(rank_deficient_config(ridge_lambda_floor(7, 20000))))
    config, _ = load_config_file(p)
    with pytest.raises(ConfigError) as exc:
        run_single(config.instance,
                   PolicyConfig(kind="chained_unrestricted", ridge_lambda=1e-12), 5)
    assert exc.value.field == "ridge_lambda"


def test_every_export_resolves():
    import payband
    assert [name for name in payband.__all__ if not hasattr(payband, name)] == []
    namespace = {}
    exec("from payband import *", namespace)
    assert set(payband.__all__) <= set(namespace)


def test_readme_library_example_runs(capsys):
    readme = (SRC_DIR.parent / "README.md").read_text()
    example = readme.split("## Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(example, namespace)
    assert np.isfinite(namespace["curves"].mean_cum_regret[-1])


def test_readme_config_format_names_every_field():
    readme = (SRC_DIR.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Config format", 1)[1].split("\n## ", 1)[0]
    tables = [harness._TOP_FIELDS, harness._INSTANCE_FIELDS, harness._POLICY_FIELDS,
              *(table for _, table in harness._SOURCES.values())]
    fields = {field for table in tables for field in table}
    assert sorted(f for f in fields if f"`{f}`" not in section) == []


def test_running_an_experiment_does_not_import_scipy(tmp_path):
    # numpy is the only dependency; scipy may be installed but must not be used.
    data = base_config()
    data["policies"] = [{"kind": kind} for kind in POLICY_KINDS if kind != "chained_restricted"]
    data["policies"].append({"kind": "chained_restricted", "budget": 1.0})
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(data))
    script = ("import sys; from payband.cli import main; "
              "code = main(['run', '--config', sys.argv[1], '--out', sys.argv[2]]); "
              "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')); "
              "sys.exit(code)")
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    proc = subprocess.run([sys.executable, "-c", script, str(p), str(tmp_path / "out")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"
    assert len(list((tmp_path / "out").glob("*_aggregate.csv"))) == len(POLICY_KINDS)


@pytest.mark.parametrize("jobs", ["0", "-3", "two"])
def test_cli_rejects_jobs_below_one(tmp_path, capsys, jobs):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(base_config()))
    for argv in (["run", "--config", str(p)], ["preset", "fig1"]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--jobs", jobs, "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_preset_dataset_applies_to_fig2_like_only(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # where the preset's own output_dir would go
    assert main(["preset", "fig1", "--dataset", str(tmp_path / "x.csv")]) == 2
    assert "--dataset only applies to the fig2-like preset" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_cli_missing_config_exits_2(tmp_path):
    assert main(["run", "--config", str(tmp_path / "absent.json")]) == 2


def two_warnings(tmp_path):
    (tmp_path / "rows.csv").write_text("0.1,0.2,0\n0.3,-0.4,1\n")
    data = base_config()
    data["instance"].update(init_explore_m=1, context_source={
        "kind": "dataset_replay", "path": "rows.csv", "sample_with_replacement": True})
    return json.dumps(data)


def unknown_key_and_mistyped_field(tmp_path):
    data = base_config()
    data["instance"]["horizon"] = "12"
    data["policies"][0]["siverity"] = 2
    return json.dumps(data)


def range_and_cell_bound(tmp_path):
    data = base_config()
    data["instance"]["horizon"] = 10 ** 8
    data["policies"] = [{"kind": "perturbation_payments", "sigma_pay": -1.0}]
    return json.dumps(data)


# Every source of a finding, with the exact stderr ``validate`` and ``run``
# print for it and their exit code; TMP stands for the config's directory.
GOLDEN_FINDINGS = {
    "two warnings": (two_warnings, None, 0,
        "[warning] instance.init_explore_m: >= n_arms * dim = 4 recommended (got 1)\n"
        "[warning] instance.true_attrs: ignored for dataset_replay (labels define rewards)"
        " (got 'set')\n"),
    "unknown key and mistyped field": (unknown_key_and_mistyped_field, None, 2,
        "[error] instance.horizon: integer (got '12')\n"
        "[error] policies[0]: only the fields kind, sigma_pay, ridge_lambda, delta, "
        "linucb_alpha, budget, init_explore_m, estimator_mode (got ['siverity'])\n"),
    "range and cell bound": (range_and_cell_bound, None, 2,
        "[error] instance.horizon: <= 4473852 at n_arms 2 and dim 2, so a run holds at "
        "most 2**28 float64 cells (got 100000000)\n"
        "[error] policies[0].sigma_pay: number in [0, 1e+100] (got -1.0)\n"),
    "non-object root": (lambda tmp_path: "[1, 2]", None, 2,
        "[error] <root>: must be a JSON object (got 'list')\n"),
    "unparseable file": (lambda tmp_path: "{ nope", None, 2,
        "[error] TMP/cfg.json: readable JSON file (got 'Expecting property name enclosed "
        "in double quotes: line 1 column 3 (char 2)')\n"),
    "missing file": (None, None, 2,
        "[error] TMP/cfg.json: readable JSON file (got \"[Errno 2] No such file or "
        "directory: 'TMP/cfg.json'\")\n"),
    "bad env seed": (lambda tmp_path: json.dumps(base_config()), "abc", 2,
        "[error] PAYBAND_SEED: integer >= 0 (got 'abc')\n"),
}


@pytest.mark.parametrize("case", GOLDEN_FINDINGS)
def test_cli_prints_each_finding_source_byte_for_byte(tmp_path, monkeypatch, capsys, case):
    make, env_seed, code, stderr = GOLDEN_FINDINGS[case]
    p = tmp_path / "cfg.json"
    if make is not None:
        p.write_text(make(tmp_path))
    if env_seed is not None:
        monkeypatch.setenv(SEED_ENV_VAR, env_seed)
    for args in (["validate"], ["run", "--out", str(tmp_path / "out")]):
        assert main([*args, "--config", str(p)]) == code
        assert capsys.readouterr().err.replace(str(tmp_path), "TMP") == stderr


def test_cli_run_writes_outputs(tmp_path, capsys):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(base_config()))
    out = tmp_path / "results"
    assert main(["run", "--config", str(p), "--out", str(out)]) == 0
    assert (out / "p0_no_payments_aggregate.csv").exists()


def test_cli_import_prints_summary(tmp_path, capsys):
    data = tmp_path / "toy.csv"
    data.write_text("0.1,0.2,0\n0.3,0.4,1\n0.5,0.6,1\n")
    assert main(["import", "--csv", str(data), "--classes", "2"]) == 0
    out = capsys.readouterr().out
    assert "rows: 3" in out
    assert "features: 2" in out


def test_cli_import_prints_only_nonempty_classes(tmp_path, capsys):
    # At the most classes --classes accepts, a two-row file once printed 79 MB.
    from payband.cli import MAX_CLASSES
    data = tmp_path / "two.csv"
    data.write_text("0.5,0\n0.25,3\n")
    assert main(["import", "--csv", str(data), "--classes", str(MAX_CLASSES)]) == 0
    out = capsys.readouterr().out
    assert len(out.encode()) < 1024
    assert f"class histogram: 0: 1, 3: 1 ({MAX_CLASSES - 2} empty)\n" in out


def test_cli_import_prints_each_nonempty_class_with_its_count(tmp_path, capsys):
    rng = np.random.default_rng(5)
    labels = (rng.integers(0, 40, size=60) * 2).tolist()  # odd and some even classes empty
    data = tmp_path / "sixty.csv"
    data.write_text("".join(f"{x!r},{c}\n" for x, c in zip(rng.normal(size=60).tolist(), labels)))
    assert main(["import", "--csv", str(data), "--classes", "83"]) == 0
    tally = Counter(labels)
    seen = ", ".join(f"{c}: {tally[c]}" for c in sorted(tally))
    assert 83 - len(tally) > 41
    assert f"class histogram: {seen} ({83 - len(tally)} empty)\n" in capsys.readouterr().out


def test_cli_import_reads_utf8_under_the_c_locale(tmp_path):
    data = tmp_path / "f.csv"
    data.write_text("größe,b,label\n0.1,0.2,0\n0.3,0.4,1\n", encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR), LC_ALL="C", PYTHONUTF8="0",
               PYTHONCOERCECLOCALE="0")
    proc = subprocess.run([sys.executable, "-m", "payband.cli", "import", "--csv", str(data),
                           "--classes", "2", "--header"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "rows: 2" in proc.stdout


def test_cli_import_skips_a_byte_order_mark(tmp_path, capsys):
    data = tmp_path / "bom.csv"
    data.write_text("\ufeff0.5,0.25,0\n-0.5,0.75,1\n", encoding="utf-8")
    assert main(["import", "--csv", str(data), "--classes", "2"]) == 0
    assert "rows: 2" in capsys.readouterr().out
    assert load_dataset_csv(str(data), n_classes=2).features[0].tolist() == [0.5, 0.25]


def test_cli_import_rejects_fewer_than_two_classes(tmp_path, capsys):
    data = tmp_path / "toy.csv"
    data.write_text("0.1,0.2,0\n")
    with pytest.raises(SystemExit) as exc:
        main(["import", "--csv", str(data), "--classes", "1"])
    assert exc.value.code == 2
    assert "--classes" in capsys.readouterr().err


def test_cli_import_rejects_more_classes_than_any_instance_allows(tmp_path, capsys):
    from payband.cli import MAX_CLASSES
    (tmp_path / "one.csv").write_text("0.5,0\n")
    data = base_config()
    data["instance"].update(dim=1, horizon=1, init_explore_m=0,
                            context_source={"kind": "dataset_replay", "path": "one.csv"})
    data["n_runs"] = 1
    for n_arms, code in ((MAX_CLASSES, 0), (MAX_CLASSES + 1, 2)):
        data["instance"]["n_arms"] = n_arms
        (tmp_path / "cfg.json").write_text(json.dumps(data))
        assert main(["validate", "--config", str(tmp_path / "cfg.json")]) == code
    with pytest.raises(SystemExit) as exc:  # before the (absent) file is read
        main(["import", "--csv", str(tmp_path / "absent.csv"),
              "--classes", str(MAX_CLASSES + 1)])
    assert exc.value.code == 2
    assert f"--classes: must be an integer in [2, {MAX_CLASSES}]" in capsys.readouterr().err


def test_cli_import_bad_file_exits_3(tmp_path, capsys):
    data = tmp_path / "toy.csv"
    data.write_text("0.1,zap,0\n")
    assert main(["import", "--csv", str(data), "--classes", "2"]) == 3
