"""Config validation, seeding, the run engine, CSV output, and the CLI."""

import concurrent.futures
import csv
import io
import json
import os
import subprocess
import sys
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

from payband import harness
from payband.cli import main
from payband.environment import FixedSequenceSpec, load_dataset_csv
from payband.harness import (
    SEED_ENV_VAR,
    TRACE_COLUMNS,
    child_seed_sequence,
    load_config_file,
    preset_config_path,
    run_experiment,
    run_single,
    spawn_streams,
    validate_config_data,
)
from payband.linalg import PIVOT_TOL
from payband.metrics import RunTrace
from payband.model import MAX_MAGNITUDE, InstanceSpec
from payband.policies import POLICY_KINDS, PolicyConfig, ridge_lambda_floor

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
    return {d.fieldname for d in diags}


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
    assert any("true_attrs[0]" in d.fieldname and "norm" in d.constraint for d in diags)


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
    assert any(SEED_ENV_VAR in d.fieldname for d in diags)


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


def test_malformed_json_reports_a_diagnostic(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{ nope")
    config, diags = load_config_file(p)
    assert config is None and diags


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
    traces = []
    for budget in (None, 5):
        cfg = PolicyConfig(kind="chained_restricted", budget=budget) if budget is not None \
            else PolicyConfig(kind="no_payments")
        tr = RunTrace.allocate(cfg, np.zeros((len(AWKWARD_FLOATS), 2)), 3)
        tr.arm[:] = [2, 0, 1, 2]
        tr.inst_regret[:] = AWKWARD_FLOATS
        tr.paid[:] = AWKWARD_FLOATS[::-1]
        tr.budget[:] = [budget, budget, 4.5 if budget else None, -0.0 if budget else None]
        traces.append(tr)
    return traces


def test_trace_csv_bytes_equal_the_csv_modules(tmp_path):
    traces = awkward_traces()
    agg = harness.aggregate(traces[:1]), harness.aggregate(traces[1:])
    curves = [agg[0].runs[0], agg[1].runs[0]]
    for run in curves:
        run.cum_regret[:] = AWKWARD_FLOATS[1:] + AWKWARD_FLOATS[:1]
    rows = [TRACE_COLUMNS]
    for r, (tr, run) in enumerate(zip(traces, curves)):
        for i in range(tr.horizon):
            rows.append([i + 1, r, int(tr.arm[i])] + [cell(v) for v in (
                tr.inst_regret[i], run.cum_regret[i], tr.paid[i], run.cum_payment[i],
                run.cum_payment_abs[i], tr.budget[i])])
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
    for r, (tr, run) in enumerate(zip(traces, curves)):
        tr.budget[:] = [5 if i % 3 else 5.0 for i in range(horizon)]  # equal, printed apart
        cols = [tr.inst_regret, run.cum_regret, tr.paid, run.cum_payment, run.cum_payment_abs]
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
    for cpus, jobs, want in ((64, 1000, 4), (3, 1000, 3), (64, 2, 2), (1, 1000, None)):
        monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
        started.clear()
        run_experiment(config, jobs=jobs, out_dir=tmp_path / "out")
        assert started == ([] if want is None else [want])
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


def test_every_export_resolves():
    import payband
    assert [name for name in payband.__all__ if not hasattr(payband, name)] == []
    namespace = {}
    exec("from payband import *", namespace)
    assert set(payband.__all__) <= set(namespace)


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


def test_cli_missing_config_exits_2(tmp_path):
    assert main(["run", "--config", str(tmp_path / "absent.json")]) == 2


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


def test_cli_import_rejects_fewer_than_two_classes(tmp_path, capsys):
    data = tmp_path / "toy.csv"
    data.write_text("0.1,0.2,0\n")
    with pytest.raises(SystemExit) as exc:
        main(["import", "--csv", str(data), "--classes", "1"])
    assert exc.value.code == 2
    assert "--classes" in capsys.readouterr().err


def test_cli_import_bad_file_exits_3(tmp_path, capsys):
    data = tmp_path / "toy.csv"
    data.write_text("0.1,zap,0\n")
    assert main(["import", "--csv", str(data), "--classes", "2"]) == 3
