"""Experiment harness: config handling, seeding, runs, and CSV output.

A JSON config describes one instance, a list of payment strategies, and a
run count. Every (strategy, run) pair gets its own child seed derived as

    SeedSequence(master_seed, spawn_key=(policy_index, run_index))

which is a pure function of the three integers and injective in the pair, so
runs never share streams and any single run can be reproduced in isolation.
Each run then splits its seed into three independent streams (contexts,
reward noise, strategy randomness); strategies that draw nothing leave the
other streams untouched, which makes equal-seed comparisons across
strategies exact.

The environment variable PAYBAND_SEED, when set, overrides the config's
master seed.
"""

from __future__ import annotations

import concurrent.futures
import csv
import importlib.resources
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .environment import (
    BanditDataset,
    DatasetEnvironment,
    DatasetReplaySpec,
    FixedSequenceSpec,
    GaussianContextSpec,
    LinearEnvironment,
    load_dataset_csv,
)
from .metrics import RunTrace, aggregate
from .model import MAX_DIM, InstanceSpec
from .policies import (
    CHAINED_RESTRICTED,
    POLICY_KINDS,
    ChainedPolicy,
    PerturbationPaymentsPolicy,
    LinUCBAlignmentPolicy,
    Policy,
    PolicyConfig,
    build_policy,
    initial_exploration,
    play_round,
)

SEED_ENV_VAR = "PAYBAND_SEED"

EXIT_OK = 0
EXIT_CONFIG_INVALID = 2
EXIT_RUNTIME_FAILURE = 3

TRACE_COLUMNS = [
    "t", "run", "arm", "inst_regret", "cum_regret",
    "inst_payment_disbursed", "cum_payment_disbursed", "cum_payment_abs",
    "budget_remaining",
]


# ---------------------------------------------------------------------------
# Config validation and parsing.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Diagnostic:
    """One validation finding. Errors block a run; warnings do not."""

    fieldname: str
    constraint: str
    actual: str
    severity: str = "error"

    def __str__(self) -> str:
        return f"[{self.severity}] {self.fieldname}: {self.constraint} (got {self.actual})"


@dataclass(frozen=True)
class ExperimentConfig:
    instance: InstanceSpec
    policies: tuple
    n_runs: int
    output_dir: str = "out"
    emit_full_trace: bool = True


def _err(field: str, constraint: str, actual) -> Diagnostic:
    return Diagnostic(field, constraint, repr(actual), "error")


def _warn(field: str, constraint: str, actual) -> Diagnostic:
    return Diagnostic(field, constraint, repr(actual), "warning")


def _is_finite_number(v) -> bool:
    # Python's json accepts NaN and Infinity, so a number can still be bad.
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def validate_config_data(data: dict, base_dir: Optional[Path] = None) -> list[Diagnostic]:
    """Check a parsed JSON config against the schema. Empty list means valid."""
    diags: list[Diagnostic] = []
    if not isinstance(data, dict):
        return [_err("<root>", "must be a JSON object", type(data).__name__)]

    inst = data.get("instance")
    if not isinstance(inst, dict):
        diags.append(_err("instance", "required object", inst))
        inst = {}

    def want_int(obj, field, lo, hi=None, owner="instance"):
        v = obj.get(field)
        if not isinstance(v, int) or isinstance(v, bool):
            diags.append(_err(f"{owner}.{field}", "required integer", v))
            return None
        if v < lo or (hi is not None and v > hi):
            bound = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
            diags.append(_err(f"{owner}.{field}", bound, v))
            return None
        return v

    def want_vector(v, field, length) -> bool:
        if (isinstance(v, list) and (length is None or len(v) == length)
                and all(_is_finite_number(x) for x in v)):
            return True
        diags.append(_err(field, f"vector of length {length} of finite numbers", v))
        return False

    n_arms = want_int(inst, "n_arms", 2)
    dim = want_int(inst, "dim", 1, MAX_DIM)
    horizon = want_int(inst, "horizon", 1)
    want_int(inst, "master_seed", 0)

    noise_std = inst.get("noise_std")
    if not _is_finite_number(noise_std) or noise_std < 0:
        diags.append(_err("instance.noise_std", "required finite number >= 0", noise_std))

    m = inst.get("init_explore_m")
    if not isinstance(m, int) or isinstance(m, bool) or m < 0:
        diags.append(_err("instance.init_explore_m", "required integer >= 0", m))
    else:
        if horizon is not None and m > horizon:
            diags.append(_err("instance.init_explore_m", "<= horizon", m))
        if n_arms is not None and dim is not None and m < n_arms * dim:
            diags.append(_warn("instance.init_explore_m",
                               f">= n_arms * dim = {n_arms * dim} recommended", m))

    source = inst.get("context_source")
    kind = None
    if not isinstance(source, dict) or "kind" not in source:
        diags.append(_err("instance.context_source", "object with a 'kind' field", source))
        source = {}
    else:
        kind = source["kind"]

    if kind == "fixed_sequence":
        ctxs = source.get("contexts")
        if not isinstance(ctxs, list) or not ctxs:
            diags.append(_err("context_source.contexts", "nonempty list of vectors", ctxs))
        else:
            for i, c in enumerate(ctxs):
                if not want_vector(c, f"context_source.contexts[{i}]", dim):
                    break
            cycle = source.get("cycle", False)
            if horizon is not None and not cycle and len(ctxs) < horizon:
                diags.append(_err("context_source.contexts",
                                  f"length >= horizon ({horizon}) unless cycle is true",
                                  len(ctxs)))
    elif kind == "gaussian_iid":
        want_vector(source.get("mean"), "context_source.mean", dim)
        std = source.get("std")
        if not _is_finite_number(std) or std < 0:
            diags.append(_err("context_source.std", "finite number >= 0", std))
    elif kind == "dataset_replay":
        path = source.get("path")
        if not isinstance(path, str):
            diags.append(_err("context_source.path", "required string", path))
        else:
            try:
                resolved = resolve_dataset_path(path, base_dir)
            except FileNotFoundError as exc:
                diags.append(_err("context_source.path", "existing file", str(exc)))
                resolved = None
            if resolved is not None:
                try:
                    ds = load_dataset_csv(
                        str(resolved),
                        n_classes=n_arms if n_arms else 2,
                        standardize=False,
                        has_header=bool(source.get("has_header", False)),
                    )
                except Exception as exc:
                    diags.append(_err("context_source.path", "parseable dataset CSV", str(exc)))
                else:
                    if dim is not None and ds.dim != dim:
                        diags.append(_err("context_source.path",
                                          f"feature dimension == instance.dim ({dim})",
                                          ds.dim))
                    if (horizon is not None and len(ds) < horizon
                            and not source.get("sample_with_replacement", False)):
                        diags.append(_err("instance.horizon",
                                          f"<= dataset rows ({len(ds)}) unless "
                                          "sample_with_replacement", horizon))
    elif kind is not None:
        diags.append(_err("context_source.kind",
                          "one of fixed_sequence | gaussian_iid | dataset_replay", kind))

    attrs = inst.get("true_attrs")
    if kind == "dataset_replay":
        if attrs is not None:
            diags.append(_warn("instance.true_attrs",
                               "ignored for dataset_replay (labels define rewards)", "set"))
    else:
        if not isinstance(attrs, list) or (n_arms is not None and len(attrs) != n_arms):
            diags.append(_err("instance.true_attrs", f"list of {n_arms} vectors", attrs if not isinstance(attrs, list) else len(attrs)))
        else:
            for i, row in enumerate(attrs):
                if not want_vector(row, f"instance.true_attrs[{i}]", dim):
                    break
                norm = float(np.linalg.norm(row))
                if norm > 1.0 + 1e-9:
                    diags.append(_err(f"instance.true_attrs[{i}]",
                                      "Euclidean norm <= 1", round(norm, 6)))

    policies = data.get("policies")
    if not isinstance(policies, list) or not policies:
        diags.append(_err("policies", "nonempty list", policies))
        policies = []
    for i, p in enumerate(policies):
        owner = f"policies[{i}]"
        if not isinstance(p, dict):
            diags.append(_err(owner, "object", p))
            continue
        pkind = p.get("kind")
        if pkind not in POLICY_KINDS:
            diags.append(_err(f"{owner}.kind", f"one of {', '.join(POLICY_KINDS)}", pkind))
            continue
        try:
            _policy_config_from_dict(p)
        except (ValueError, TypeError) as exc:
            diags.append(_err(owner, "valid policy config", str(exc)))
            continue
        pm = p.get("init_explore_m")
        if pm is not None and horizon is not None and isinstance(pm, int) and pm > horizon:
            diags.append(_err(f"{owner}.init_explore_m", "<= horizon", pm))

    n_runs = data.get("n_runs")
    if not isinstance(n_runs, int) or isinstance(n_runs, bool) or n_runs < 1:
        diags.append(_err("n_runs", "required integer >= 1", n_runs))

    return diags


_POLICY_FIELDS = {"kind", "sigma_pay", "ridge_lambda", "delta", "linucb_alpha",
                  "budget", "init_explore_m", "estimator_mode"}


def _policy_config_from_dict(p: dict) -> PolicyConfig:
    unknown = set(p) - _POLICY_FIELDS
    if unknown:
        raise ValueError(f"unknown policy fields: {sorted(unknown)!r}")
    return PolicyConfig(**p)


def resolve_dataset_path(path: str, base_dir: Optional[Path] = None) -> Path:
    """Resolve a dataset path. ``pkg:NAME`` names a file bundled with payband;
    relative paths resolve against the config file's directory."""
    if path.startswith("pkg:"):
        resource = importlib.resources.files("payband.presets") / path[4:]
        with importlib.resources.as_file(resource) as concrete:
            if not concrete.exists():
                raise FileNotFoundError(f"no bundled dataset named {path[4:]!r}")
            return Path(concrete)
    p = Path(path)
    if not p.is_absolute() and base_dir is not None:
        p = base_dir / p
    if not p.exists():
        raise FileNotFoundError(f"dataset file not found: {p}")
    return p


def parse_config(data: dict, base_dir: Optional[Path] = None,
                 master_seed_override: Optional[int] = None) -> ExperimentConfig:
    """Build an ExperimentConfig from validated JSON data."""
    inst = data["instance"]
    source_data = inst["context_source"]
    kind = source_data["kind"]
    if kind == "fixed_sequence":
        source = FixedSequenceSpec(
            contexts=tuple(source_data["contexts"]),
            cycle=bool(source_data.get("cycle", False)),
        )
    elif kind == "gaussian_iid":
        source = GaussianContextSpec(
            mean=np.asarray(source_data["mean"], float),
            std=float(source_data["std"]),
        )
    elif kind == "dataset_replay":
        source = DatasetReplaySpec(
            path=str(resolve_dataset_path(source_data["path"], base_dir)),
            n_classes=int(inst["n_arms"]),
            standardize=bool(source_data.get("standardize", False)),
            has_header=bool(source_data.get("has_header", False)),
            sample_with_replacement=bool(source_data.get("sample_with_replacement", False)),
        )
    else:
        raise ValueError(f"unknown context source kind {kind!r}")

    attrs = inst.get("true_attrs")
    master_seed = int(inst["master_seed"])
    if master_seed_override is not None:
        master_seed = master_seed_override
    instance = InstanceSpec(
        n_arms=int(inst["n_arms"]),
        dim=int(inst["dim"]),
        horizon=int(inst["horizon"]),
        true_attrs=None if kind == "dataset_replay" else np.asarray(attrs, float),
        noise_std=float(inst["noise_std"]),
        context_source=source,
        init_explore_m=int(inst["init_explore_m"]),
        master_seed=master_seed,
    )
    policies = tuple(_policy_config_from_dict(p) for p in data["policies"])
    return ExperimentConfig(
        instance=instance,
        policies=policies,
        n_runs=int(data["n_runs"]),
        output_dir=str(data.get("output_dir", "out")),
        emit_full_trace=bool(data.get("emit_full_trace", True)),
    )


def load_config_data(data: dict, base_dir: Optional[Path] = None,
                     master_seed_override: Optional[int] = None
                     ) -> tuple[Optional[ExperimentConfig], list[Diagnostic]]:
    """Validate and parse config data already read from JSON.

    Returns (config, diagnostics); config is None when errors were found.
    The PAYBAND_SEED environment variable, when set, overrides the master
    seed unless an explicit override is already supplied; it must be an
    integer >= 0.
    """
    if master_seed_override is None:
        env_seed = os.environ.get(SEED_ENV_VAR)
        if env_seed is not None:
            try:
                master_seed_override = int(env_seed)
            except ValueError:
                pass
            if master_seed_override is None or master_seed_override < 0:
                return None, [_err(SEED_ENV_VAR, "integer >= 0", env_seed)]
    diags = validate_config_data(data, base_dir=base_dir)
    if any(d.severity == "error" for d in diags):
        return None, diags
    return parse_config(data, base_dir=base_dir,
                        master_seed_override=master_seed_override), diags


def load_config_file(path: Union[str, Path],
                     master_seed_override: Optional[int] = None
                     ) -> tuple[Optional[ExperimentConfig], list[Diagnostic]]:
    """Read a JSON config file, then validate and parse it (load_config_data).

    Relative dataset paths resolve against the file's directory.
    """
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return None, [_err(str(path), "readable JSON file", str(exc))]
    return load_config_data(data, path.parent, master_seed_override)


# ---------------------------------------------------------------------------
# Seeding and the run engine.
# ---------------------------------------------------------------------------

def child_seed_sequence(master_seed: int, policy_index: int, run_index: int) -> np.random.SeedSequence:
    """The documented child-seed derivation: pure and injective in
    (policy_index, run_index) for a fixed master seed."""
    return np.random.SeedSequence(master_seed, spawn_key=(policy_index, run_index))


def spawn_streams(seed: Union[int, np.random.SeedSequence]
                  ) -> tuple[np.random.Generator, np.random.Generator, np.random.Generator]:
    """Three independent generators per run: contexts, reward noise, strategy.

    Child sequences are derived by value (entropy + extended spawn key), not via
    the stateful ``SeedSequence.spawn``, so equal-valued seeds always yield
    identical streams no matter how often they are reused.
    """
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    children = [
        np.random.SeedSequence(entropy=seed.entropy,
                               spawn_key=tuple(seed.spawn_key) + (j,))
        for j in range(3)
    ]
    return tuple(np.random.default_rng(c) for c in children)


def build_environment(instance: InstanceSpec, ctx_rng: np.random.Generator):
    source = instance.context_source
    if isinstance(source, DatasetReplaySpec):
        dataset = load_dataset_csv(source.path, n_classes=source.n_classes,
                                   standardize=source.standardize,
                                   has_header=source.has_header)
        return DatasetEnvironment(dataset, instance.horizon, ctx_rng,
                                  source.sample_with_replacement)
    if isinstance(source, FixedSequenceSpec):
        from .environment import FixedSequenceStream
        stream = FixedSequenceStream(source)
    elif isinstance(source, GaussianContextSpec):
        from .environment import GaussianContextStream
        stream = GaussianContextStream(source)
    else:
        raise TypeError(f"unsupported context source {type(source).__name__}")
    return LinearEnvironment(instance.true_attrs, stream, ctx_rng)


def _seed_label(seed: Union[int, np.random.SeedSequence]) -> int:
    if isinstance(seed, np.random.SeedSequence):
        return int(seed.generate_state(1)[0])
    return int(seed)


def run_single(instance: InstanceSpec, policy_cfg: PolicyConfig,
               seed: Union[int, np.random.SeedSequence],
               policy: Optional[Policy] = None) -> RunTrace:
    """One full run of one strategy on one instance.

    A pre-built (possibly warm-started) policy object can be injected; by
    default a fresh one is constructed from the config.
    """
    ctx_rng, noise_rng, policy_rng = spawn_streams(seed)
    env = build_environment(instance, ctx_rng)
    if policy is None:
        policy = build_policy(policy_cfg, env.n_arms, env.dim)
    m = policy_cfg.init_explore_m if policy_cfg.init_explore_m is not None \
        else instance.init_explore_m
    if isinstance(policy, ChainedPolicy):
        policy.explore_m = m
    records = initial_exploration(policy, env, instance.noise_std, m, noise_rng)
    for t in range(m + 1, instance.horizon + 1):
        records.append(play_round(policy, env, instance.noise_std, t,
                                  noise_rng, policy_rng))
    diagnostics: dict = {}
    if isinstance(policy, PerturbationPaymentsPolicy):
        diagnostics["effective_contexts"] = policy.effective_contexts
    if isinstance(policy, LinUCBAlignmentPolicy):
        diagnostics["alignment_log"] = policy.alignment_log
    return RunTrace(records=records, policy=policy_cfg,
                    seed=_seed_label(seed), diagnostics=diagnostics)


def _run_one(args) -> tuple[int, int, RunTrace]:
    instance, policy_cfg, policy_index, run_index = args
    seed = child_seed_sequence(instance.master_seed, policy_index, run_index)
    return policy_index, run_index, run_single(instance, policy_cfg, seed)


def run_experiment(config: ExperimentConfig, jobs: int = 1,
                   out_dir: Optional[Union[str, Path]] = None) -> dict:
    """Run every (strategy, run) pair and write per-strategy CSV files.

    ``jobs`` (>= 1) caps the worker processes; no more are started than
    there are tasks or CPUs. Results are written in (policy, run) order
    regardless of worker completion order, so output bytes do not depend
    on ``jobs``.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    out = Path(out_dir if out_dir is not None else config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    tasks = [(config.instance, pcfg, pi, ri)
             for pi, pcfg in enumerate(config.policies)
             for ri in range(config.n_runs)]
    results: dict[tuple[int, int], RunTrace] = {}
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            for pi, ri, trace in pool.map(_run_one, tasks):
                results[(pi, ri)] = trace
    else:
        for task in tasks:
            pi, ri, trace = _run_one(task)
            results[(pi, ri)] = trace

    manifest: dict = {"out_dir": str(out), "policies": []}
    for pi, pcfg in enumerate(config.policies):
        traces = [results[(pi, ri)] for ri in range(config.n_runs)]
        label = f"p{pi}_{pcfg.label()}"
        agg_path = out / f"{label}_aggregate.csv"
        write_aggregate_csv(agg_path, traces)
        entry = {"label": label, "kind": pcfg.kind, "aggregate": str(agg_path)}
        if config.emit_full_trace:
            trace_path = out / f"{label}_trace.csv"
            write_trace_csv(trace_path, traces)
            entry["trace"] = str(trace_path)
        manifest["policies"].append(entry)
    return manifest


# ---------------------------------------------------------------------------
# CSV output.
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def write_trace_csv(path: Union[str, Path], traces: list[RunTrace]) -> None:
    """One row per (run, round), runs concatenated in order."""
    from .metrics import accumulate
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        for run_index, trace in enumerate(traces):
            curves = accumulate(trace)
            for i, rec in enumerate(trace.records):
                writer.writerow([
                    rec.t, run_index, rec.chosen_arm,
                    _fmt(rec.inst_regret), _fmt(curves.cum_regret[i]),
                    _fmt(rec.payment_paid), _fmt(curves.cum_payment[i]),
                    _fmt(curves.cum_payment_abs[i]),
                    _fmt(rec.budget_remaining),
                ])


def write_aggregate_csv(path: Union[str, Path], traces: list[RunTrace]) -> None:
    """Pointwise mean/stderr curves; exactly horizon rows."""
    agg = aggregate(traces)
    n_arms = agg.mean_per_arm_payment.shape[0]
    header = ["t",
              "mean_cum_regret", "stderr_cum_regret",
              "mean_cum_payment_disbursed", "stderr_cum_payment_disbursed",
              "mean_cum_payment_abs", "stderr_cum_payment_abs"]
    header += [f"mean_cum_payment_arm{a}" for a in range(n_arms)]
    horizon = agg.mean_cum_regret.shape[0]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(horizon):
            row = [i + 1,
                   _fmt(agg.mean_cum_regret[i]), _fmt(agg.stderr_cum_regret[i]),
                   _fmt(agg.mean_cum_payment[i]), _fmt(agg.stderr_cum_payment[i]),
                   _fmt(agg.mean_cum_payment_abs[i]), _fmt(agg.stderr_cum_payment_abs[i])]
            row += [_fmt(agg.mean_per_arm_payment[a, i]) for a in range(n_arms)]
            writer.writerow(row)


# ---------------------------------------------------------------------------
# Dataset import and presets.
# ---------------------------------------------------------------------------

def import_dataset(path: str, n_classes: int, standardize: bool = False,
                   has_header: bool = False) -> BanditDataset:
    """Load a CSV dataset and print a short summary."""
    dataset = load_dataset_csv(path, n_classes=n_classes, standardize=standardize,
                               has_header=has_header)
    hist = dataset.class_histogram()
    print(f"rows: {len(dataset)}")
    print(f"features: {dataset.dim}")
    print(f"standardized: {dataset.standardized}")
    print("class histogram: " + ", ".join(f"{c}: {n}" for c, n in enumerate(hist)))
    return dataset


PRESET_NAMES = ("fig1", "fig2-like")


def preset_config_path(name: str) -> Path:
    if name not in PRESET_NAMES:
        raise ValueError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    filename = "fig1.json" if name == "fig1" else "fig2_like.json"
    resource = importlib.resources.files("payband.presets") / filename
    with importlib.resources.as_file(resource) as concrete:
        return Path(concrete)
