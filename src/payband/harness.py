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
import contextlib
import importlib.resources
import itertools
import json
import math
import operator
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional, Union

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
from .metrics import AccumulatedCurves, AggregateCurves, RunTrace, aggregate
from .model import ConfigError, InstanceSpec
from .policies import (
    RIDGE,
    Policy,
    PolicyConfig,
    build_policy,
    initial_exploration,
    play_round,
    realize_outcomes,
    ridge_lambda_floor,
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
    """An instance, the strategies to run on it, and how often to run each."""

    instance: InstanceSpec
    policies: tuple
    n_runs: int
    output_dir: str = "out"
    emit_full_trace: bool = True

    def __post_init__(self) -> None:
        self.check_n_runs(self.n_runs)
        if not self.policies:
            raise ConfigError("policies", "nonempty list", [])
        floor = ridge_lambda_floor(self.instance.dim, self.instance.horizon)
        for i, policy in enumerate(self.policies):
            if policy.init_explore_m is not None:
                self.instance.check_explore_m(f"policies[{i}].init_explore_m",
                                              policy.init_explore_m)
            if policy.resolved_mode() == RIDGE and policy.ridge_lambda < floor:
                raise ConfigError(f"policies[{i}].ridge_lambda",
                                  f">= {floor:.3g} in ridge mode at dim {self.instance.dim} "
                                  f"and horizon {self.instance.horizon}", policy.ridge_lambda)

    @staticmethod
    def check_n_runs(n_runs: int) -> None:
        """Also called by the config loader on its own, so a bad run count is
        reported together with errors that keep the config from being built."""
        if n_runs < 1:
            raise ConfigError("n_runs", "integer >= 1", n_runs)


def _err(field: str, constraint: str, actual) -> Diagnostic:
    return Diagnostic(field, constraint, repr(actual), "error")


def _warn(field: str, constraint: str, actual) -> Diagnostic:
    return Diagnostic(field, constraint, repr(actual), "warning")


def _is_finite_number(v) -> bool:
    # Python's json accepts NaN and Infinity, so a number can still be bad.
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


# The JSON value types a config field can have.
_JSON_TYPES = {
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "finite number": _is_finite_number,
    "boolean": lambda v: isinstance(v, bool),
    "string": lambda v: isinstance(v, str),
    "vector": lambda v: isinstance(v, list) and all(map(_is_finite_number, v)),
    "list": lambda v: isinstance(v, list),
    "object": lambda v: isinstance(v, dict),
}

_REQUIRED = object()


def _typed(value, kind: str, field: str):
    """``value`` unchanged if it is a JSON value of type ``kind``."""
    if not _JSON_TYPES[kind](value):
        raise ConfigError(field, kind, value)
    return value


def _read(obj: dict, key: str, kind: str, default=_REQUIRED):
    """``obj[key]`` as a JSON value of type ``kind``; ``default`` when absent."""
    if key not in obj:
        if default is _REQUIRED:
            raise ConfigError(key, f"required {kind}", None)
        return default
    return _typed(obj[key], kind, key)


def _vectors(obj: dict, key: str) -> list:
    return [_typed(v, "vector", f"{key}[{i}]") for i, v in enumerate(_read(obj, key, "list"))]


_POLICY_FIELDS = {"kind": "string", "sigma_pay": "finite number",
                  "ridge_lambda": "finite number", "delta": "finite number",
                  "linucb_alpha": "finite number", "budget": "finite number",
                  "init_explore_m": "integer", "estimator_mode": "string"}


def _policy(p) -> PolicyConfig:
    _typed(p, "object", "")
    unknown = sorted(set(p) - set(_POLICY_FIELDS))
    if unknown:
        raise ConfigError("", f"only the fields {', '.join(_POLICY_FIELDS)}", unknown)
    _read(p, "kind", "string")
    return PolicyConfig(**{k: _read(p, k, kind) for k, kind in _POLICY_FIELDS.items() if k in p})


def _context_source(src: dict, n_arms: Optional[int], base_dir: Optional[Path]):
    kind = _read(src, "kind", "string")
    if kind == "fixed_sequence":
        return FixedSequenceSpec(contexts=tuple(_vectors(src, "contexts")),
                                 cycle=_read(src, "cycle", "boolean", False))
    if kind == "gaussian_iid":
        return GaussianContextSpec(mean=_read(src, "mean", "vector"),
                                   std=float(_read(src, "std", "finite number")))
    if kind == "dataset_replay":
        path = _read(src, "path", "string")
        standardize = _read(src, "standardize", "boolean", False)
        has_header = _read(src, "has_header", "boolean", False)
        with_replacement = _read(src, "sample_with_replacement", "boolean", False)
        if n_arms is None or n_arms < 2:
            return None  # labels are read against n_arms, reported bad elsewhere
        try:
            dataset = load_dataset_csv(str(resolve_dataset_path(path, base_dir)),
                                       n_classes=n_arms, standardize=standardize,
                                       has_header=has_header)
        except (OSError, ValueError) as exc:
            raise ConfigError("path", "existing, parseable dataset CSV", str(exc)) from None
        return DatasetReplaySpec(dataset, with_replacement)
    raise ConfigError("kind", "one of fixed_sequence | gaussian_iid | dataset_replay", kind)


def _load(data, base_dir: Optional[Path], master_seed_override: Optional[int]
          ) -> tuple[Optional[ExperimentConfig], list[Diagnostic]]:
    """Type-check config data and build the config in one pass.

    Range and cross-field rules are checked by the constructors of the spec
    objects. Each section (instance fields, context source, true_attrs, each
    policy, n_runs) reports its first error, so independent mistakes are all
    reported together.
    """
    if not isinstance(data, dict):
        return None, [_err("<root>", "must be a JSON object", type(data).__name__)]
    diags: list[Diagnostic] = []

    def attempt(section: str, build):
        try:
            return build()
        except ConfigError as exc:
            diags.append(_err(".".join(filter(None, (section, exc.field))),
                              exc.constraint, exc.actual))
            return None

    inst = attempt("", lambda: _read(data, "instance", "object")) or {}
    ints = {key: attempt("instance", lambda key=key: _read(inst, key, "integer"))
            for key in ("n_arms", "dim", "horizon", "init_explore_m", "master_seed")}
    noise_std = attempt("instance", lambda: _read(inst, "noise_std", "finite number"))
    src = attempt("instance", lambda: _read(inst, "context_source", "object"))
    source = attrs = None
    if src is not None:
        source = attempt("instance.context_source",
                         lambda: _context_source(src, ints["n_arms"], base_dir))
    replay = src is not None and src.get("kind") == "dataset_replay"
    if not replay:
        attrs = attempt("instance", lambda: _vectors(inst, "true_attrs"))
    instance = None
    if not diags:  # every instance field and the context source read cleanly
        if master_seed_override is not None:
            ints["master_seed"] = master_seed_override
        instance = attempt("instance", lambda: InstanceSpec(
            true_attrs=attrs, noise_std=float(noise_std), context_source=source, **ints))
    if instance is not None:
        n_arms, dim, m = instance.n_arms, instance.dim, instance.init_explore_m
        if m < n_arms * dim:
            diags.append(_warn("instance.init_explore_m",
                               f">= n_arms * dim = {n_arms * dim} recommended", m))
        if replay and "true_attrs" in inst:
            diags.append(_warn("instance.true_attrs",
                               "ignored for dataset_replay (labels define rewards)", "set"))

    policy_data = attempt("", lambda: _read(data, "policies", "list")) or []
    policies = [attempt(f"policies[{i}]", lambda p=p: _policy(p))
                for i, p in enumerate(policy_data)]
    n_runs = attempt("", lambda: _read(data, "n_runs", "integer"))
    if n_runs is not None:
        attempt("", lambda: ExperimentConfig.check_n_runs(n_runs))
    output_dir = attempt("", lambda: _read(data, "output_dir", "string", "out"))
    emit_full_trace = attempt("", lambda: _read(data, "emit_full_trace", "boolean", True))
    if any(d.severity == "error" for d in diags):
        return None, diags
    config = attempt("", lambda: ExperimentConfig(instance, tuple(policies), n_runs,
                                                  output_dir, emit_full_trace))
    return config, diags


def validate_config_data(data: dict, base_dir: Optional[Path] = None) -> list[Diagnostic]:
    """Check a parsed JSON config against the schema, with PAYBAND_SEED
    applied as ``load_config_data`` applies it. Empty list means valid."""
    return load_config_data(data, base_dir)[1]


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
    return _load(data, base_dir, master_seed_override)


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
    """The run's environment, with every round's context drawn from ``ctx_rng``."""
    source = instance.context_source
    if isinstance(source, DatasetReplaySpec):
        return DatasetEnvironment(source.dataset, instance.horizon, ctx_rng,
                                  source.sample_with_replacement)
    return LinearEnvironment(instance.true_attrs, source, instance.horizon, ctx_rng)


def run_single(instance: InstanceSpec, policy_cfg: PolicyConfig,
               seed: Union[int, np.random.SeedSequence],
               policy: Optional[Policy] = None) -> RunTrace:
    """One full run of one strategy on one instance.

    Each stream is drawn for the whole run before the first round: the
    contexts, the reward noise, and what the strategy can draw ahead (see
    ``Policy.start_run``). Each round then fills its row of the trace, and
    the strategy's ``diagnostics`` are copied into the trace at the end.

    A pre-built (possibly warm-started) policy object can be injected; by
    default a fresh one is constructed from the config.
    """
    ctx_rng, noise_rng, policy_rng = spawn_streams(seed)
    env = build_environment(instance, ctx_rng)
    if policy is None:
        policy = build_policy(policy_cfg, env.n_arms, env.dim)
    m = policy_cfg.init_explore_m if policy_cfg.init_explore_m is not None \
        else instance.init_explore_m
    horizon = instance.horizon
    noise = instance.noise_std * noise_rng.standard_normal(horizon)
    policy.start_run(m, horizon - m, policy_rng)
    trace = RunTrace.allocate(policy_cfg, env.contexts, env.n_arms)
    initial_exploration(policy, env, noise, trace, m)
    for t in range(m + 1, horizon + 1):
        play_round(policy, env, noise, trace, t, policy_rng)
    realize_outcomes(env, noise, trace)
    trace.diagnostics.update(policy.diagnostics)
    return trace


def _run_one(args) -> tuple[int, int, RunTrace]:
    instance, policy_cfg, policy_index, run_index = args
    seed = child_seed_sequence(instance.master_seed, policy_index, run_index)
    return policy_index, run_index, run_single(instance, policy_cfg, seed)


def _traces(tasks: list, workers: int) -> Iterator[RunTrace]:
    """Each task's trace, in task order, from ``workers`` processes.

    ``itemgetter`` drops each result as it passes it on; a loop variable
    would keep the last trace alive while the next run is computed.
    """
    third = operator.itemgetter(2)
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            yield from map(third, pool.map(_run_one, tasks))
    else:
        yield from map(third, map(_run_one, tasks))


def _write_strategy(out: Path, policy_index: int, policy_cfg: PolicyConfig,
                    traces: list[RunTrace], emit_full_trace: bool) -> dict:
    """Write one strategy's CSVs from its runs; its manifest entry."""
    label = f"p{policy_index}_{policy_cfg.kind}"
    agg_path = out / f"{label}_aggregate.csv"
    agg = aggregate(traces)
    write_aggregate_csv(agg_path, agg)
    entry = {"label": label, "kind": policy_cfg.kind, "aggregate": str(agg_path)}
    if emit_full_trace:
        trace_path = out / f"{label}_trace.csv"
        write_trace_csv(trace_path, traces, agg.runs)
        entry["trace"] = str(trace_path)
    return entry


def run_experiment(config: ExperimentConfig, jobs: int = 1,
                   out_dir: Optional[Union[str, Path]] = None) -> dict:
    """Run every (strategy, run) pair and write per-strategy CSV files.

    ``jobs`` (>= 1) caps the worker processes; no more are started than
    there are tasks or CPUs. Results arrive in (policy, run) order
    regardless of worker completion order, so output bytes do not depend
    on ``jobs``. Each strategy's CSVs are written as soon as its runs are
    in, and its traces are dropped then, so one strategy's runs are held
    at a time.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    out = Path(out_dir if out_dir is not None else config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    tasks = [(config.instance, pcfg, pi, ri)
             for pi, pcfg in enumerate(config.policies)
             for ri in range(config.n_runs)]
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    with contextlib.closing(_traces(tasks, workers)) as traces:
        entries = [_write_strategy(out, pi, pcfg,
                                   list(itertools.islice(traces, config.n_runs)),
                                   config.emit_full_trace)
                   for pi, pcfg in enumerate(config.policies)]
    return {"out_dir": str(out), "policies": entries}


# ---------------------------------------------------------------------------
# CSV output.
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


@contextlib.contextmanager
def _atomic_csv(path: Union[str, Path]):
    """A text file whose lines replace ``path`` only once all are written.

    Lines go to a temporary file in the same directory, which is renamed onto
    ``path`` at the end, so a failed write leaves no partial file behind.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _reprs(values) -> Iterator[str]:
    """``_fmt`` of each value in a column of floats, produced as rows are written.

    Each run of bit-equal neighbours is formatted once and its text repeated
    for the rest of the run: a shortest round-trip ``repr`` costs about a
    microsecond, and most cells of these curves repeat the cell above them
    (zero payments, cumulative sums that step, payments once a budget is
    spent, a single run's stderr). Runs are found on the int64 bit patterns,
    so 0.0 and -0.0, or NaNs with different payloads, stay apart, and every
    cell gets exactly the text ``float.__repr__`` gives it. The texts are
    made lazily, as lines are pulled; np.float64 subclasses float, so it
    prints as Python does.

    Neighbours differ where their bit patterns' difference is nonzero (the
    subtraction wraps, so only equal patterns give zero). ``!=`` would say
    the same, but no other step runs numpy's int64 comparison, and paging
    its code in raised the benchmark's peak RSS by about 0.1 MB.
    """
    a = np.asarray(values, dtype=float)
    bits = a.view(np.int64)
    bounds = np.concatenate(([0], np.flatnonzero(bits[1:] - bits[:-1]) + 1, [a.size]))
    return itertools.chain.from_iterable(map(
        itertools.repeat, map(float.__repr__, a[bounds[:-1]]), bounds[1:] - bounds[:-1]))


def _csv_line(n_cells: int) -> str:
    """A ``str.format`` template for one CSV line of ``n_cells`` formatted cells.

    The lines are what ``csv.writer`` writes for these cells: comma
    separated, ended by ``\\r\\n``, nothing quoted (no cell holds a comma,
    quote or line break).
    """
    return ",".join(["{}"] * n_cells) + "\r\n"


def write_trace_csv(path: Union[str, Path], traces: list[RunTrace],
                    curves: list[AccumulatedCurves]) -> None:
    """One row per (run, round), runs concatenated in order.

    ``curves`` are the runs' accumulated curves, in the same order, as
    ``aggregate`` returns them in ``runs``.
    """
    line = _csv_line(len(TRACE_COLUMNS)).format
    with _atomic_csv(path) as fh:
        fh.write(",".join(TRACE_COLUMNS) + "\r\n")
        for run_index, (trace, run) in enumerate(zip(traces, curves, strict=True)):
            fh.writelines(map(
                line, range(1, trace.horizon + 1), itertools.repeat(run_index),
                trace.arm.tolist(),
                _reprs(trace.inst_regret), _reprs(run.cum_regret),
                _reprs(trace.paid), _reprs(run.cum_payment),
                _reprs(run.cum_payment_abs),
                map(_fmt, trace.budget),
            ))


def write_aggregate_csv(path: Union[str, Path], agg: AggregateCurves) -> None:
    """Pointwise mean/stderr curves; exactly horizon rows."""
    n_arms = agg.mean_per_arm_payment.shape[0]
    header = ["t",
              "mean_cum_regret", "stderr_cum_regret",
              "mean_cum_payment_disbursed", "stderr_cum_payment_disbursed",
              "mean_cum_payment_abs", "stderr_cum_payment_abs"]
    header += [f"mean_cum_payment_arm{a}" for a in range(n_arms)]
    horizon = agg.mean_cum_regret.shape[0]
    columns = [agg.mean_cum_regret, agg.stderr_cum_regret,
               agg.mean_cum_payment, agg.stderr_cum_payment,
               agg.mean_cum_payment_abs, agg.stderr_cum_payment_abs,
               *agg.mean_per_arm_payment]
    with _atomic_csv(path) as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(map(_csv_line(len(header)).format, range(1, horizon + 1),
                          *map(_reprs, columns)))


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
