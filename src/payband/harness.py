"""Experiment harness: config handling, seeding, runs, and CSV output.

The config: README "Config format". Every (strategy, run) pair runs on its
own child seed (``child_seed_sequence``), split into context, reward-noise
and strategy streams (README "Output"); PAYBAND_SEED overrides the master
seed.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import operator
import os
from dataclasses import MISSING, dataclass, fields
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from .environment import (
    BanditDataset,
    DatasetEnvironment,
    DatasetReplaySpec,
    FixedSequenceSpec,
    GaussianContextSpec,
    LinearEnvironment,
    environment_cells,
    load_dataset_csv,
)
from .metrics import AccumulatedCurves, AggregateCurves, RoundRecords, RunTrace, aggregate
from .model import MAX_CELLS, ConfigError, InstanceSpec, most_that_fit
from .policies import (
    RIDGE,
    Policy,
    PolicyConfig,
    build_policy,
    initial_exploration,
    play_round,
    policy_cells,
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
class ExperimentConfig:
    """An instance, the strategies to run on it, and how often to run each."""

    instance: InstanceSpec
    policies: tuple
    n_runs: int
    output_dir: str = "out"
    emit_full_trace: bool = True

    def __post_init__(self) -> None:
        if self.n_runs < 1:
            raise ConfigError("n_runs", "integer >= 1", self.n_runs)
        if not self.policies:
            raise ConfigError("policies", "nonempty list", [])
        inst = self.instance  # the costliest strategy's runs bound n_runs
        cells, kind = max((run_cells(p.kind, inst.n_arms, inst.dim, inst.horizon), p.kind)
                          for p in self.policies)
        if self.n_runs * cells > MAX_CELLS:
            raise ConfigError("n_runs", f"<= {most_that_fit(lambda n: n * cells)} at {cells} "
                              f"float64 cells per {kind} run, so its runs hold at most 2**28",
                              self.n_runs)
        for i, policy in enumerate(self.policies):
            check_policy(self.instance, policy, f"policies[{i}].")


def check_policy(instance: InstanceSpec, policy: PolicyConfig, where: str = "") -> None:
    """The rules that tie a strategy to its instance: its exploration length
    fits the horizon, and in ridge mode its ``ridge_lambda`` reaches
    ``ridge_lambda_floor``. A broken rule raises ConfigError on the field,
    prefixed by ``where``."""
    if policy.init_explore_m is not None:
        instance.check_explore_m(where + "init_explore_m", policy.init_explore_m)
    floor = ridge_lambda_floor(instance.dim, instance.horizon)
    if policy.resolved_mode() == RIDGE and policy.ridge_lambda < floor:
        raise ConfigError(where + "ridge_lambda", f">= {floor:.3g} in ridge mode at dim "
                          f"{instance.dim} and horizon {instance.horizon}", policy.ridge_lambda)


def _is_finite_number(v) -> bool:
    # Python's json accepts NaN and Infinity, so a number can still be bad.
    try:
        return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
    except OverflowError:  # an integer beyond float64's range
        return False


# The JSON value types a config field can have. The run count's lower bound
# is part of its type, so a bad count is reported even when the instance is.
_JSON_TYPES = {
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "integer >= 1": lambda v: _JSON_TYPES["integer"](v) and v >= 1,
    "finite number": _is_finite_number,
    "boolean": lambda v: isinstance(v, bool),
    "string": lambda v: isinstance(v, str),
    "vector": lambda v: isinstance(v, list) and all(map(_is_finite_number, v)),
    "list": lambda v: isinstance(v, list),
    "object": lambda v: isinstance(v, dict),
}


def _typed(value, kind: str, field: str):
    """``value`` unchanged if it is a JSON value of type ``kind``. A list of
    vectors is reported on its first entry that is not a vector."""
    if kind == "list of vectors":
        for i, row in enumerate(_typed(value, "list", field)):
            _typed(row, "vector", f"{field}[{i}]")
    elif not _JSON_TYPES[kind](value):
        raise ConfigError(field, kind, value)
    return value


# Each config object's fields and their JSON types. The class the object
# builds gives an omitted field its default; a field it gives none is
# required (``_required``).
_TOP_FIELDS = {"instance": "object", "policies": "list", "n_runs": "integer >= 1",
               "output_dir": "string", "emit_full_trace": "boolean"}
_INSTANCE_FIELDS = {"n_arms": "integer", "dim": "integer", "horizon": "integer",
                    "init_explore_m": "integer", "master_seed": "integer",
                    "noise_std": "finite number", "context_source": "object",
                    "true_attrs": "list of vectors"}
_POLICY_FIELDS = {"kind": "string", "sigma_pay": "finite number",
                  "ridge_lambda": "finite number", "delta": "finite number",
                  "linucb_alpha": "finite number", "budget": "finite number",
                  "init_explore_m": "integer", "estimator_mode": "string"}
# Each kind of context source: the class it builds and its fields.
_SOURCES = {
    "fixed_sequence": (FixedSequenceSpec, {"kind": "string", "contexts": "list of vectors",
                                           "cycle": "boolean"}),
    "gaussian_iid": (GaussianContextSpec, {"kind": "string", "mean": "vector",
                                           "std": "finite number"}),
    "dataset_replay": (DatasetReplaySpec, {"kind": "string", "path": "string",
                                           "standardize": "boolean", "has_header": "boolean",
                                           "sample_with_replacement": "boolean"}),
}


def _required(cls) -> set:
    """The fields ``cls`` gives no default."""
    return {f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING}


def validate_config_data(data: dict, base_dir: Optional[Path] = None) -> list[ConfigError]:
    """Check a parsed JSON config against the schema, with PAYBAND_SEED
    applied as ``load_config_data`` applies it. Empty list means valid."""
    return load_config_data(data, base_dir)[1]


def resolve_dataset_path(path: str, base_dir: Optional[Path] = None) -> Path:
    """Resolve a dataset path. ``pkg:NAME`` names a file bundled with payband;
    relative paths resolve against the config file's directory."""
    if path.startswith("pkg:"):
        import importlib.resources  # here, so a config without a pkg: path never imports it

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


def load_config_data(data: dict, base_dir: Optional[Path] = None
                     ) -> tuple[Optional[ExperimentConfig], list[ConfigError]]:
    """Validate config data already read from JSON and build the config:
    (config, findings), config None when any finding is an error. Every bad
    field of every object is reported (README "Config format"). PAYBAND_SEED,
    when set, overrides the master seed and must be an integer >= 0 in
    ASCII digits alone.
    """
    env_seed = os.environ.get(SEED_ENV_VAR)
    if env_seed is not None and not (env_seed.isascii() and env_seed.isdigit()):
        return None, [ConfigError(SEED_ENV_VAR, "integer >= 0", env_seed)]
    seed = None if env_seed is None else int(env_seed)
    if not isinstance(data, dict):
        return None, [ConfigError("<root>", "must be a JSON object", type(data).__name__)]
    diags: list[ConfigError] = []

    def report(where: str, exc: ConfigError) -> None:
        diags.append(ConfigError(".".join(filter(None, (where, exc.field))) or "<root>",
                                 exc.constraint, exc.actual))

    def read(obj, table: dict, required: set, where: str) -> dict:
        """The fields of ``obj`` that have their ``table`` type; reports each mistake."""
        if not isinstance(obj, dict):
            report(where, ConfigError("", "object", obj))
            return {}
        unknown = sorted(set(obj) - set(table))
        if unknown:
            report(where, ConfigError("", f"only the fields {', '.join(table)}", unknown))
        clean = {}
        for key, kind in table.items():
            try:
                if key in obj:
                    clean[key] = _typed(obj[key], kind, key)
                elif key in required:
                    raise ConfigError(key, f"required {kind}", None)
            except ConfigError as exc:
                report(where, exc)
        return clean

    def build(since: int, where: str, cls, **kwargs):
        """``cls(**kwargs)``; None if ``cls`` or anything after diagnostic ``since`` failed."""
        if any(d.severity == "error" for d in diags[since:]):
            return None
        try:
            return cls(**kwargs)
        except ConfigError as exc:
            return report(where, exc)

    def context_source(src: dict, n_arms: Optional[int]):
        where = "instance.context_source"
        kind = read({k: v for k, v in src.items() if k == "kind"}, {"kind": "string"},
                    {"kind"}, where).get("kind")
        if kind not in _SOURCES:
            if kind is not None:
                report(where, ConfigError("kind", f"one of {' | '.join(_SOURCES)}", kind))
            return None
        since, (cls, table) = len(diags), _SOURCES[kind]
        spec = read(src, table, _required(cls) | {"path"}, where)  # a replay's dataset
        del spec["kind"]
        if cls is not DatasetReplaySpec:
            return build(since, where, cls, **spec)
        if any(d.severity == "error" for d in diags[since:]) or n_arms is None or n_arms < 2:
            return None  # labels are read against n_arms, reported bad elsewhere
        flags = {k: spec.pop(k) for k in ("standardize", "has_header") if k in spec}
        try:
            dataset = load_dataset_csv(str(resolve_dataset_path(spec.pop("path"), base_dir)),
                                       n_classes=n_arms, **flags)
        except (OSError, ValueError) as exc:
            return report(where, ConfigError("path", "existing, parseable dataset CSV", str(exc)))
        return DatasetReplaySpec(dataset, **spec)

    top = read(data, _TOP_FIELDS, _required(ExperimentConfig), "")
    instance = None
    if "instance" in top:
        inst, since = top["instance"], len(diags)
        src = inst.get("context_source")
        replay = isinstance(src, dict) and src.get("kind") == "dataset_replay"
        # Labels define a replay's rewards; other sources need true_attrs (InstanceSpec).
        spec = read({k: v for k, v in inst.items() if not (replay and k == "true_attrs")},
                    _INSTANCE_FIELDS, _required(InstanceSpec) - {"true_attrs"}, "instance")
        if "context_source" in spec:
            spec["context_source"] = context_source(spec["context_source"], spec.get("n_arms"))
        if seed is not None:
            spec["master_seed"] = seed
        instance = build(since, "instance", InstanceSpec, **{"true_attrs": None, **spec})
        if instance is not None and instance.init_explore_m < instance.n_arms * instance.dim:
            diags.append(ConfigError("instance.init_explore_m", ">= n_arms * dim = "
                                     f"{instance.n_arms * instance.dim} recommended",
                                     instance.init_explore_m, "warning"))
        if instance is not None and replay and "true_attrs" in inst:
            diags.append(ConfigError("instance.true_attrs", "ignored for dataset_replay "
                                     "(labels define rewards)", "set", "warning"))

    policies = []
    for i, policy in enumerate(top.get("policies", ())):
        since, where = len(diags), f"policies[{i}]"
        policy = read(policy, _POLICY_FIELDS, _required(PolicyConfig), where)
        policies.append(build(since, where, PolicyConfig, **policy))
    return build(0, "", ExperimentConfig,
                 **{**top, "instance": instance, "policies": tuple(policies)}), diags


def _unique_keys(pairs: list) -> dict:
    """A JSON object as a dict; a key written twice raises ValueError naming it."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ValueError(f"key {key!r} appears twice in one object")
        data[key] = value
    return data


def load_config_file(path: Union[str, Path]
                     ) -> tuple[Optional[ExperimentConfig], list[ConfigError]]:
    """Read a JSON config file, then validate and parse it (load_config_data).

    Relative dataset paths resolve against the file's directory; a leading
    UTF-8 byte order mark is skipped. Bytes that are not UTF-8 JSON, JSON
    nested too deep to parse, integer literals too long to convert and a key
    written twice in one object are reported like a missing file.
    """
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8-sig"), object_pairs_hook=_unique_keys)
    except (OSError, ValueError, RecursionError) as exc:  # JSON and UTF-8 errors are ValueErrors
        return None, [ConfigError(str(path), "readable JSON file", str(exc))]
    return load_config_data(data, path.parent)


# ---------------------------------------------------------------------------
# Seeding and the run engine.
# ---------------------------------------------------------------------------

def child_seed_sequence(master_seed: int, policy_index: int, run_index: int) -> np.random.SeedSequence:
    """The documented child-seed derivation: pure and injective in
    (policy_index, run_index) for a fixed master seed."""
    return np.random.SeedSequence(master_seed, spawn_key=(policy_index, run_index))


def spawn_streams(seed: Union[int, np.random.SeedSequence]
                  ) -> tuple[np.random.Generator, np.random.Generator, np.random.Generator]:
    """Three independent generators per run: contexts, reward noise, strategy,
    derived by value (entropy + extended spawn key), not by the stateful
    ``SeedSequence.spawn``, so equal seeds always give identical streams."""
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


def run_cells(kind: str, n_arms: int, dim: int, horizon: int) -> int:
    """The float64 cells a run of a ``kind`` strategy counts against ``MAX_CELLS``:
    its allocators' counts and the reward noise, drawn and then scaled
    (README "Command line")."""
    return (environment_cells(n_arms, dim, horizon) + 2 * horizon
            + policy_cells(kind, n_arms, dim, horizon) + RunTrace.cells(n_arms, dim, horizon)
            + AccumulatedCurves.cells(n_arms, horizon) + RoundRecords.cells(n_arms, dim, horizon)
            + 4096)  # a run's fixed objects, so that many tiny runs are bounded too


def run_single(instance: InstanceSpec, policy_cfg: PolicyConfig,
               seed: Union[int, np.random.SeedSequence],
               policy: Optional[Policy] = None) -> RunTrace:
    """One full run of one strategy on one instance (README "Run engine").

    A pre-built, possibly warm-started ``policy`` replaces the fresh one. A
    config that breaks a rule of ``check_policy`` raises ConfigError, and a
    policy built from another config or for another n_arms or dim raises
    ValueError, before anything is drawn.
    """
    check_policy(instance, policy_cfg)
    if policy is not None and policy.config != policy_cfg:
        raise ValueError(f"policy built from {policy.config}, not from policy_cfg "
                         f"{policy_cfg}")
    if policy is not None and (policy.n_arms, policy.dim) != (instance.n_arms, instance.dim):
        raise ValueError(f"policy built for n_arms {policy.n_arms} and dim {policy.dim}, "
                         f"instance has n_arms {instance.n_arms} and dim {instance.dim}")
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
    initial_exploration(policy, env, noise, trace)
    for t in range(m + 1, horizon + 1):
        play_round(policy, env, noise, trace, t)
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
        import concurrent.futures  # here, so a one-process run never imports it

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
    there are tasks or usable CPUs. Output bytes do not depend on ``jobs``, and
    one strategy's runs are held at a time (README "Run engine").
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    out = Path(out_dir if out_dir is not None else config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    tasks = [(config.instance, pcfg, pi, ri)
             for pi, pcfg in enumerate(config.policies)
             for ri in range(config.n_runs)]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(jobs, len(tasks), cpus or 1)
    with contextlib.closing(_traces(tasks, workers)) as traces:
        entries = [_write_strategy(out, pi, pcfg,
                                   list(itertools.islice(traces, config.n_runs)),
                                   config.emit_full_trace)
                   for pi, pcfg in enumerate(config.policies)]
    return {"out_dir": str(out), "policies": entries}


# ---------------------------------------------------------------------------
# CSV output.
# ---------------------------------------------------------------------------

# Rows a writer turns into text at a time: the texts of one chunk's cells are
# held until its rows are written, so memory does not grow with the horizon.
CHUNK_ROWS = 1024


def _texts(column: np.ndarray, memo: dict, end: str) -> list[str]:
    """Each cell of a 1-D float64 column as its ``float.__repr__`` text,
    followed by ``end``. Each run of bit-equal neighbours is formatted once,
    and a column bit-equal to one already in ``memo`` reuses its texts; the
    texts are those of each cell alone (README "Run engine",
    `test_trace_csv_formats_every_run_of_cells_as_each_cell_alone`).
    """
    key = (column.tobytes(), end)
    texts = memo.get(key)
    if texts is None:
        bits = column.view(np.int64)
        bounds = np.flatnonzero(bits[1:] - bits[:-1]) + 1  # not != (README "Run engine")
        runs = bounds.size + 1 < column.size
        if runs:
            bounds = np.concatenate(([0], bounds, [column.size]))
            column = column[bounds[:-1]]
        texts = list(map(float.__repr__, column.tolist()))
        if end:
            texts = [text + end for text in texts]
        if runs:
            texts = np.array(texts, dtype=object).repeat(bounds[1:] - bounds[:-1]).tolist()
        memo[key] = texts
    return texts


def _write_csv(path: Union[str, Path], header: list[str],
               blocks: Iterable[Sequence[Union[np.ndarray, list[str]]]]) -> None:
    """Write ``header``, then each block's rows, to ``path``, through a
    temporary file renamed onto it at the end, so a failed write leaves no
    partial file. A block is a sequence of equally long columns: float64
    arrays or lists of cell texts, a list in the last column ending each text
    in the line end. The lines are those ``csv.writer`` writes for the same cells
    (`test_trace_csv_bytes_equal_the_csv_modules`).
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    ends = [""] * (len(header) - 1) + ["\r\n"]
    try:
        with open(tmp, "w", newline="") as fh:
            fh.write(",".join(header) + "\r\n")
            for columns in blocks:
                for lo in range(0, len(columns[0]), CHUNK_ROWS):
                    chunk = slice(lo, lo + CHUNK_ROWS)
                    memo = {}
                    texts = [column[chunk] if isinstance(column, list)
                             else _texts(column[chunk], memo, end)
                             for column, end in zip(columns, ends, strict=True)]
                    fh.writelines(map(",".join, zip(*texts)))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _numbers(count: int) -> list[str]:
    """The texts of 1, 2, ..., count: a CSV's ``t`` column."""
    return list(map(str, range(1, count + 1)))


def write_trace_csv(path: Union[str, Path], traces: list[RunTrace],
                    curves: AccumulatedCurves) -> None:
    """One row per (run, round), runs concatenated in order.

    Row r of ``curves`` holds run r's accumulated curves, as ``aggregate``
    returns them in ``runs``.
    """
    longest = max((trace.horizon for trace in traces), default=0)
    numbers = _numbers(longest)
    blanks = ["\r\n"] * longest  # last cells, empty: a strategy configured without a budget

    def blocks():
        for run_index, (trace, regret, payment, payment_abs) in enumerate(zip(
                traces, curves.cum_regret, curves.cum_payment, curves.cum_payment_abs,
                strict=True)):
            arms = list(map(str, range(trace.payments.shape[1])))
            budget = blanks[:trace.horizon] if trace.policy.budget is None else trace.budget
            yield (numbers[:trace.horizon], [str(run_index)] * trace.horizon,
                   list(map(arms.__getitem__, trace.arm.tolist())),
                   trace.inst_regret, regret, trace.paid, payment, payment_abs, budget)

    _write_csv(path, TRACE_COLUMNS, blocks())


def write_aggregate_csv(path: Union[str, Path], agg: AggregateCurves) -> None:
    """Pointwise mean/stderr curves; exactly horizon rows."""
    n_arms = agg.mean_per_arm_payment.shape[0]
    header = ["t",
              "mean_cum_regret", "stderr_cum_regret",
              "mean_cum_payment_disbursed", "stderr_cum_payment_disbursed",
              "mean_cum_payment_abs", "stderr_cum_payment_abs"]
    header += [f"mean_cum_payment_arm{a}" for a in range(n_arms)]
    columns = [agg.mean_cum_regret, agg.stderr_cum_regret,
               agg.mean_cum_payment, agg.stderr_cum_payment,
               agg.mean_cum_payment_abs, agg.stderr_cum_payment_abs,
               *agg.mean_per_arm_payment]
    _write_csv(path, header, [(_numbers(len(agg.mean_cum_regret)), *columns)])


# ---------------------------------------------------------------------------
# Dataset import and presets.
# ---------------------------------------------------------------------------

def import_dataset(path: str, n_classes: int, standardize: bool = False,
                   has_header: bool = False) -> BanditDataset:
    """Load a CSV dataset and print a short summary.

    Only nonempty classes are listed, so the output is bounded by the rows.
    """
    dataset = load_dataset_csv(path, n_classes=n_classes, standardize=standardize,
                               has_header=has_header)
    classes, counts = np.unique(dataset.labels, return_counts=True)
    seen = [f"{c}: {n}" for c, n in zip(classes.tolist(), counts.tolist())]
    print(f"rows: {len(dataset)}")
    print(f"features: {dataset.dim}")
    print(f"standardized: {dataset.standardized}")
    print(f"class histogram: {', '.join(seen)} ({n_classes - len(seen)} empty)")
    return dataset


PRESETS = {"fig1": "fig1.json", "fig2-like": "fig2_like.json"}


def preset_config_path(name: str) -> Path:
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose from {tuple(PRESETS)}")
    return resolve_dataset_path(f"pkg:{PRESETS[name]}")
