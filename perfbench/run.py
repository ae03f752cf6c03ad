"""payband benchmark driver (standard library only).

    python3 perfbench/run.py --workload fig1 --seed 3 --seconds 50 --trace 0

Run from the root of a payband checkout. Each repetition runs the workload in
a fresh ``perfbench/worker.py`` process with ``jobs=1`` (the ``payband run``
command on a config derived from a bundled preset, with ``--seed`` as its
``master_seed``), then checks the CSVs it wrote. Repetitions continue until
``--seconds`` have passed. End-to-end times sum the least-disturbed interval
of each stretch of identical work (see ``least_disturbed``); per-layer values
are medians over traced repetitions.

``--trace 0`` reports the end-to-end metrics named in ``BENCHMARK.json``.
``--trace 1`` alternates untraced and traced repetitions, adds one tracemalloc
repetition, and reports the per-layer metrics. The last stdout line is one
JSON object; the full record (machine facts, every repetition, CSV sha256
digests) goes to ``.bench_out/<workload>-seed<n>-trace<t>/result.json``.
See ``perfbench/README.md`` for why each workload and metric exists.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
from tracer import load_spans, summarize

HERE = Path(__file__).resolve().parent
PRESETS = Path("src") / "payband" / "presets"

# A run must end within 180 s; stop starting repetitions well before that.
HARD_LIMIT_S = 150.0


def _preset(root: Path, name: str, seed: int) -> dict:
    data = json.loads((root / PRESETS / name).read_text())
    data["instance"]["master_seed"] = seed
    return data


def fig1(root: Path, seed: int, smoke: bool) -> dict:
    data = _preset(root, "fig1.json", seed)
    data["n_runs"] = 1 if smoke else 2
    if smoke:
        data["instance"]["horizon"] = 80
    return data


def fig2_like(root: Path, seed: int, smoke: bool) -> dict:
    data = _preset(root, "fig2_like.json", seed)
    data["n_runs"] = 1
    data["instance"]["horizon"] = 80 if smoke else 1000
    return data


WORKLOADS = {"fig1": fig1, "fig2-like": fig2_like}


def worker_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # One process on one core: numpy's BLAS must not start a thread pool.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    # The benchmark seed is the config's master_seed; nothing may override it.
    env.pop("PAYBAND_SEED", None)
    return env


def git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


class Session:
    """Repetitions of one workload, with their output checks."""

    def __init__(self, root: Path, out: Path, config: dict, started: float) -> None:
        self.root = root
        self.out = out
        self.config = config
        self.started = started
        self.config_path = out / "config.json"
        self.config_path.write_text(json.dumps(config, indent=1))
        self.env = worker_env(root)
        self.tasks = len(config["policies"]) * config["n_runs"]
        self.attempted = 0
        self.failed = 0
        self.failed_checks: list[str] = []
        self.hashes: dict[str, str] | None = None
        self.readings = 0
        self.reps: list[dict] = []

    def warm_up(self) -> None:
        """Fill the bytecode and page caches, which users have warm too."""
        subprocess.run([sys.executable, "-c", "import payband.cli"], env=self.env,
                       cwd=self.root, stdout=subprocess.DEVNULL, timeout=60, check=True)

    def _record(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failed_checks.append(name)

    def rep(self, mode: str) -> dict | None:
        """One repetition; returns the worker's result with ``wall_s`` added,
        or None when the worker failed (all its tasks count as failed)."""
        k = len(self.reps)
        rep_dir = self.out / f"rep{k}-{mode}"
        shutil.rmtree(rep_dir, ignore_errors=True)
        rep_dir.mkdir(parents=True)
        csv_dir = rep_dir / "csv"
        result_path = rep_dir / "result.json"
        cmd = [sys.executable, str(HERE / "worker.py"), "--config", str(self.config_path),
               "--out", str(csv_dir), "--result", str(result_path), "--mode", mode]
        timeout = max(1.0, HARD_LIMIT_S + 20 - (time.perf_counter() - self.started))
        with open(rep_dir / "stderr.txt", "wb") as err:
            spawned = time.perf_counter()
            try:
                proc = subprocess.run(cmd, env=self.env, cwd=self.root,
                                      stdout=subprocess.DEVNULL, stderr=err, timeout=timeout)
                returncode = proc.returncode
            except subprocess.TimeoutExpired:
                returncode = None
            exited = time.perf_counter()
        wall = exited - spawned
        result = None
        if returncode == 0 and result_path.exists():
            result = json.loads(result_path.read_text())
            result.update(spawned=spawned, exited=exited, wall_s=wall)
        ok = result is not None and result["exit_code"] == 0 and Path(
            result["payband_file"]).resolve().is_relative_to(self.root / "src")
        self.reps.append({"mode": mode, "wall_s": wall, "returncode": returncode,
                          "result": result if ok else None})
        if not ok:
            print(f"repetition {k} ({mode}) failed; see {rep_dir / 'stderr.txt'}",
                  file=sys.stderr)
            self.attempted += self.tasks
            self.failed += self.tasks
            return None
        self.attempted += self.tasks
        for name, passed in checks.check_outputs(csv_dir, self.config, result["runs"]):
            self._record(f"rep{k}.{name}", passed)
        hashes = checks.csv_hashes(csv_dir)
        if self.hashes is None:
            self.hashes, self.readings = hashes, len(result["marks"])
        else:
            self._record(f"rep{k}.csv_bytes_repeat", hashes == self.hashes)
            self._record(f"rep{k}.timeline_repeat", len(result["marks"]) == self.readings)
        shutil.rmtree(csv_dir)
        return result


def least_disturbed(reps: list[dict]):
    """Cost of a span of the timeline, from the fastest repetition of each
    interval.

    Every repetition runs identical work through the same readings, and
    other load on the machine only ever adds time, so the minimum of each
    interval over repetitions is the least-disturbed measurement of that piece
    of work. Returns ``cost(first, last)`` over worker reading indices (-1 is
    the spawn, ``len(marks)`` the exit).
    """
    timelines = [[r["spawned"]] + r["marks"] + [r["exited"]] for r in reps]
    least = [min(t[i + 1] - t[i] for t in timelines) for i in range(len(timelines[0]) - 1)]
    cumulative = [0.0]
    for piece in least:
        cumulative.append(cumulative[-1] + piece)
    return lambda first, last: cumulative[last + 1] - cumulative[first + 1]


def end_to_end(plain: list[dict]) -> dict[str, float]:
    cost = least_disturbed(plain)
    spans = plain[0]["spans"]
    runs = plain[0]["runs"]
    m = {
        "wall_s": cost(-1, len(plain[0]["marks"])),
        "setup_s": cost(*spans["import"]) + cost(*spans["load_config"]),
        "rounds_per_s": sum(r["rounds"] for r in runs) / cost(*spans["run_experiment"]),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
    }
    for kind in dict.fromkeys(r["kind"] for r in runs):
        mine = [r for r in runs if r["kind"] == kind]
        m[f"us_per_round.{kind}"] = (sum(cost(*r["span"]) for r in mine)
                                     / sum(r["rounds"] for r in mine) * 1e6)
    return m


SELF_TIMES = (
    "linalg.cholesky_spd", "linalg.substitute",
    "estimation.absorb", "estimation.estimate", "estimation.inv_norm",
    "estimation.confidence_width",
    "environment.context", "environment.true_means", "environment.realize",
    "policies.calc_payments", "policies.displayed_estimates", "policies.update",
    "policies.play_round", "policies.linucb_choose", "policies.build_chain",
    "policies.chained_payment",
    "model.agent_choose",
    "metrics.accumulate", "metrics.aggregate",
    "harness.write_aggregate_csv", "harness.build_environment",
    "harness.load_config_file", "harness.run_single",
)
CALL_COUNTS = (
    "linalg.cholesky_spd", "linalg.substitute",
    "estimation.absorb", "estimation.estimate", "estimation.inv_norm",
    "estimation.confidence_width", "environment.load_dataset_csv",
)
MODULES = ("linalg", "estimation", "environment", "policies", "model", "metrics", "harness")
ROOT_SPAN = "harness.run_experiment"


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer_one(summary: dict) -> dict[str, float]:
    """Per-layer values of one traced repetition."""
    calls, self_s, counters = summary["calls"], summary["self_s"], summary["counters"]
    inside = summary["inside_self_s"]
    m: dict[str, float] = {}
    for name in SELF_TIMES:
        m[f"{name}.self_s"] = self_s.get(name, 0.0)
    for name in CALL_COUNTS:
        m[f"{name}.calls"] = calls.get(name, 0)
    for module in MODULES:
        m[f"{module}.self_s"] = sum(v for k, v in inside.items()
                                    if k.startswith(module + ".") and k != ROOT_SPAN)
    m["linalg.singular"] = counters.get("linalg.singular", 0)
    m["estimation.factorizations_per_absorb"] = _ratio(
        calls.get("linalg.cholesky_spd", 0), calls.get("estimation.absorb", 0))
    m["policies.chain_size_mean"] = _ratio(
        counters.get("chain_members", 0), calls.get("policies.build_chain", 0))
    m["policies.linucb_disagree_ratio"] = _ratio(
        counters.get("linucb_disagree", 0), calls.get("policies.linucb_choose", 0))
    m["policies.paid_round_ratio"] = _ratio(
        counters.get("paid_rounds", 0), calls.get("policies.play_round", 0))
    m["metrics.accumulate_per_run"] = _ratio(
        calls.get("metrics.accumulate", 0), calls.get("harness.run_single", 0))
    m["harness.write_trace_csv.bytes"] = counters.get("trace_csv_bytes", 0)
    m["harness.write_aggregate_csv.bytes"] = counters.get("aggregate_csv_bytes", 0)
    m["harness.write_csv.self_s"] = (self_s.get("harness.write_trace_csv", 0.0)
                                     + self_s.get("harness.write_aggregate_csv", 0.0))
    m["trace.run_experiment_s"] = summary["root_s"]
    m["trace.unattributed_s"] = inside.get(ROOT_SPAN, 0.0)
    return m


def per_layer(plain: list[dict], traced: list[dict], memory: dict | None) -> dict[str, float]:
    rows = []
    for i, r in enumerate(traced):
        path = Path(r["trace_spans"])
        header, arrays = load_spans(path)
        rows.append(per_layer_one(summarize(header, arrays, ROOT_SPAN)))
        if i + 1 < len(traced):  # keep only the last repetition's spans on disk
            path.unlink()
    m = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    plain_cost, traced_cost = least_disturbed(plain), least_disturbed(traced)
    m["cli.import_s"] = plain_cost(*plain[0]["spans"]["import"])
    exit_index = len(plain[0]["marks"])
    m["trace.overhead_ratio"] = traced_cost(-1, exit_index) / plain_cost(-1, exit_index)
    if memory is not None:
        rounds = sum(run["rounds"] for run in memory["runs"])
        m["model.retained_bytes_per_round"] = memory["retained_bytes"] / rounds
    return m


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="tiny horizons, for the benchmark's own smoke test")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0 (it becomes the config's master_seed)")

    started = time.perf_counter()
    root = Path.cwd().resolve()
    spec_path = root / "BENCHMARK.json"
    if not (root / "src" / "payband" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"{root} is not a payband checkout (need src/payband and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    out = root / ".bench_out" / tag
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    config = WORKLOADS[args.workload](root, args.seed, args.smoke)
    session = Session(root, out, config, started)
    session.warm_up()

    plain: list[dict] = []
    traced: list[dict] = []
    memory = None
    while True:
        t0 = time.perf_counter()
        for mode, sink in (("plain", plain), ("trace", traced))[:1 + args.trace]:
            result = session.rep(mode)
            if result is not None:
                sink.append(result)
        now = time.perf_counter()
        if now - started >= args.seconds or now - started + (now - t0) > HARD_LIMIT_S:
            break
    if args.trace:
        memory = session.rep("memory")
    if not plain or (args.trace and not traced):
        print("no repetition succeeded; no metrics to report", file=sys.stderr)
        return 1
    if len({len(r["marks"]) for r in plain + traced}) != 1:
        print("repetitions did not pass the same timeline readings", file=sys.stderr)
        return 1

    values = per_layer(plain, traced, memory) if args.trace else end_to_end(plain)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"metrics not measured on this workload: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    first = plain[0]
    facts = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_at_start": os.getloadavg(),
        "python": first["python_version"],
        "numpy": first["numpy_version"],
        "payband": first["payband_version"],
        "git_commit": git_commit(root),
        "platform": platform.platform(),
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": facts, "config": config,
        "csv_sha256": session.hashes, "failed_checks": session.failed_checks,
        "repetitions": session.reps, "metrics": metrics,
    }
    (out / "result.json").write_text(json.dumps(record, indent=1))

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(plain)} untraced and {len(traced)} traced repetitions "
          f"in {time.perf_counter() - started:.1f} s")
    print("machine: " + ", ".join(f"{k} {v}" for k, v in facts.items()))
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(f"failed_fraction {_ratio(session.failed, session.attempted)!r} ratio "
          f"({session.failed} of {session.attempted} tasks and output checks)")
    for name in session.failed_checks:
        print(f"failed check: {name}")
    print(f"full record: {out / 'result.json'}")
    print(json.dumps({"correct": session.failed == 0, "attempted": session.attempted,
                      "failed": session.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
