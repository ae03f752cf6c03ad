"""One workload in one fresh process: ``payband run --config ... --out ...``.

Run by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src``.
Modes:

* ``plain``  - records only the timeline (``Timeline``) that the end-to-end
  metrics are computed from.
* ``trace``  - also wraps the public functions of every payband module where
  they are looked up, and writes the spans out when the run ends.
* ``memory`` - runs under tracemalloc and measures the bytes the finished runs
  still hold (the per-round state ``run_experiment`` keeps until it writes).

Writes one JSON result file; the driver reads it and checks the CSVs.
"""

from __future__ import annotations

import time

# First reading of the run's timeline: the interval from the driver's spawn
# to here is interpreter start-up. perf_counter is CLOCK_MONOTONIC on Linux,
# one clock for every process, so the driver's readings share the timeline.
STARTED = time.perf_counter()

import argparse
import contextlib
import io
import json
import resource
import sys
import tracemalloc
from pathlib import Path

from tracer import Tracer

# One timeline reading per this many free-choice rounds: about 10-50 ms of work.
ROUNDS_PER_MARK = 50


def install_trace(tracer: Tracer) -> None:
    """Wrap each name in the namespace that looks it up at call time.

    ``from x import f`` binds ``f`` into the importing module, so wrapping
    ``x.f`` alone would miss those calls. Methods are wrapped on each class
    that defines them, overrides included.
    """
    from payband import environment, estimation, harness, metrics, policies

    counters = tracer.counters

    def chain_size(args, members):
        counters["chain_members"] += len(members)

    def linucb_disagreement(args, payments):
        _, greedy, base = args[0].alignment_log[-1]
        counters["linucb_disagree"] += greedy != base

    def paid_round(args, record):
        counters["paid_rounds"] += record.payment_paid != 0.0

    def csv_bytes(counter):
        def after(args, result):
            counters[counter] += Path(args[0]).stat().st_size
        return after

    functions = [
        (estimation, "cholesky_spd", "linalg.cholesky_spd", None),
        (estimation, "forward_substitute", "linalg.substitute", None),
        (estimation, "back_substitute", "linalg.substitute", None),
        (policies, "confidence_width", "estimation.confidence_width", None),
        (policies, "realize_from_mean", "environment.realize", None),
        (policies, "agent_choose", "model.agent_choose", None),
        (policies, "linucb_choose", "policies.linucb_choose", None),
        (policies, "build_chain", "policies.build_chain", chain_size),
        (policies, "chained_payment", "policies.chained_payment", None),
        (metrics, "accumulate", "metrics.accumulate", None),
        (harness, "aggregate", "metrics.aggregate", None),
        (harness, "load_dataset_csv", "environment.load_dataset_csv", None),
        (harness, "play_round", "policies.play_round", paid_round),
        (harness, "initial_exploration", "policies.initial_exploration", None),
        (harness, "build_environment", "harness.build_environment", None),
        (harness, "run_single", "harness.run_single", None),
        (harness, "write_trace_csv", "harness.write_trace_csv", csv_bytes("trace_csv_bytes")),
        (harness, "write_aggregate_csv", "harness.write_aggregate_csv",
         csv_bytes("aggregate_csv_bytes")),
        (harness, "load_config_file", "harness.load_config_file", None),
        (harness, "run_experiment", "harness.run_experiment", None),
    ]
    methods = [
        (estimation.EstimatorState, "absorb", "estimation.absorb", None),
        (estimation.EstimatorState, "estimate", "estimation.estimate", None),
        (estimation.EstimatorState, "inv_norm", "estimation.inv_norm", None),
        (environment.LinearEnvironment, "context", "environment.context", None),
        (environment.DatasetEnvironment, "context", "environment.context", None),
        (environment.LinearEnvironment, "true_means", "environment.true_means", None),
        (environment.DatasetEnvironment, "true_means", "environment.true_means", None),
        (policies.Policy, "displayed_estimates", "policies.displayed_estimates", None),
        (policies.Policy, "update", "policies.update", None),
        (policies.PerturbationPaymentsPolicy, "update", "policies.update", None),
        (policies.NoPaymentsPolicy, "calc_payments", "policies.calc_payments", None),
        (policies.PerturbationPaymentsPolicy, "calc_payments", "policies.calc_payments", None),
        (policies.LinUCBAlignmentPolicy, "calc_payments", "policies.calc_payments",
         linucb_disagreement),
        (policies.ChainedPolicy, "calc_payments", "policies.calc_payments", None),
        (metrics.RunTrace, "__post_init__", "metrics.run_trace", None),
    ]
    for owner, attr, name, after in functions:
        errors = "linalg.singular" if name == "linalg.cholesky_spd" else None
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), after, errors))
    for cls, attr, name, after in methods:
        setattr(cls, attr, tracer.wrap(name, cls.__dict__[attr], after))


def run_stats(kind: str, trace) -> dict:
    """What the output checks need from one finished run."""
    cum = max_cum = 0.0
    any_paid = False
    min_budget = None
    for rec in trace.records:
        cum += rec.payment_paid
        max_cum = max(max_cum, cum)
        any_paid = any_paid or rec.payment_paid != 0.0
        if rec.budget_remaining is not None:
            min_budget = rec.budget_remaining if min_budget is None \
                else min(min_budget, rec.budget_remaining)
    return {"kind": kind, "max_cum_paid": max_cum, "any_paid": any_paid,
            "min_budget": min_budget}


class Timeline:
    """Clock readings at milestones every repetition passes in the same order.

    The workload is deterministic for a given seed, so reading ``i`` of one
    repetition and reading ``i`` of another mark the same point of the same
    work; the driver compares each interval across repetitions.
    """

    def __init__(self) -> None:
        self.marks: list[float] = []

    def mark(self) -> int:
        self.marks.append(time.perf_counter())
        return len(self.marks) - 1

    def around(self, fn, spans: list):
        """``fn`` with a reading before and after each call; appends
        (first, last) reading indices to ``spans``."""
        def call(*args, **kwargs):
            first = self.mark()
            try:
                return fn(*args, **kwargs)
            finally:
                spans.append((first, self.mark()))
        return call

    def every(self, fn, n: int):
        """``fn`` with a reading after every ``n``-th call."""
        calls = 0

        def call(*args, **kwargs):
            nonlocal calls
            result = fn(*args, **kwargs)
            calls += 1
            if calls % n == 0:
                self.mark()
            return result
        return call


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--mode", choices=("plain", "trace", "memory"), required=True)
    args = parser.parse_args()

    timeline = Timeline()
    timeline.marks.append(STARTED)
    import_span = [timeline.mark()]
    import payband.cli
    from payband import harness
    import numpy
    import_span.append(timeline.mark())

    tracer = Tracer() if args.mode == "trace" else None
    if tracer is not None:
        install_trace(tracer)

    config_spans: list = []
    experiment_spans: list = []
    run_spans: list = []
    runs: list = []
    memory: list[int] = []
    run_single = timeline.around(harness.run_single, run_spans)

    def recorded_run_single(instance, policy_cfg, seed, policy=None):
        if args.mode == "memory" and not memory:
            memory.append(tracemalloc.get_traced_memory()[0])
        trace = run_single(instance, policy_cfg, seed, policy)
        if args.mode == "memory":
            memory.append(tracemalloc.get_traced_memory()[0])
        runs.append((policy_cfg.kind, instance.horizon, trace))
        return trace

    harness.run_single = recorded_run_single
    harness.play_round = timeline.every(harness.play_round, ROUNDS_PER_MARK)
    harness.write_trace_csv = timeline.every(harness.write_trace_csv, 1)
    harness.write_aggregate_csv = timeline.every(harness.write_aggregate_csv, 1)
    harness.load_config_file = timeline.around(harness.load_config_file, config_spans)
    harness.run_experiment = timeline.around(harness.run_experiment, experiment_spans)

    if args.mode == "memory":
        tracemalloc.start()
    with contextlib.redirect_stdout(io.StringIO()):
        exit_code = payband.cli.main(["run", "--config", args.config, "--out", args.out])
    if args.mode == "memory":
        tracemalloc.stop()
    if exit_code != 0:
        Path(args.result).write_text(json.dumps({"exit_code": exit_code}))
        return 0

    result = {
        "exit_code": exit_code,
        "payband_file": payband.__file__,
        "payband_version": payband.__version__,
        "numpy_version": numpy.__version__,
        "python_version": sys.version.split()[0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "spans": {"import": import_span, "load_config": config_spans[0],
                  "run_experiment": experiment_spans[0]},
        "runs": [dict(run_stats(kind, trace), rounds=rounds, span=span)
                 for (kind, rounds, trace), span in zip(runs, run_spans)],
    }
    runs.clear()
    if args.mode == "memory" and memory:
        result["retained_bytes"] = memory[-1] - memory[0]
    if tracer is not None:
        spans = Path(args.result).parent / "spans.bin"
        tracer.dump(spans)
        result["trace_spans"] = str(spans)
    timeline.mark()
    result["marks"] = timeline.marks
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
