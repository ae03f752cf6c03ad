"""Output checks for one workload repetition.

Each check is one attempted operation; a failed check counts in the result's
``failed`` field next to failed (strategy, run) tasks. The CSVs are read back
from disk, so the checks see exactly what a user would get.
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

NO_PAYMENTS = "no_payments"
CHAINED_RESTRICTED = "chained_restricted"


def _read(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _floats(rows: list[list[str]]) -> bool:
    """Every non-empty cell parses as a finite number."""
    try:
        return all(math.isfinite(float(cell)) for row in rows for cell in row if cell)
    except ValueError:
        return False


def _column(header: list[str], rows: list[list[str]], name: str) -> list[float]:
    j = header.index(name)
    return [float(row[j]) for row in rows]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_outputs(csv_dir: Path, config: dict, runs: list[dict]) -> list[tuple[str, bool]]:
    """(check name, passed) for every output check of one repetition.

    ``runs`` holds the worker's per-run facts in (policy, run) order.
    """
    horizon = config["instance"]["horizon"]
    n_runs = config["n_runs"]
    results: list[tuple[str, bool]] = []
    cache: dict[Path, tuple] = {}

    def read(path: Path) -> tuple[list[str], list[list[str]]]:
        if path not in cache:
            cache[path] = _read(path)
        return cache[path]

    def check(name: str, fn) -> None:
        try:
            ok = bool(fn())
        except (OSError, ValueError, TypeError, IndexError):
            ok = False
        results.append((name, ok))

    for pi, policy in enumerate(config["policies"]):
        kind = policy["kind"]
        label = f"p{pi}_{kind}"
        mine = runs[pi * n_runs:(pi + 1) * n_runs]
        check(f"{label}.runs_completed",
              lambda: len(mine) == n_runs and all(r["kind"] == kind for r in mine))

        agg_path = csv_dir / f"{label}_aggregate.csv"
        check(f"{label}.aggregate_rows", lambda: len(read(agg_path)[1]) == horizon)
        check(f"{label}.aggregate_finite", lambda: _floats(read(agg_path)[1]))

        def regret_nondecreasing():
            regret = _column(*read(agg_path), "mean_cum_regret")
            return all(b >= a for a, b in zip(regret, regret[1:]))
        check(f"{label}.regret_nondecreasing", regret_nondecreasing)

        trace_path = csv_dir / f"{label}_trace.csv"
        if config["emit_full_trace"]:
            check(f"{label}.trace_rows",
                  lambda: len(read(trace_path)[1]) == horizon * n_runs)
            check(f"{label}.trace_finite", lambda: _floats(read(trace_path)[1]))

        if kind == CHAINED_RESTRICTED:
            budget = policy["budget"]

            def within_budget():
                ok = all(r["max_cum_paid"] <= budget and r["min_budget"] >= 0.0
                         for r in mine)
                ok = ok and max(_column(*read(agg_path), "mean_cum_payment_disbursed")) <= budget
                if config["emit_full_trace"]:
                    header, rows = read(trace_path)
                    ok = ok and max(_column(header, rows, "cum_payment_disbursed")) <= budget
                    ok = ok and min(_column(header, rows, "budget_remaining")) >= 0.0
                return ok
            check(f"{label}.within_budget", within_budget)

        if kind == NO_PAYMENTS:
            def pays_nothing():
                header, rows = read(agg_path)
                paid = [h for h in header if "payment" in h]
                ok = not any(r["any_paid"] for r in mine)
                ok = ok and all(v == 0.0 for h in paid for v in _column(header, rows, h))
                if config["emit_full_trace"]:
                    header, rows = read(trace_path)
                    paid = [h for h in header if "payment" in h]
                    ok = ok and all(v == 0.0 for h in paid for v in _column(header, rows, h))
                return ok
            check(f"{label}.pays_nothing", pays_nothing)
    return results


def csv_hashes(csv_dir: Path) -> dict[str, str]:
    return {p.name: sha256(p) for p in sorted(csv_dir.glob("*.csv"))}
