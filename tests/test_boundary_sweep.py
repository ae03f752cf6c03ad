"""Boundary sweep: every config that ``validate`` accepts runs to the end.

A fixed grid of single-field extremes, plus seeded random combinations of
them, is applied to one small config that runs all five strategies. Each
config either fails ``validate`` (exit 2) or runs with exit 0 and writes
only finite cells; a run that dies (exit 3) or writes ``nan``/``inf`` is a
rule ``validate`` is missing.
"""

import csv
import json
import math
import warnings

import numpy as np

from payband.cli import main
from payband.policies import ridge_lambda_floor

DIM, HORIZON = 2, 24


def sweep_base():
    return {
        "instance": {
            "n_arms": 3, "dim": DIM, "horizon": HORIZON, "master_seed": 5,
            "noise_std": 0.1, "init_explore_m": 6,
            "context_source": {"kind": "gaussian_iid", "mean": [0.2, -0.1], "std": 0.5},
            "true_attrs": [[0.5, 0.0], [0.0, 0.5], [-0.3, 0.3]],
        },
        "policies": [
            {"kind": "no_payments"},
            {"kind": "perturbation_payments", "sigma_pay": 0.3},
            {"kind": "linucb_alignment"},
            {"kind": "chained_unrestricted"},
            {"kind": "chained_restricted", "budget": 1.0},
        ],
        "n_runs": 2,
    }


def instance(**fields):
    return lambda cfg: cfg["instance"].update(fields)


def source(**fields):
    """Set fields of a ``gaussian_iid`` source; a fixed sequence has none of them."""
    def apply(cfg):
        src = cfg["instance"]["context_source"]
        if src["kind"] == "gaussian_iid":
            src.update(fields)
    return apply


def fixed_contexts(value):
    def apply(cfg):
        cfg["instance"]["context_source"] = {
            "kind": "fixed_sequence", "contexts": [[value, value], [value, -value]],
            "cycle": True}
    return apply


def policies(**fields):
    def apply(cfg):
        for p in cfg["policies"]:
            if p["kind"] != "no_payments":
                p.update(fields)
    return apply


def ridge_lambda_at_floor(cfg):
    floor = ridge_lambda_floor(cfg["instance"]["dim"], cfg["instance"]["horizon"])
    policies(ridge_lambda=floor)(cfg)


def budget(value):
    def apply(cfg):
        cfg["policies"][-1]["budget"] = value
    return apply


EXTREMES = {
    "noise_std=1e100": instance(noise_std=1e100),
    "noise_std=1e-300": instance(noise_std=1e-300),
    "sigma_pay=1e100": policies(sigma_pay=1e100),
    "sigma_pay=1e-300": policies(sigma_pay=1e-300),
    "std=1e100": source(std=1e100),
    "std=1e-300": source(std=1e-300),
    "ridge_lambda=floor": ridge_lambda_at_floor,
    "ridge_lambda=1.7e308": policies(ridge_lambda=1.7e308),
    "delta=1e-300": policies(delta=1e-300),
    "linucb_alpha=1e100": policies(linucb_alpha=1e100),
    "budget=0": budget(0.0),
    "budget=5": budget(5),  # a JSON integer, stored as its float
    "budget=1e308": budget(1e308),
    "horizon=1": instance(horizon=1, init_explore_m=0),
    "horizon=2": instance(horizon=2, init_explore_m=1),
    "contexts=0": fixed_contexts(0.0),
    "contexts=1e100": fixed_contexts(1e100),
}


def combinations(n, size, seed=2024):
    rng = np.random.default_rng(seed)
    names = sorted(EXTREMES)
    return [tuple(sorted(rng.choice(names, size=size, replace=False))) for _ in range(n)]


# The combination most likely to overflow a square: every scale at 1e100.
LARGEST = ("contexts=1e100", "noise_std=1e100", "sigma_pay=1e100", "std=1e100")
# The widest LinUCB bonus: the largest alpha times the largest inverse-Gram norm.
WIDEST_BONUS = ("linucb_alpha=1e100", "ridge_lambda=floor")
GRID = [(name,) for name in EXTREMES] + [LARGEST, WIDEST_BONUS] + combinations(20, 4)


def cells_are_finite(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return all(math.isfinite(float(cell)) for row in rows for cell in row if cell)


def test_every_config_validate_accepts_runs_with_finite_cells(tmp_path, capsys):
    accepted = []
    for k, names in enumerate(GRID):
        cfg = sweep_base()
        for name in names:
            EXTREMES[name](cfg)
        path = tmp_path / f"cfg{k}.json"
        path.write_text(json.dumps(cfg))
        code = main(["validate", "--config", str(path)])
        assert code in (0, 2), names
        if code:
            continue
        out = tmp_path / f"out{k}"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["run", "--config", str(path), "--out", str(out)]) == 0, \
                (names, capsys.readouterr().err)
        csvs = sorted(out.glob("*.csv"))
        assert len(csvs) == 10, names
        assert [p.name for p in csvs if not cells_are_finite(p)] == [], names
        accepted.append(names)
    capsys.readouterr()
    # Every single-field extreme is a value validate accepts on its own.
    assert set(EXTREMES) <= {names[0] for names in accepted if len(names) == 1}
    assert LARGEST in accepted and WIDEST_BONUS in accepted
    assert len(accepted) > len(EXTREMES) + 2

