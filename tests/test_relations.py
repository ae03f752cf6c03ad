"""Exact relations between strategies, whole runs compared bit for bit.

Each relation follows from the strategies' definitions in the paper's model:
a parameter at its limit turns one strategy into another. Both sides of a
relation run on the same instance with the same ``child_seed_sequence``, so
they see the same contexts and noise, and every numeric trace column except
the budget must hold the same bits. These relations test the engine against
itself under a change of parameters, not against a copy of its own code: a
budget clamp, LinUCB bonus or perturbation that no longer vanishes at its
limit, or scores and picks that depend on more than the strategy's
parameters, break them.
"""

import dataclasses
import functools
import json

import pytest

from payband import PolicyConfig, child_seed_sequence, harness, run_single

# Shortened horizons keep the 24 cases well under 3 s.
HORIZONS = {"fig1": 200, "fig2-like": 300}
SEEDS = (0, 1, 2)
COLUMNS = ("arm", "payments", "shown_start", "shown_log", "true_mean", "inst_regret", "paid",
           "observed")


def _ridge_twin(cfg):
    """The passive baseline on the same ridge estimator as ``cfg``."""
    return PolicyConfig(kind="no_payments", estimator_mode="ridge",
                        ridge_lambda=cfg.ridge_lambda)


def _by_kind(config):
    return {p.kind: p for p in config.policies}


# name -> (the strategy at its limit, the strategy it must equal), from the
# preset's strategies by kind.
RELATIONS = {
    "unbounded_budget_is_unrestricted": lambda p: (
        dataclasses.replace(p["chained_restricted"], budget=1e300),
        p["chained_unrestricted"]),
    "linucb_without_bonus_is_greedy": lambda p: (
        dataclasses.replace(p["linucb_alignment"], linucb_alpha=0.0),
        _ridge_twin(p["linucb_alignment"])),
    "perturbation_without_noise_is_greedy": lambda p: (
        dataclasses.replace(p["perturbation_payments"], sigma_pay=0.0),
        p["no_payments"]),
    "zero_budget_is_greedy": lambda p: (
        dataclasses.replace(p["chained_restricted"], budget=0.0),
        _ridge_twin(p["chained_restricted"])),
}


@functools.cache
def _config(preset):
    path = harness.preset_config_path(preset)
    data = json.loads(path.read_text())
    data["instance"]["horizon"] = HORIZONS[preset]
    config, diags = harness.load_config_data(data, path.parent)
    assert config is not None, diags
    return config


@pytest.mark.parametrize("relation", list(RELATIONS))
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("preset", list(HORIZONS))
def test_strategy_at_its_limit_replays_its_twin(preset, seed, relation):
    config = _config(preset)
    limit, twin = RELATIONS[relation](_by_kind(config))
    a = run_single(config.instance, limit, child_seed_sequence(seed, 0, 0))
    b = run_single(config.instance, twin, child_seed_sequence(seed, 0, 0))
    for name in COLUMNS:
        got, want = getattr(a, name), getattr(b, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
