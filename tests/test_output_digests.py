"""Byte-identity guard: shortened presets must keep their recorded CSV bytes.

The digests were recorded from the engine these presets ran on before the
stacked inverses, the buffered Gram matrix, the list-based agent choice and
the csv-free writers. A change meant to move no float must leave them all
unchanged. The engine oracles in ``test_engine.py`` run on the package's
own estimator and ``agent_choose``, so they cannot see such a move; these
digests can. A change that moves floats on purpose records new digests here
and says why.
"""

import hashlib
import json

import pytest

from payband import harness

# (preset, runs, horizon) -> sha256 of each CSV, by file stem.
DIGESTS = {
    ("fig1", 2, 200): {
        "p0_no_payments_aggregate": "e9e271c020b4033d819f87e313f399e4482363b333a6b72a91c4c029f2531d1a",
        "p0_no_payments_trace": "4e6872ac25c9398887def6641aa5b1faf4d8f99ddf998e22ab5f770fe476e38d",
        "p1_perturbation_payments_aggregate": "5510b4be39f8c36eac8eb1a7f8ef314a7d9abd0a3004602ae8b4ea52c33a007f",
        "p1_perturbation_payments_trace": "b910817909c48bfaacba5533cf5e245ea4f1a6403446b89f6cfed3763fdcc8fd",
        "p2_linucb_alignment_aggregate": "6f247b8ea4477c31172672926cd9d6ff00325b018e8255b732861c0e6c933696",
        "p2_linucb_alignment_trace": "37654e57908c62ae9f3af27910ba884d8e61ea76e622ee54599770f6e55ad293",
        "p3_chained_unrestricted_aggregate": "37c7693d9266ab4aa4e24325f5060c1c3ce38bf0984ed223f28466ea18f6f91a",
        "p3_chained_unrestricted_trace": "f186618238cf5778a630f42dbded8a603e19908768d147ac3b9fc4af652aff57",
        "p4_chained_restricted_aggregate": "23256fd147ea586f3b05f44b1a63441c4f1f062239b034bdb2f56a157cdd40ab",
        "p4_chained_restricted_trace": "3ec4a5cff6ca7c970662e63e523de88e39f3f8c4473c966c9413b6768446f6da",
    },
    ("fig2-like", 1, 300): {
        "p0_no_payments_aggregate": "8528c75220bab09c04fa6b5b7968abd6a1aa214da2e3379032a406e675ab5b2c",
        "p1_perturbation_payments_aggregate": "13f373f20f10266ffc7fc533e6c2e2d225520e6118e9a5d52ce66fe324c8b6ed",
        "p2_linucb_alignment_aggregate": "bbc4ec4e7aec6005cdd50738b0e1c9ff568c5c9274ebedbed1baff71c09a3c58",
        "p3_chained_unrestricted_aggregate": "169b4083e15482feaf74c75f40043f5cb01dcc74a4ebc5d332c87eacd75b45f3",
        "p4_chained_restricted_aggregate": "abd405ceea5061aeb51eb03d5d6dbdf97de7939c36e1b50b80f9d4070b770a50",
    },
    # One run: every stderr_* cell is 0.0, one run of equal cells per column.
    ("fig1", 1, 200): {
        "p0_no_payments_aggregate": "d8fd28c02c571e7218cd3093b30906eddc888fb7bacb3b5bea92f126dea15ec6",
        "p0_no_payments_trace": "c29b114bba8ac325d2364b15011e1e8c753f18f91e52b3ff381e0e056cbd7ddd",
        "p1_perturbation_payments_aggregate": "7646ccd13e2068bfed32a9ca761896466405b00101946f023d0a73859ecee7d6",
        "p1_perturbation_payments_trace": "64f057b1676107651f0b66cadc78739149509bd94663b8ff3cec5c161410a88b",
        "p2_linucb_alignment_aggregate": "2a89be94a5f63ca814c062876e5abae67d1a13f7d0f1076df4a6b2657fe99713",
        "p2_linucb_alignment_trace": "75b1577db581055bc307d65e44a6c70e22517497688441618e84770307ec75c0",
        "p3_chained_unrestricted_aggregate": "5b91b674b1be8cdef2335ae2dc4a832da0186c054b938a072db0ce6a877cdcdc",
        "p3_chained_unrestricted_trace": "6de5fe8758cffa764932f92f480a9a0e78ccd09b985256dc7c907d4b6808cac6",
        "p4_chained_restricted_aggregate": "e13b3246647c2c45b08902c3bef89101cedd076d886f5dc0344af3a8e75fcdad",
        "p4_chained_restricted_trace": "16eee523c25e876a1d33802a90fe74f666632e20270e6dedd6b6d70e066a4110",
    },
}


@pytest.mark.parametrize("preset,n_runs,horizon", list(DIGESTS))
def test_shortened_preset_csvs_keep_their_bytes(tmp_path, preset, n_runs, horizon):
    path = harness.preset_config_path(preset)
    data = json.loads(path.read_text())
    data["n_runs"] = n_runs
    data["instance"]["horizon"] = horizon
    seed = data["instance"]["master_seed"]  # PAYBAND_SEED must not override it
    config, diags = harness.load_config_data(data, path.parent, master_seed_override=seed)
    assert config is not None, diags
    harness.run_experiment(config, out_dir=tmp_path)
    got = {p.stem: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in sorted(tmp_path.glob("*.csv"))}
    assert got == DIGESTS[(preset, n_runs, horizon)]


# The integer-budget run below holds both ``5`` and ``5.0`` budget cells (32
# exploration rounds at the integer budget, then two rounds whose offer is the
# anchor's own 0.0 gap), which print differently though they compare equal.
BUDGET_DIGESTS = {
    "p0_chained_restricted_aggregate": "ba89c8040cf17a15e7f4b45bf110240aaf875fc88de3debb79a38a338631149e",
    "p0_chained_restricted_trace": "858a2c0676a84af526ed5792d745d2114c82b94f8146a9a3fc9c4bd2f5723ffb",
}


def test_integer_budget_trace_keeps_its_bytes(tmp_path):
    path = harness.preset_config_path("fig1")
    data = json.loads(path.read_text())
    data["n_runs"] = 1
    data["instance"]["horizon"] = 200
    data["policies"] = [{"kind": "chained_restricted", "ridge_lambda": 1.0,
                         "delta": 0.1, "budget": 5}]
    config, diags = harness.load_config_data(data, path.parent, master_seed_override=3)
    assert config is not None, diags
    harness.run_experiment(config, out_dir=tmp_path)
    trace = (tmp_path / "p0_chained_restricted_trace.csv").read_text()
    budgets = {line.rsplit(",", 1)[1] for line in trace.splitlines()[1:]}
    assert {"5", "5.0"} <= budgets
    got = {p.stem: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in sorted(tmp_path.glob("*.csv"))}
    assert got == BUDGET_DIGESTS
