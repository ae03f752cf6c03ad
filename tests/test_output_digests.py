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
