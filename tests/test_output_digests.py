"""Byte-identity guard: shortened presets must keep their recorded CSV bytes.

The digests were recorded from the engine these presets ran on before the
stacked inverses, the buffered Gram matrix, the list-based agent choice and
the csv-free writers. A change meant to move no float must leave them all
unchanged. The engine oracles in ``test_engine.py`` run on the package's
own estimator and ``agent_choose``, so they cannot see such a move; these
digests can. A change that moves floats on purpose records new digests here
and says why.

The last bits also depend on the BLAS kernels numpy runs. One OpenBLAS
build picks its kernels by CPU, and its SkylakeX, Haswell and Sandybridge
kernels round the Cholesky factor, the triangular solves and small products
differently. So the byte digests are kept per OpenBLAS core, as a child
``python -c "import numpy"`` reports it with ``OPENBLAS_VERBOSE=2``; the
Haswell and Sandybridge tables were recorded with ``OPENBLAS_CORETYPE`` set
on an AVX-512 host. On any other core the byte digests skip. The digests of
the trace CSVs' ``arm`` columns hold on every core, since the kernels have
only been seen to move last bits, never a choice.
"""

import functools
import hashlib
import json
import os
import re
import subprocess
import sys

import pytest

from payband import harness, policies
from payband.policies import build_chain

SHORTENED = [("fig1", 2, 200), ("fig2-like", 1, 300), ("fig1", 1, 200)]

# OpenBLAS core -> (preset, runs, horizon) -> sha256 of each CSV, by file stem.
DIGESTS = {
    "SkylakeX": {
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
    },
    "Haswell": {
        ("fig1", 2, 200): {
            "p0_no_payments_aggregate": "e9e271c020b4033d819f87e313f399e4482363b333a6b72a91c4c029f2531d1a",
            "p0_no_payments_trace": "2ee9e88494086db4cd77415fc115f12a89c835731b3efcf822ba6fb3795d9775",
            "p1_perturbation_payments_aggregate": "cd7fc2c01b0262894b2003825f68413bfaf7fc19b6ed580f8cc142772d69a018",
            "p1_perturbation_payments_trace": "05bbc018461e7c2e4da184c6c113930e8d1807fabb16dc9c7cf302e8d631a094",
            "p2_linucb_alignment_aggregate": "298377e40fe4658a7ca2821f036be92a516f2f3abc9ab185afc4387df0d2c74f",
            "p2_linucb_alignment_trace": "302e7e8276a1b65f53304fb7bb723b4a984e4dc86658ff776e52e8fe25546772",
            "p3_chained_unrestricted_aggregate": "7c53dddbda83e9176dcda728ed983e9ddbf67335174bc3de3ea318d5c6da6d3d",
            "p3_chained_unrestricted_trace": "0d3d84c44e728a9ff163ce61af74f2833f63ff5e94bd463bde482f687a2009af",
            "p4_chained_restricted_aggregate": "560ee878342b8b953e7d15b6f0fc58195042cbd7ac0bcf07394ec748cb539e93",
            "p4_chained_restricted_trace": "f48515a4870ac08fdf13a0b99960e5594eaddb20c190b6ee952d470494796483",
        },
        ("fig2-like", 1, 300): {
            "p0_no_payments_aggregate": "8528c75220bab09c04fa6b5b7968abd6a1aa214da2e3379032a406e675ab5b2c",
            "p1_perturbation_payments_aggregate": "62e515185d75f5a67ab3f64ffc88eb810550fe49a1d4354aa6eaa477eeeab3fd",
            "p2_linucb_alignment_aggregate": "9450da6a722657851b9657af8ae3b6b48f969950a8b619b5af8e01a3f76bf6b3",
            "p3_chained_unrestricted_aggregate": "606212fbb974c7ffb34d3cbd3a9b11db86de3e38982cba5b78927cab0e12a1a3",
            "p4_chained_restricted_aggregate": "e29d8d4f324fe109952de1ef9f8ca685c1f069f04f9de2c9bdc9cf71dd71a85e",
        },
        ("fig1", 1, 200): {
            "p0_no_payments_aggregate": "d8fd28c02c571e7218cd3093b30906eddc888fb7bacb3b5bea92f126dea15ec6",
            "p0_no_payments_trace": "c29b114bba8ac325d2364b15011e1e8c753f18f91e52b3ff381e0e056cbd7ddd",
            "p1_perturbation_payments_aggregate": "6f8e5b5f946c614e14bb62dbb33714175b6b3bb496cf9ea2150545f5641ec38a",
            "p1_perturbation_payments_trace": "6df6f34a5ec44464d411684024f859894a7c8a627f4ed0ea321b3e359c382068",
            "p2_linucb_alignment_aggregate": "87873e4ebf9d507e0e2a5d02bed02203deb89311a6465e31d44c80739865037a",
            "p2_linucb_alignment_trace": "1da58bd5904dd143e1cf306721090b00debb7e5d4bf938c2266c431b188dc35c",
            "p3_chained_unrestricted_aggregate": "94119b55a949302ba7c68806673c01a700d0726effb91b33023f4e7128f36a0c",
            "p3_chained_unrestricted_trace": "878e78047a38f583cc1c0c59b23a064f183f7509a3dfebee080cedc50c540c58",
            "p4_chained_restricted_aggregate": "7c258702ce1651b884ff9bbece2e3a5e081c2d54d82be01a5f5d47a59963c787",
            "p4_chained_restricted_trace": "555ee513c11745ae9da7e66105fe8476da1dd0a2fe447750113986f91bc5fc2c",
        },
    },
    "Sandybridge": {
        ("fig1", 2, 200): {
            "p0_no_payments_aggregate": "a5a87d09491fb23f882c9b06472c1610cc29ec2e732d646d61dfd906d6c43844",
            "p0_no_payments_trace": "926e5750c9fcf97a511bdd4038f31ca6d472e68d3b4faec716d1f9e040551281",
            "p1_perturbation_payments_aggregate": "bd6de57416df6bfcab6968950f6a9a75ccd4d49ded441b1387be80addd4cdd96",
            "p1_perturbation_payments_trace": "a3e230ce9d0e505987fbb5acd7ac348d143fecba6d178f91c3c80e081a37eae1",
            "p2_linucb_alignment_aggregate": "beae3ed3927dbe976c61c6c2f463d78eebd3260cfabc5214d84c20c519234442",
            "p2_linucb_alignment_trace": "c244b687628014b58fb3c2935c831cea8764c8bb6ba2c01b9dcab8f67ddb6e65",
            "p3_chained_unrestricted_aggregate": "60ef19198f61ee9b3051672d57464e5e7990d216b87f827dbfd5310eb7d1560e",
            "p3_chained_unrestricted_trace": "53cce7cd2ddea4d4c01880e71caeb316c6226caee6b5caebf27d2eaf0cd43826",
            "p4_chained_restricted_aggregate": "39468765f8cd8c37ad3fc3fa19bca1557ecd28096f8193066439a6bf05790a6c",
            "p4_chained_restricted_trace": "23576ae00cd63395a83fbbbb03927dbf538b0b7a071109e2a1d9f26da3455158",
        },
        ("fig2-like", 1, 300): {
            "p0_no_payments_aggregate": "8528c75220bab09c04fa6b5b7968abd6a1aa214da2e3379032a406e675ab5b2c",
            "p1_perturbation_payments_aggregate": "46b1f42d1c7ccb4bcf71268a2075c04238eae483e4bc99ef80506e431e4bb1e2",
            "p2_linucb_alignment_aggregate": "bfbb68529f950d91c61a1c3bd17df7705f573f2f74a945b0f1239688969dcab3",
            "p3_chained_unrestricted_aggregate": "e48b8d9c479b079b8df2aaa349e00cb5cd0acc5cbc591b0cab7bfe672dc54a4e",
            "p4_chained_restricted_aggregate": "07dd713c45ad211bac1e5fb573067daebe5557f39051256b8c00157ceaea3894",
        },
        ("fig1", 1, 200): {
            "p0_no_payments_aggregate": "b9907e7ecc60888e33851e67bd073ca640c6fd2bd36163facabf6a339ea3488b",
            "p0_no_payments_trace": "b89a0d9814aae99a100e42a5ef78c8058b92afe7f7e6c1e38a145527abc56e5f",
            "p1_perturbation_payments_aggregate": "9101a0d90965f5b3426cebe09f491a89893a4f90f402074a5b30dfb68a863b2e",
            "p1_perturbation_payments_trace": "30ecfbff186a3b352d4e0a0acf81c8ca8da2a85b1b82398560800fea31d1fdeb",
            "p2_linucb_alignment_aggregate": "8874ef0eace5dd4e33600ab4684431bc68a89632f1abb3b316e53ecf3f4b8c3c",
            "p2_linucb_alignment_trace": "12e231214d913abeb29779227a3cd28cf5a84fe7a77902ff2e0d04b430aec0a1",
            "p3_chained_unrestricted_aggregate": "0551e44df0650949c3e185a2932b9eff8507c42b84631210ac858d8ea469435b",
            "p3_chained_unrestricted_trace": "a7584b55c065bcffc1cebc0d887494d9304dff77631583e191c0e542815c8835",
            "p4_chained_restricted_aggregate": "9041edf456ca00a51ea7a48a95c85208415c85a528875ab5f06e654ba43d835c",
            "p4_chained_restricted_trace": "4d4812dd90ffd6f7f12f0884b5db18267abc1b27b5e323209617fec4d1f087ef",
        },
    },
}

# (preset, runs, horizon) -> sha256 of each trace CSV's arm column, full trace on.
ARM_DIGESTS = {
    ("fig1", 2, 200): {
        "p0_no_payments_trace": "d043f0f3822237a6cb53e95279f70de9953808f05550e25bfc1280fc3b35c287",
        "p1_perturbation_payments_trace": "40ba3e660aa83a05e8ab64588638e953a5c24c15aeaf46c02ca403bda6025c2d",
        "p2_linucb_alignment_trace": "fd82e9d05a3adc20e7f3e9e2ad0db84185d5ff3c4546520079684f95924cb8bf",
        "p3_chained_unrestricted_trace": "46ef58f099619a16ef858733f74b788c717f9a1cbded3f4969dc67750b8adc0e",
        "p4_chained_restricted_trace": "e02e11ac445f22a3e88e9dd4693c09ede83eabdf4af62bda7caa76aa143894a2",
    },
    ("fig2-like", 1, 300): {
        "p0_no_payments_trace": "87350f5124058c9a00a9cc64cf3f4cf6cabe14e23b7da7a958563cde43b47588",
        "p1_perturbation_payments_trace": "a6d783db3be382a42f0695fd571dfcd0758f4707b49cf9a85d24d452b37ff95b",
        "p2_linucb_alignment_trace": "8c1c69dc6d4f9c865130952de5c067082ee9413c2e9e664a8800b17646c98d02",
        "p3_chained_unrestricted_trace": "e60db4f0255d3b1983552f4bb824a6ea3a560a4aba13cbd2fc29999a08677af5",
        "p4_chained_restricted_trace": "840b42ab09b862dc8959e2a5c2d3fb76d361c081b67aab65b3b5f63ab2bdbded",
    },
    ("fig1", 1, 200): {
        "p0_no_payments_trace": "f986d45f2cb8d03d282f9536018b3ca0af724c6e97648959d97fc09711bfc3f8",
        "p1_perturbation_payments_trace": "4a8e61bd743d1f145a6a8b85ea9ab0b64ada8d7af9650d0735302dd6c2aa38ed",
        "p2_linucb_alignment_trace": "4ee3d401cfefea9f76a90aa392763d630515b72c2761271690c5a141f4ce13da",
        "p3_chained_unrestricted_trace": "d3b1d500de3d63031f1997e733ac3125933c715e12f6c8b534482ee8efc185c4",
        "p4_chained_restricted_trace": "3f4d0d5f06507dc88bf0d98c0db5fc442508e152ed2e5b04421d6e9601d773a6",
    },
}

# The integer-budget run below starts at the JSON integer ``5`` (32
# exploration rounds at it, then two rounds whose offer is the anchor's own
# 0.0 gap); a budget is stored as a float, so every cell prints as one.
BUDGET_DIGESTS = {
    "SkylakeX": {
        "p0_chained_restricted_aggregate": "ba89c8040cf17a15e7f4b45bf110240aaf875fc88de3debb79a38a338631149e",
        "p0_chained_restricted_trace": "ed8c488b76689936e5bdd04e244fe3d6505c1c2a3dd5848de53bd49b632c49b0",
    },
    "Haswell": {
        "p0_chained_restricted_aggregate": "e82b5cb13b413b1c07c7975773e21ed00a48efba16304ce063ef95f781e6a77c",
        "p0_chained_restricted_trace": "838ac7a7d6ee956de33a729f463aad5c5377f296a0eb2aaacfcec8eeb5b5354a",
    },
    "Sandybridge": {
        "p0_chained_restricted_aggregate": "44c4feecc26707e4e384b99efdafb710eee7182386c74210c99fdf6916059a26",
        "p0_chained_restricted_trace": "51fd54304269edf17292c7ceb61ca58ab4a46d97f3d6a31efb385b99283b68cf",
    },
}


# fig1's two chained strategies at init_explore_m 0 and then 1, 2 runs of 800
# rounds. At m = 0 the widths' scale is sqrt(ridge_lambda), intervals part,
# and many rounds sort and sweep them and chain some arms only; every shipped
# preset chains all arms on every round, so only this config's bytes see the
# sweep and the picks drawn from the stream. At m = 1 the width floor holds
# while some of the 8 arms were never absorbed, so these bytes also pin when
# such an arm is first factored: at its first absorb, not on a floor round.
SWEEP_SHAPE = ("fig1", 2, 800)

SWEEP_DIGESTS = {
    "SkylakeX": {
        "p0_chained_unrestricted_aggregate": "40964b2ab9015d7e1b62eebb2c200de03fca9d4ee0195ef8356cb983760c172d",
        "p0_chained_unrestricted_trace": "61785313d3635cfcf45064f71deb2a2aabf3cd81abb542c1e77560da9e5e8243",
        "p1_chained_restricted_aggregate": "5fc96967a29dd324da23d3d58b452f57fd2153954d8a47a4530d9961a5d66406",
        "p1_chained_restricted_trace": "fb26dc85d2ada1588bc59efc6bf06fb2fafabe504e044c388f38cea51b577f7c",
        "p2_chained_unrestricted_aggregate": "a42202dde5642992b2b6f9349c4eb2b13ce0d30c88c7070a09b20b454755285a",
        "p2_chained_unrestricted_trace": "16bca565a113f699daa6ba3e056e0db67253e2abc1c8560ca7a3755249982094",
        "p3_chained_restricted_aggregate": "73938bed9a5a89ef65bd57eb489370d61aef9a39271ebd9bd472b66f0a5d0c74",
        "p3_chained_restricted_trace": "b07c536aeb94e109976ee95f30205da030eddb06fc28f204c0bdf1c8fc77277c",
    },
    "Haswell": {
        "p0_chained_unrestricted_aggregate": "47a0a95d4ed74b7ee68ec20d2cc8fd2120acd46c2a9978ba914f525c91e5c09f",
        "p0_chained_unrestricted_trace": "88e57255b3a2b85a57efc4a1f5a74cc8f3fe3bd3005f161ad0a860216efed47c",
        "p1_chained_restricted_aggregate": "89b1195956923ffbc371224ee6513453780e672828354fcef535bde382272373",
        "p1_chained_restricted_trace": "8bc6b13c04c44f7cd942bc74bdab4554fc6472eb0469081919d7d83eeb39987f",
        "p2_chained_unrestricted_aggregate": "14f11d16560e6f33f8f901580b715906ca30cd78c7655b60a2679fa7d937a9fd",
        "p2_chained_unrestricted_trace": "08723185efe6aacf86010a5d92624d3b3ae1b12b0a72786853d0730a00578b6a",
        "p3_chained_restricted_aggregate": "2278bef8e0df0adb99ba7cebf60a177938807ba4f31d8f5da87cebd561b7a0ee",
        "p3_chained_restricted_trace": "a3e1b6796848cedb7fc1520509e4805a793bbfab21f0602caf8b52af176de4ed",
    },
    "Sandybridge": {
        "p0_chained_unrestricted_aggregate": "a81421d4f5b7e02258ab09445d2add8bc20eae2f12c077ec3c51b594631117e3",
        "p0_chained_unrestricted_trace": "01d626d32ac6ddfb355d302fe0c8c6cd14d8056fac437f0c0cd15d4c41e92684",
        "p1_chained_restricted_aggregate": "90f847056c7c4aba2685e267cee8e5b5779fb12bec112185861aa382c2791319",
        "p1_chained_restricted_trace": "480dfda98edd608d629528ebea802c606b14ecb08ac8983210f24b513064b39a",
        "p2_chained_unrestricted_aggregate": "9c85878335d208a9d3d5d27cae39c19beab20ad9dba6768e8c8f6fdccf3f899b",
        "p2_chained_unrestricted_trace": "a95f6067f5644c88f905b8206aeafce7ac64abec36db92d889ddf2bd421bfba3",
        "p3_chained_restricted_aggregate": "c2b77ea0552bd219f682b3b1868f657e5edcd7e97e7d05536444ac1a4d4cd617",
        "p3_chained_restricted_trace": "1c4799764de9dba0077612d5e2f4f95f89550b7c66864a9d2a4cee65e1319cad",
    },
}

SWEEP_ARM_DIGESTS = {
    "p0_chained_unrestricted_trace": "abe13106be42a5405cfb515968159fe98b1e040b2a8ff3c9f8e3e5a033ed574b",
    "p1_chained_restricted_trace": "215ec8440af1e7dc57750175b54e488d80313c387f78c8e5abe56b24f837c559",
    "p2_chained_unrestricted_trace": "4dee1fbfc56bf0555be05c91278351a2fe60f75d78a5930594a194e9801c7d29",
    "p3_chained_restricted_trace": "f6e790975ee85371845edf0395addbc2e0831f1c725015aa6f4572c942f3d820",
}

@functools.cache
def openblas_core():
    """The OpenBLAS core type numpy's kernels run on, or None if none is reported."""
    proc = subprocess.run([sys.executable, "-c", "import numpy"], capture_output=True,
                          text=True, env={**os.environ, "OPENBLAS_VERBOSE": "2"}, timeout=120)
    found = re.search(r"^Core: (\S+)", proc.stderr + proc.stdout, re.M)
    return found.group(1) if found else None


def for_this_core(table):
    """The entry of ``table`` for the running OpenBLAS core; skips on a core without one."""
    core = openblas_core()
    if core not in table:
        pytest.skip(f"no byte digests recorded for the OpenBLAS core {core}")
    return table[core]


def run_shortened(out, preset, n_runs, horizon, master_seed=None, **top):
    """Run ``preset`` cut to ``n_runs`` runs of ``horizon`` rounds, with the
    top-level fields ``top`` replaced, into ``out``; returns its CSVs by stem."""
    path = harness.preset_config_path(preset)
    data = json.loads(path.read_text())
    data.update(n_runs=n_runs, **top)
    data["instance"]["horizon"] = horizon
    if master_seed is not None:
        data["instance"]["master_seed"] = master_seed
    config, diags = harness.load_config_data(data, path.parent)
    assert config is not None, diags
    harness.run_experiment(config, out_dir=out)
    return {p.stem: p for p in sorted(out.glob("*.csv"))}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def arm_digests(csvs):
    """sha256 of the ``arm`` column of each trace CSV, by file stem."""
    got = {}
    for stem, p in csvs.items():
        if stem.endswith("_trace"):
            header, *rows = p.read_text().splitlines()
            col = header.split(",").index("arm")
            got[stem] = sha256("\n".join(row.split(",")[col] for row in rows).encode())
    return got


@pytest.fixture(autouse=True)
def config_seeds_only(monkeypatch):
    monkeypatch.delenv(harness.SEED_ENV_VAR, raising=False)


@pytest.mark.parametrize("preset,n_runs,horizon", SHORTENED)
def test_shortened_preset_csvs_keep_their_bytes(tmp_path, preset, n_runs, horizon):
    want = for_this_core(DIGESTS)[(preset, n_runs, horizon)]
    csvs = run_shortened(tmp_path, preset, n_runs, horizon)
    assert {stem: sha256(p.read_bytes()) for stem, p in csvs.items()} == want


@pytest.mark.parametrize("preset,n_runs,horizon", SHORTENED)
def test_shortened_preset_arm_columns_keep_their_digests(tmp_path, preset, n_runs, horizon):
    csvs = run_shortened(tmp_path, preset, n_runs, horizon, emit_full_trace=True)
    assert arm_digests(csvs) == ARM_DIGESTS[(preset, n_runs, horizon)]


def test_chain_sweep_csvs_keep_their_digests(tmp_path, monkeypatch):
    preset, n_runs, horizon = SWEEP_SHAPE
    data = json.loads(harness.preset_config_path(preset).read_text())
    chained = [dict(p, init_explore_m=m) for m in (0, 1) for p in data["policies"]
               if p["kind"] in ("chained_unrestricted", "chained_restricted")]
    partial, unfactored = [], []
    floor = policies.ChainedPolicy.chain_is_whole

    def counted(e, w, anchor):
        chain = build_chain(e, w, anchor)
        partial.append(len(chain) < len(e))
        return chain

    def counted_floor(policy, t):
        whole = floor(policy, t)
        unfactored.append(whole and False in policy.bank.current)
        return whole

    monkeypatch.setattr(policies, "build_chain", counted)
    monkeypatch.setattr(policies.ChainedPolicy, "chain_is_whole", counted_floor)
    csvs = run_shortened(tmp_path, preset, n_runs, horizon, policies=chained,
                         emit_full_trace=True)
    assert sum(partial) > 100  # the sweep ends in a chain of some arms only
    assert sum(unfactored) > 10  # floor rounds with an arm never absorbed
    assert arm_digests(csvs) == SWEEP_ARM_DIGESTS
    want = for_this_core(SWEEP_DIGESTS)
    assert {stem: sha256(p.read_bytes()) for stem, p in csvs.items()} == want


def test_integer_budget_trace_prints_as_its_float(tmp_path):
    policy = {"kind": "chained_restricted", "ridge_lambda": 1.0, "delta": 0.1}
    integer, real = (run_shortened(tmp_path / name, "fig1", 1, 200, master_seed=3,
                                   policies=[dict(policy, budget=budget)])
                     for name, budget in (("integer", 5), ("float", 5.0)))
    trace = integer["p0_chained_restricted_trace"].read_text()
    budgets = [line.rsplit(",", 1)[1] for line in trace.splitlines()[1:]]
    assert len(budgets) == 200 and budgets[0] == "5.0"
    assert all(cell == repr(float(cell)) for cell in budgets)
    assert {stem: p.read_bytes() for stem, p in integer.items()} == \
        {stem: p.read_bytes() for stem, p in real.items()}
    want = for_this_core(BUDGET_DIGESTS)
    assert {stem: sha256(p.read_bytes()) for stem, p in integer.items()} == want
