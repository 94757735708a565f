"""Byte-level goldens: one small run per decode path.

Each entry pins the sha256 of the ``trace.csv`` and ``report.json`` a run
writes, and of its continuations, so any change to what a decode path
emits, counts or serializes shows up here. To re-pin after a deliberate
change, run ``PYTHONPATH=src python tests/test_goldens.py`` and paste its
output over ``GOLDENS``.
"""

import hashlib
import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest

from trispec.harness import (
    ExperimentConfig,
    build_family,
    family_signature,
    read_trace_csv,
    run_experiment,
    write_report_json,
    write_trace_csv,
)

SMALL = dict(num_prompts=3, max_new_tokens=16, seed=5)

CONFIGS = {
    "target_only-T0": dict(method="target_only"),
    "target_only-T1": dict(method="target_only", temperature=1.0),
    "sd-target-chain-T1": dict(method="sd", temperature=1.0),
    "sd-proxy-chain-T1": dict(method="sd", sd_verifier="proxy", temperature=1.0),
    "sd-target-tree": dict(method="sd", use_tree=True),
    "sd-target-byte-T1": dict(method="sd", tokenizer="byte", temperature=1.0),
    "relax-chow-T1": dict(method="relax", relax_policy="chow", temperature=1.0),
    "relax-token_specific-T0": dict(method="relax", relax_policy="token_specific"),
    "relax-topk-T1": dict(method="relax", relax_policy="topk", temperature=1.0),
    "trispec-chain-T0": dict(method="trispec"),
    "trispec-chain-T1": dict(method="trispec", temperature=1.0),
    "trispec-chain-T1-raw_bonus": dict(method="trispec", temperature=1.0, raw_bonus=True, lam=0.25),
    "trispec-perturbed-T1": dict(method="trispec", family="perturbed", temperature=1.0),
    "trispec-tree": dict(method="trispec", use_tree=True),
    "trispec-top1_prob": dict(method="trispec", signal="top1_prob", lam=0.6),
}

GOLDENS = {
    "relax-chow-T1": {
        "trace.csv": "21517f64ff2b2105e0468a7c24f0cf713d867579bc11f9e9dc18463d9de99037",
        "report.json": "f8393426c376fff2932b09623efbdc3f7fd045169392d55edece0ea39b633a88",
        "continuations": "28a03203bf58f219d84c8b2cecee22b65933070f87fe6f5faa2c9842420c2275",
    },
    "relax-token_specific-T0": {
        "trace.csv": "fcd7ba62f9a6fe316ab602fb7a445af2fa641e4ac4e837db92adfb43284f4994",
        "report.json": "01461a6b84d804694017e7a10a0367f31f93d3625fa3e95ec9430768b3185223",
        "continuations": "bc5382bb6ed4b553c7de8d5c64bd5f7aa0c84170272dba68482803d989050eb8",
    },
    "relax-topk-T1": {
        "trace.csv": "cbe1186a5afd51b2c66ec353c2a4fd07a0a638aed0b5f91fb87f701cbfee86f0",
        "report.json": "62facfa2ea992f426e052d77d3bea06c935a36d1ae26252e37d1cfbba39f19e1",
        "continuations": "63da31cb92e7df822e9fe281b51b9ba76c96a8d7a9e0271d63589f815724e43a",
    },
    "sd-proxy-chain-T1": {
        "trace.csv": "6d46cb25ec6a169e61764d4cc37b9a44cb5b95e9181de4ccceca9807b7f14a5e",
        "report.json": "cc9f6d4c7070bbc206adc652a76891876a91a9a3cb6441520f507d5e6848f42b",
        "continuations": "5a437cdb02a6c880c638cc3579a74ebf5c2b91bf61f9abb0469535996fddce1f",
    },
    "sd-target-byte-T1": {
        "trace.csv": "6e3aa30cea410ca4722b182203e272fe3398f4540f27ea6a4068e9a335b42325",
        "report.json": "f067f21f803060ab2f27e433f3a39134800b18958ca23a5ab36540f3a4e0350e",
        "continuations": "e20351910c0d6d1a4c7b85919e176d85c0b7820ae1f02e839a841195cf0e01fc",
    },
    "sd-target-chain-T1": {
        "trace.csv": "967d8f3fca986eeef8dc17e1972f156449cfcd3d33c0f8f944e7c724d9316db2",
        "report.json": "16ccfb20f4af1b0beec041dc3a63d316017ad6f8a5c8d869df082acd5a649fd3",
        "continuations": "51067d04d60a39a4dcc4a97e7d1608d695f1ff77435923a27a81deffcc789683",
    },
    "sd-target-tree": {
        "trace.csv": "52de0adea6fb6ba62e39820bb6d860cceaf97b24867a8115482b0324ef732dfb",
        "report.json": "3054d4568eb7f2c02d40a06689596f18951e85b3badab64a618f652bb9411fd3",
        "continuations": "9a8a0ceb69693c438cc367406fae450ca7f9c25c6fc1709a75463e0f10b126ad",
    },
    "target_only-T0": {
        "trace.csv": "4f2f06857bd31ff8afdd703d3b0a5da5ceebe49d38178a75774b0a8370a0e3b5",
        "report.json": "c28784b417e33c850c89c4d920c049f39fd6dfe01e25cfa272002571aeb03173",
        "continuations": "3b18ea6b2733b7f6563f61d38a1210c4774154c02baa1120ddeed451308842ab",
    },
    "target_only-T1": {
        "trace.csv": "cbbdb7404c3133f56462cd4182399bf96e016a8c09eab457c7741fe65098e8ec",
        "report.json": "16c9efcdf63f2b70b735b35f8f59e8494bdc67924ee34ecb5e99b9a52d5b2c88",
        "continuations": "13fb3675a7221147b3a5f43eb138e6b7fc3f0614d3b03a7dc2058c4bdc163acb",
    },
    "trispec-chain-T0": {
        "trace.csv": "34ae270d32c6848535c4748f27727dcca13f55a8a7d58af6becf1dbafe11aebd",
        "report.json": "76efeb0817672dcd634a18e09ef53209265d8cc8ea0bcabba912afef5dbf12d9",
        "continuations": "985541bee3318388da0f88730f3f70a99e0402c75cc8c31d97504f7041eedb59",
    },
    "trispec-chain-T1": {
        "trace.csv": "c8b5d848ad4037b8d3e57de9a1035903d083bd3f5e7afbb6ff8bca8728c948c1",
        "report.json": "f5b6727592174252d70cfbee86a219d616f711d722ebb55c9dc8bb921b655c03",
        "continuations": "91f6570795babb1dacca699250e44968416e713b33a02f6d0dd818d2e52bc6f4",
    },
    "trispec-chain-T1-raw_bonus": {
        "trace.csv": "f3080914a2a852310cd33dba6c12f6ddec3dd712e01ad36498b05f825e185d3c",
        "report.json": "721fe7757df80254ef2c1954c557295e2860d048f0b36ca892af65a354e12353",
        "continuations": "78662bf9eb82cb64ffbd02af1c4c61fdfa251f317f2e2c2fd8adb09b6761ab91",
    },
    "trispec-perturbed-T1": {
        "trace.csv": "87ac04a035fa14babe7488fb66606620b74ffb35d35f785a921a5bf4ededaf70",
        "report.json": "23bb417b765e7ccb282730e6a1e5ba6d96164c1932ef6b8295b88760aeefce61",
        "continuations": "8eb1503f8add55001ed3f5613ef15a3dbaa35801a53f6f601637988e9dbfc5d9",
    },
    "trispec-top1_prob": {
        "trace.csv": "7ef2dba6843e7b26163c57eec29fb37cf4843f3b77ad96fe2ba483677ca6333e",
        "report.json": "657daff17cf88eb7ac880852b8c08d709a753bbb3f4e8a76b41a1dd07fafe304",
        "continuations": "985541bee3318388da0f88730f3f70a99e0402c75cc8c31d97504f7041eedb59",
    },
    "trispec-tree": {
        "trace.csv": "46aba178b935a240863cf74de3b681e1dc07862aedbd983cc64d2ff93ff6d346",
        "report.json": "2f26d953422af7c66c485d306e9dcab71cf00fade94cbddd20443b943ac5bcb1",
        "continuations": "42079422b9eb26d147bccbc20da436db396a25bb1f462907e5d6f1a379529c7f",
    },
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(name: str, families: dict, outdir: Path) -> dict[str, str]:
    """sha256 of the trace, the report and the continuations of one run.

    ``families`` holds the trained families by ``family_signature``; one
    that is missing is built and kept there.
    """
    cfg = replace(ExperimentConfig(), **SMALL, **CONFIGS[name])
    sig = family_signature(cfg)
    if sig not in families:
        families[sig] = build_family(cfg)
    result = run_experiment(cfg, families[sig])
    write_report_json(result, outdir / "report.json")
    write_trace_csv(result.records, outdir / "trace.csv")
    assert read_trace_csv(outdir / "trace.csv") == result.records  # every row obeys the rules
    continuations = json.dumps([[list(p), list(t)] for p, t in result.continuations])
    return {
        "trace.csv": _sha((outdir / "trace.csv").read_bytes()),
        "report.json": _sha((outdir / "report.json").read_bytes()),
        "continuations": _sha(continuations.encode()),
    }


@pytest.fixture(scope="module")
def families(ref_family, perturbed_family):
    return {
        family_signature(ExperimentConfig()): ref_family,
        family_signature(ExperimentConfig(family="perturbed")): perturbed_family,
    }


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_decode_path_output_is_pinned(name, families, tmp_path):
    assert digests(name, families, tmp_path) == GOLDENS[name]


if __name__ == "__main__":
    families = {}
    with tempfile.TemporaryDirectory() as tmp:
        out = {name: digests(name, families, Path(tmp)) for name in sorted(CONFIGS)}
    json.dump(out, sys.stdout, indent=4, sort_keys=True)
    print()
