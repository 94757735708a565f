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
    "relax-chow-T1": dict(method="relax", relax_policy="chow", temperature=1.0),
    "trispec-chain-T0": dict(method="trispec"),
    "trispec-chain-T1": dict(method="trispec", temperature=1.0),
    "trispec-tree": dict(method="trispec", use_tree=True),
    "trispec-top1_prob": dict(method="trispec", signal="top1_prob", lam=0.6),
}

GOLDENS = {
    "relax-chow-T1": {
        "trace.csv": "21517f64ff2b2105e0468a7c24f0cf713d867579bc11f9e9dc18463d9de99037",
        "report.json": "f8918da1b2aa006bbad325104d4a9254e2b51e5faedf7d0228f28370ae6b1eee",
        "continuations": "28a03203bf58f219d84c8b2cecee22b65933070f87fe6f5faa2c9842420c2275",
    },
    "sd-proxy-chain-T1": {
        "trace.csv": "6d46cb25ec6a169e61764d4cc37b9a44cb5b95e9181de4ccceca9807b7f14a5e",
        "report.json": "ca142af5ccb2e034bd0e999a5698f3bc4aedd7b40a89139dc23d618a8d65931e",
        "continuations": "5a437cdb02a6c880c638cc3579a74ebf5c2b91bf61f9abb0469535996fddce1f",
    },
    "sd-target-chain-T1": {
        "trace.csv": "967d8f3fca986eeef8dc17e1972f156449cfcd3d33c0f8f944e7c724d9316db2",
        "report.json": "643c62295ab6241d9d0b6c04c642c96b853e71e8bfe43ba2689b17f54bd6852f",
        "continuations": "51067d04d60a39a4dcc4a97e7d1608d695f1ff77435923a27a81deffcc789683",
    },
    "sd-target-tree": {
        "trace.csv": "52de0adea6fb6ba62e39820bb6d860cceaf97b24867a8115482b0324ef732dfb",
        "report.json": "3539e23f3055d8a9866c1ae98e8062092ef32740a44199b8fb16e76e6fa35c51",
        "continuations": "9a8a0ceb69693c438cc367406fae450ca7f9c25c6fc1709a75463e0f10b126ad",
    },
    "target_only-T0": {
        "trace.csv": "4f2f06857bd31ff8afdd703d3b0a5da5ceebe49d38178a75774b0a8370a0e3b5",
        "report.json": "2be6e894b2b59c38c078fff74e5ec69a66c40c4db90ee2b4e82ae5731b8acae1",
        "continuations": "3b18ea6b2733b7f6563f61d38a1210c4774154c02baa1120ddeed451308842ab",
    },
    "target_only-T1": {
        "trace.csv": "cbbdb7404c3133f56462cd4182399bf96e016a8c09eab457c7741fe65098e8ec",
        "report.json": "f049e06d7149b6ad447c8e8132659144b084735695c66492e5771eaad0806007",
        "continuations": "13fb3675a7221147b3a5f43eb138e6b7fc3f0614d3b03a7dc2058c4bdc163acb",
    },
    "trispec-chain-T0": {
        "trace.csv": "34ae270d32c6848535c4748f27727dcca13f55a8a7d58af6becf1dbafe11aebd",
        "report.json": "703abab4b61384ee05c560813c70f3037a77ac8fb0d64fcd34775fa0c50ddd61",
        "continuations": "985541bee3318388da0f88730f3f70a99e0402c75cc8c31d97504f7041eedb59",
    },
    "trispec-chain-T1": {
        "trace.csv": "c8b5d848ad4037b8d3e57de9a1035903d083bd3f5e7afbb6ff8bca8728c948c1",
        "report.json": "c1c8a1e296901f257ec19a038d9efcb6dcf31f113d78b1333021adc3fd75ca67",
        "continuations": "91f6570795babb1dacca699250e44968416e713b33a02f6d0dd818d2e52bc6f4",
    },
    "trispec-top1_prob": {
        "trace.csv": "7ef2dba6843e7b26163c57eec29fb37cf4843f3b77ad96fe2ba483677ca6333e",
        "report.json": "4ff31edb372f5613988d4a5318eaddeafa9e79027eac922c7888afe22651bd92",
        "continuations": "985541bee3318388da0f88730f3f70a99e0402c75cc8c31d97504f7041eedb59",
    },
    "trispec-tree": {
        "trace.csv": "46aba178b935a240863cf74de3b681e1dc07862aedbd983cc64d2ff93ff6d346",
        "report.json": "a681804348c317c2570ffddaba0ef21b19558f9834c0f743cfa8487a964238d1",
        "continuations": "42079422b9eb26d147bccbc20da436db396a25bb1f462907e5d6f1a379529c7f",
    },
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(name: str, family, outdir: Path) -> dict[str, str]:
    """sha256 of the trace, the report and the continuations of one run."""
    cfg = replace(ExperimentConfig(), **SMALL, **CONFIGS[name])
    result = run_experiment(cfg, family)
    write_report_json(result, outdir / "report.json")
    write_trace_csv(result.records, outdir / "trace.csv")
    continuations = json.dumps([[list(p), list(t)] for p, t in result.continuations])
    return {
        "trace.csv": _sha((outdir / "trace.csv").read_bytes()),
        "report.json": _sha((outdir / "report.json").read_bytes()),
        "continuations": _sha(continuations.encode()),
    }


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_decode_path_output_is_pinned(name, ref_family, tmp_path):
    assert digests(name, ref_family, tmp_path) == GOLDENS[name]


if __name__ == "__main__":
    family = build_family(ExperimentConfig())
    with tempfile.TemporaryDirectory() as tmp:
        out = {name: digests(name, family, Path(tmp)) for name in sorted(CONFIGS)}
    json.dump(out, sys.stdout, indent=4, sort_keys=True)
    print()
