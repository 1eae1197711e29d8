"""Pinned SHA-256 digests of small CLI and sweep outputs.

The bytes of the flip-bench CSVs, the encoded and mapping VSAF files and the
loss JSON are fixed for a given seed. These digests make any change to them
visible, so that merging samplers, quantizers or cosine paths cannot alter
output bits unnoticed. They were recorded with numpy 2.4.6 and OpenBLAS
0.3.31 on x86-64; a different BLAS can round the LSH projection differently.
"""

import hashlib
import json

import numpy as np
import pytest

from vsabench.bench import BenchConfig, reports_to_csv, run_sweep
from vsabench.cli import main
from vsabench.vsaf import feature_map_set, write_feature_file

SWEEP_DIGESTS = {
    "dim": "6c421c307067725fd868525649c5e6ee22e2314c81c1a88458a550ab0b68eb5b",
    "k": "56f4787540fa5193be4a8fb460f0e35f5345436194e033d866ffad290586bff8",
    "mapping_kind": "fb7e56146924f289085674c8469688bf39cdf6d41a7404fc5201fe215cdf497c",
    "lambda_proxy": "2d3e45f2be97407b977fb4ece2c1ef2164f8b02b4ad0ac9999b6a7af3f4e1981",
}
SWEEPS = {
    "dim": (64, 129),
    "k": (1, 3),
    "mapping_kind": ("ground_truth", "random", "mixed"),
    "lambda_proxy": (0.0, 0.3, 1.0),
}

PIPELINE_DIGESTS = {
    "src_none": "60836f33344b707457b9347c85b90dfb439fdd3b5892aed7bea293d6a66cb3c7",
    "tgt_none": "797c23c17987475a66a856599c31e3d22e373b7b541d4f9f12a05c5e8f7e2c02",
    "src_sign": "c37540e1faf4eb934ced8feab4a76aca4599d38f95e6000cfd24844c9111b002",
    "map_none": "36fab50d3f9992f70fb838f69db2eafc7e4e65edad4ff7f8505220756c1fc390",
    "map_sign": "2232fb81c6731620ed9041c9350ce6ae8275dce5bb07527aff0e23ee4797b79a",
    "map_random": "8afcf9e1d810aef1cba601c4bd8f2e537f8e29eff3e2fecf3002eb6965013b7d",
    "loss": "3774f47acd3a162f331d566697ae09873c7402cc9f5e639f20edde22d10c6218",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("axis", sorted(SWEEPS))
def test_sweep_csv_bytes(axis):
    base = BenchConfig(dim=96, k=2, object_vocab_size=8, attr_vocab_size=4, mix=0.5, trials=6, seed=5)
    text = reports_to_csv(axis, run_sweep(axis, SWEEPS[axis], base))
    assert _sha256(text.encode("utf-8")) == SWEEP_DIGESTS[axis]


def _pipeline_outputs(tmp_path, capsys) -> dict:
    rng = np.random.default_rng(11)
    src = [rng.standard_normal((8, 8, 4)), rng.standard_normal((4, 4, 8))]
    tgt = [a + 0.5 * rng.standard_normal(a.shape) for a in src]
    for tag, maps in (("src", src), ("tgt", tgt)):
        write_feature_file(feature_map_set(zip(("conv1", "conv2"), maps)), tmp_path / f"{tag}.vsaf")
    scores = {tag: rng.normal(mean, 1.0, 16).tolist()
              for tag, mean in (("real", 1.0), ("fake_t", -1.0), ("fake_m", -1.0))}
    for tag, batch in scores.items():
        (tmp_path / f"{tag}.json").write_text(json.dumps(batch))

    def run(*argv):
        assert main([str(a) for a in argv]) == 0
        return capsys.readouterr().out

    for tag, quantize in (("src", "none"), ("tgt", "none"), ("src", "sign")):
        run("encode", "--features-in", tmp_path / f"{tag}.vsaf", "--out", tmp_path / f"{tag}_{quantize}.vsaf",
            "--patch-sizes", "2,1", "--dim", 96, "--seed", 7, "--quantize", quantize)
    for quantize in ("none", "sign"):
        run("map", "--src", tmp_path / "src_none.vsaf", "--tgt", tmp_path / "tgt_none.vsaf",
            "--out", tmp_path / f"map_{quantize}.vsaf", "--quantize", quantize)
    run("map", "--src", tmp_path / "src_none.vsaf", "--out", tmp_path / "map_random.vsaf",
        "--mode", "random", "--seed", 4)
    loss = run("loss", "--x", tmp_path / "src_none.vsaf", "--cycled", tmp_path / "tgt_none.vsaf",
               "--scores-real", tmp_path / "real.json", "--scores-fake-translated", tmp_path / "fake_t.json",
               "--scores-fake-mapped", tmp_path / "fake_m.json")
    outputs = {name: (tmp_path / f"{name}.vsaf").read_bytes() for name in PIPELINE_DIGESTS if name != "loss"}
    outputs["loss"] = loss.encode("utf-8")
    return outputs


def test_pipeline_bytes(tmp_path, capsys):
    digests = {name: _sha256(data) for name, data in _pipeline_outputs(tmp_path, capsys).items()}
    assert digests == PIPELINE_DIGESTS
