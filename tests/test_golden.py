"""Pinned SHA-256 digests of small CLI and sweep outputs.

The bytes of the flip-bench CSVs, the encoded and mapping VSAF files and the
loss JSON are fixed for a given seed. These digests make any change to them
visible, so that merging samplers, quantizers or cosine paths cannot alter
output bits unnoticed. They were recorded with numpy 2.4.6 and OpenBLAS
0.3.31 on x86-64. The LSH projection is a float32 SGEMM, so a different BLAS
can round the unquantized encode files, and the map and loss outputs read
from them, differently; ``tests/test_lsh.py::TestFloat32Accuracy`` bounds
how far any entry may move from the float64 product.
"""

import hashlib
import json

import numpy as np
import pytest

from vsabench.bench import BenchConfig, reports_to_csv, run_sweep
from vsabench.cli import main
from vsabench.vsaf import feature_map_set, write_feature_file

SWEEP_DIGESTS = {
    "dim": "f7a7a5714d15d6fd906bd3bbf41276252d14a07fcb09176a31f02c322b085d05",
    "k": "ad5270768054fd93db454b05af64441e90232eea8e7ce4baba1efcd29d309e54",
    "mapping_kind": "e1c7ec2e962a00e8b87b00967876682e8780448c40e7798ad65f426df6a93850",
    "lambda_proxy": "2f348d4bc894a669d614d74b0bcf5ff7b0464de17a794be934d80f08710de50c",
}
SWEEPS = {
    "dim": (64, 129),
    "k": (1, 3),
    "mapping_kind": ("ground_truth", "random", "mixed"),
    "lambda_proxy": (0.0, 0.3, 1.0),
}

# flip-capacity scale: 1,024 objects scanned by k = 16 queries a trial at dim 4096
CAPACITY_DIGEST = "26d8402bf0dc08498bddb7585578810e5cdcef39437cc42e9fccb957dced03fa"

# flip-sweep scale: the k and mapping-kind sweeps of perfbench's flip-sweep workload, hashed
# in that order. The seed is that workload's first pass at run seed 1, so this digest is
# the one that `perfbench/run.py --workload flip-sweep --seed 1` prints.
FLIP_SWEEP_DIGEST = "ba29b9e4cda847ae47e67d4d5f0a498abf45022058c699c656bf9385aa524bf8"
FLIP_SWEEPS = (("k", (1, 2, 4, 8, 16)), ("mapping_kind", ("ground_truth", "random")))

PIPELINE_DIGESTS = {
    "src_none": "76d681e640bdbd37df06d4d433078fcd43e3339979b3f686b8ba7ebc1dac43da",
    "tgt_none": "0cb81d678f52537fcbd89149415c0a60e6be594da67ef236dce0fd1f92f9c504",
    "src_sign": "37464dac2d2ac3e1f1740f303d847db7f461eb636519a2ab96713e2831d92ee8",
    "map_none": "04a5f3e1fee2b534052b6df2c4832d7c1940ff0c85906367910473177e281d78",
    "map_sign": "70804e04d9c3e51a33bfd91976a5ce396b2590b84864d441b138c1d2f3784e9e",
    "map_random": "df0974efb2f3a88a0e4d62e8f13bf1669971ea693716133a70e24bcc19cd15c7",
    "loss": "66f7aad7040419947314174fd52b23f4efe3672681f4a2c6802625b5ac5f82ae",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("axis", sorted(SWEEPS))
def test_sweep_csv_bytes(axis):
    base = BenchConfig(dim=96, k=2, object_vocab_size=8, attr_vocab_size=4, mix=0.5, trials=6, seed=5)
    text = reports_to_csv(axis, run_sweep(axis, SWEEPS[axis], base))
    assert _sha256(text.encode("utf-8")) == SWEEP_DIGESTS[axis]


def test_capacity_sweep_csv_bytes():
    base = BenchConfig(dim=4096, k=16, object_vocab_size=1024, attr_vocab_size=64, trials=4, seed=1)
    text = reports_to_csv("k", run_sweep("k", (16,), base))
    assert _sha256(text.encode("utf-8")) == CAPACITY_DIGEST


def test_flip_sweep_csv_bytes():
    base = BenchConfig(dim=4096, k=2, object_vocab_size=32, attr_vocab_size=16, trials=40, seed=38901565946305238)
    text = "".join(reports_to_csv(axis, run_sweep(axis, grid, base)) for axis, grid in FLIP_SWEEPS)
    assert _sha256(text.encode("utf-8")) == FLIP_SWEEP_DIGEST


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
