"""End-to-end acceptance checks, one test per criterion.

Each test prints a single pass/fail line; run with ``pytest tests/test_acceptance.py -s``
to see the lines on success.
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np

from vsabench.bench import BenchConfig, measure_recovery, run_sweep
from vsabench.hv import cosine_similarity, sample_hypervector
from vsabench.losses import LossConfig, gan_loss, total_loss, vsa_cyclic_loss
from vsabench.lsh import new_projector, project_batch
from vsabench.vsaf import feature_map_set, read_feature_file, write_feature_file

from test_lsh import unit_pair_with_cosine

DIM = 4096


def check(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num}] {name}: {status}{suffix}")
    assert ok, f"criterion {num} ({name}) failed{suffix}"


def test_criterion_1_self_inverse_algebra():
    start = time.perf_counter()
    exact = True
    for i in range(1000):
        v = sample_hypervector(DIM, np.random.default_rng(2 * i))
        u = sample_hypervector(DIM, np.random.default_rng(2 * i + 1))
        if not np.array_equal(v * u * u, v):
            exact = False
            break
    elapsed = time.perf_counter() - start
    check(1, "self-inverse algebra", exact and elapsed < 5.0, f"{elapsed:.2f}s over 1000 pairs")


def test_criterion_2_recovery_law():
    start = time.perf_counter()
    base = BenchConfig(dim=DIM, object_vocab_size=32, attr_vocab_size=16, trials=100, seed=7)
    ok = True
    details = []
    for r in run_sweep("k", [1, 2, 4, 8, 16], base):
        k = r.config.k
        expected = 1.0 / math.sqrt(k)
        if k == 1:
            ok &= r.recovery_cosine == 1.0
        else:
            ok &= abs(r.recovery_cosine - expected) <= 3 * r.recovery_cosine_sem
        details.append(f"k={k}: {r.recovery_cosine:.4f} vs {expected:.4f}")
    elapsed = time.perf_counter() - start
    ok &= elapsed < 30.0
    check(2, "recovery law 1/sqrt(k)", ok, "; ".join(details) + f"; {elapsed:.1f}s")


def test_criterion_3_cleanup_fidelity():
    r = measure_recovery(BenchConfig(dim=DIM, k=2, object_vocab_size=32, trials=100, seed=21))
    check(3, "cleanup fidelity >= 0.99", r.cleanup_accuracy >= 0.99,
          f"accuracy {r.cleanup_accuracy:.4f}")


def test_criterion_4_random_mapping_ablation():
    r = measure_recovery(BenchConfig(dim=DIM, k=2, object_vocab_size=32, trials=100, seed=21,
                                     mapping="random"))
    chance = 1.0 / 32.0
    se = math.sqrt(chance * (1.0 - chance) / r.attempts)
    ok = abs(r.cleanup_accuracy - chance) <= 3 * se
    check(4, "random-mapping ablation at chance", ok,
          f"accuracy {r.cleanup_accuracy:.4f} vs chance {chance:.4f} +- {3 * se:.4f}")


def test_criterion_5_dimension_ablation():
    base = BenchConfig(k=4, object_vocab_size=32, attr_vocab_size=16, trials=100, seed=7)
    results = run_sweep("dim", [128, 512, 2048, 4096], base)
    accs = [r.cleanup_accuracy for r in results]
    monotone = all(a <= b + 1e-12 for a, b in zip(accs, accs[1:]))
    gap = accs[-1] - accs[0]
    check(5, "dimension ablation trend", monotone and gap >= 0.05,
          f"accuracies {[f'{a:.3f}' for a in accs]}, gap {gap:.3f}")


def test_criterion_6_lsh_contract():
    p = new_projector(m=2048, n=1024, seed=8)
    rng = np.random.default_rng(9)
    within = 0
    in_range = True
    pairs = [unit_pair_with_cosine(rng, 2048, 0.8) for _ in range(100)]
    h1s, h2s = (project_batch(p, fs) for fs in zip(*pairs))
    for h1, h2 in zip(h1s, h2s):
        in_range &= bool(np.all(np.abs(h1) <= 1.0) and np.all(np.abs(h2) <= 1.0))
        within += int(abs(cosine_similarity(h1, h2) - 0.8) <= 0.1)
    check(6, "LSH similarity preservation", within >= 95 and in_range,
          f"{within}/100 pairs within +-0.1, range ok: {in_range}")


def test_criterion_7_loss_identities():
    vs = [sample_hypervector(DIM, np.random.default_rng(s)) for s in range(4)]
    ok = vsa_cyclic_loss(vs, vs) == 0.0
    ok &= vsa_cyclic_loss(vs, [-v for v in vs]) == 2.0
    d_loss, _ = gan_loss([1.0, 2.5], [-1.0, -4.0], [-1.5], LossConfig(variant="hinge"))
    ok &= d_loss == 0.0
    for lam in (0.0, 5.0, 10.0):
        ok &= total_loss(1.25, 0.4, LossConfig(lam=lam)) == 1.25 + lam * 0.4
    check(7, "loss identities", ok)


def test_criterion_8_bench_determinism(tmp_path):
    args = [sys.executable, "-m", "vsabench.cli", "bench", "--axis", "dim",
            "--grid", "128,512", "--trials", "20", "--seed", "3"]
    outputs = []
    for threads in ("1", "1", "4"):
        env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        proc = subprocess.run(args, capture_output=True, env=env)
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append(proc.stdout)
    ok = outputs[0] == outputs[1] == outputs[2]
    check(8, "bench CSV determinism", ok, f"{len(outputs[0])} bytes, runs and thread counts agree")


def test_criterion_9_round_trip_io(tmp_path):
    rng = np.random.default_rng(5)
    fm = feature_map_set([
        ("conv1", rng.standard_normal((8, 8, 4))),
        ("conv2", rng.standard_normal((4, 4, 16))),
        ("edge", rng.standard_normal((1, 1, 1))),
    ])
    path = tmp_path / "roundtrip.vsaf"
    write_feature_file(fm, path)
    back = read_feature_file(path)
    ok = [l.name for l in back.layers] == ["conv1", "conv2", "edge"]
    for a, b in zip(fm.layers, back.layers):
        ok &= np.array_equal(a.data, b.data)
    check(9, "VSAF round-trip", bool(ok))
