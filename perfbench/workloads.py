"""The benchmark's workloads: what one pass runs, its inputs and its checks.

A pass drives vsabench only through the entry points users call:
``cli.main([...])`` in-process for the encode -> map -> cycle -> loss
pipeline (as scripts/demo_pipeline.py does), and ``bench.run_sweep`` with
``reports_to_csv`` for the flip bench (as scripts/run_ablations.py does).
Inputs come from the pass seed alone and are written before the pass is
timed; checks run after it, against ``reference``.

Each pass is a list of named operations. An operation fails on a non-zero
CLI exit, an exception, or a failed check; once one raises, the rest of the
pass is not run and counts as failed too.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference as ref

class OpError(Exception):
    pass


@dataclass
class Pass:
    """Inputs of one pass, and what running it produced."""

    seed: int
    dir: Path
    data: dict
    outputs: dict = dataclasses.field(default_factory=dict)
    errors: dict = dataclasses.field(default_factory=dict)


def _poke_last_value(path: Path, value: float) -> None:
    blob = bytearray(path.read_bytes())
    blob[-4:] = np.float32(value).tobytes()
    path.write_bytes(bytes(blob))


def _cli(mods, argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = mods.cli.main([str(a) for a in argv])
    if code != 0:
        raise OpError(f"vsabench {argv[0]} exited {code}")
    return out.getvalue()


@dataclass(frozen=True)
class EncodeWorkload:
    """Two feature maps (src, and tgt = src + jitter) through encode -> map -> cycle -> loss."""

    name: str
    why: str
    layers: tuple  # (H, W, C) per layer
    sides: tuple
    dim: int
    norm_scope: str = "vector"
    jitter: float = 0.5
    scores: int = 64
    sampled_pairs: int = 32

    ops = ("encode_src", "encode_tgt", "map", "cycle", "loss")
    item = "patches"

    @property
    def patch_count(self) -> int:
        h, w, _ = self.layers[0]
        return (h // self.sides[0]) * (w // self.sides[0])

    @property
    def m(self) -> int:
        return sum(s * s * c for s, (_, _, c) in zip(self.sides, self.layers))

    @property
    def items_per_pass(self) -> int:
        return self.patch_count

    def working_set(self) -> dict:
        hv_file = self.patch_count * self.dim * 4
        return {
            "projector_bytes": self.m * self.dim * 8,
            "feature_file_bytes": sum(h * w * c * 4 for h, w, c in self.layers),
            "hypervector_file_bytes": hv_file,
            "hypervector_stack_bytes": 2 * hv_file,
        }

    def _features(self, rng) -> list[np.ndarray]:
        """Noise plus a shared patch pattern at a random weight per patch.

        The weights make patch cosines differ pair by pair, so the cosine
        check also catches patches emitted in the wrong order.
        """
        h, w, _ = self.layers[0]
        gh, gw = h // self.sides[0], w // self.sides[0]
        weight = rng.uniform(0.0, 2.0, (gh, 1, gw, 1, 1))
        maps = []
        for (h, w, c), s in zip(self.layers, self.sides):
            data = rng.standard_normal((gh, s, gw, s, c)) + weight * rng.standard_normal((1, s, 1, s, c))
            maps.append(data.reshape(h, w, c).astype(np.float32))
        return maps

    def make_inputs(self, seed: int, workdir: Path) -> Pass:
        rng = np.random.default_rng(seed)
        workdir.mkdir(parents=True)
        src = self._features(rng)
        tgt = [(a + self.jitter * rng.standard_normal(a.shape)).astype(np.float32) for a in src]
        for tag, maps in (("src", src), ("tgt", tgt)):
            ref.write_vsaf(workdir / f"{tag}.vsaf", [(f"layer{i}", a) for i, a in enumerate(maps)])
        scores = (rng.normal(1.0, 1.0, self.scores), rng.normal(-1.0, 1.0, self.scores),
                  rng.normal(-1.0, 1.0, self.scores))
        for tag, s in zip(("real", "fake_t", "fake_m"), scores):
            (workdir / f"{tag}.json").write_text(json.dumps(s.tolist()))
        pairs = rng.integers(0, self.patch_count, (self.sampled_pairs, 2))
        data = {"src": src, "tgt": tgt, "scores": scores, "pairs": pairs,
                "projector_seed": int(rng.integers(0, 2**63))}
        return Pass(seed=seed, dir=workdir, data=data)

    def run(self, mods, p: Pass, fault: str | None = None) -> None:
        d = p.dir
        encode = ["--patch-sizes", ",".join(map(str, self.sides)), "--dim", self.dim,
                  "--seed", p.data["projector_seed"], "--norm-scope", self.norm_scope]
        op = self.ops[0]
        try:
            _cli(mods, ["encode", "--features-in", d / "src.vsaf", "--out", d / "src_hv.vsaf", *encode])
            op = "encode_tgt"
            _cli(mods, ["encode", "--features-in", d / "tgt.vsaf", "--out", d / "tgt_hv.vsaf", *encode])
            op = "map"
            _cli(mods, ["map", "--src", d / "src_hv.vsaf", "--tgt", d / "tgt_hv.vsaf", "--out", d / "u.vsaf"])
            if fault == "mapping":
                _poke_last_value(d / "u.vsaf", 0.5)
            op = "cycle"
            src = mods.vsaf.read_hypervectors(d / "src_hv.vsaf")
            u = mods.mapping.HypervectorMapping(per_patch=mods.vsaf.read_hypervectors(d / "u.vsaf"))
            cycled = mods.mapping.apply_mapping(mods.mapping.apply_mapping(src, u), u)
            mods.vsaf.write_hypervectors(cycled, d / "cycled.vsaf")
            if fault == "cycled":
                _poke_last_value(d / "cycled.vsaf", 0.5)
            op = "loss"
            out = _cli(mods, ["loss", "--x", d / "src_hv.vsaf", "--cycled", d / "cycled.vsaf",
                              "--scores-real", d / "real.json", "--scores-fake-translated", d / "fake_t.json",
                              "--scores-fake-mapped", d / "fake_m.json"])
            p.outputs["loss"] = ref.load_json(out)
            if fault == "loss":
                p.outputs["loss"]["total"] += 1e-3
        except Exception as exc:  # every failure of the program counts against error_rate
            _fail_from(p, self.ops, op, f"{type(exc).__name__}: {exc}")

    def check(self, p: Pass) -> None:
        d, data = p.dir, p.data
        files = {}
        for key in ("src_hv", "tgt_hv", "u", "cycled"):
            try:
                files[key] = ref.read_stack(d / f"{key}.vsaf")
            except (OSError, ValueError):
                pass
        f_src = ref.patch_vectors(data["src"], self.sides, self.norm_scope == "per_layer")
        f_tgt = ref.patch_vectors(data["tgt"], self.sides, self.norm_scope == "per_layer")
        pairs = data["pairs"]
        same = np.stack([pairs[:, 0], pairs[:, 0]], axis=1)

        def encoded(key, f_b, hv_b_key, pair_idx):
            errs = ref.check_encoded(files[key], self.patch_count, self.dim)
            if not errs:
                errs = ref.check_cosine_preserved(files["src_hv"], files[hv_b_key], f_src, f_b, pair_idx, self.dim)
            return errs

        checks = {
            "encode_src": lambda: encoded("src_hv", f_src, "src_hv", pairs),
            "encode_tgt": lambda: encoded("tgt_hv", f_tgt, "tgt_hv", same),
            "map": lambda: ref.check_mapping(files["u"], files["src_hv"], files["tgt_hv"]),
            "cycle": lambda: ref.check_cycled(files["cycled"], files["src_hv"], files["u"]),
            "loss": lambda: ref.check_loss(p.outputs["loss"], files["src_hv"], files["cycled"], data["scores"]),
        }
        _run_checks(p, checks)

    def digests(self, p: Pass) -> dict:
        return {"encoded_vsaf_sha256": _sha256(p.dir / "src_hv.vsaf"),
                "mapping_vsaf_sha256": _sha256(p.dir / "u.vsaf")}

    def layer_extras(self, p: Pass) -> dict:
        return {}


@dataclass(frozen=True)
class FlipWorkload:
    """Recovery sweeps of the synthetic flip bench, rendered to CSV."""

    name: str
    why: str
    sweeps: tuple  # (axis, grid, overrides of the base config)
    dim: int
    objects: int
    attrs: int
    k: int
    trials: int

    item = "trials"

    @property
    def ops(self) -> tuple:
        return tuple(f"{axis}={v}" for axis, grid, _ in self.sweeps for v in grid)

    @property
    def items_per_pass(self) -> int:
        return self.trials * len(self.ops)

    def working_set(self) -> dict:
        return {
            "item_memory_bytes": self.objects * self.dim * 8,
            "symbol_bytes": (self.objects + 2 * self.attrs) * self.dim * 8,
        }

    def _base(self, seed: int, overrides: dict) -> dict:
        base = {"dim": self.dim, "k": self.k, "object_vocab_size": self.objects,
                "attr_vocab_size": self.attrs, "trials": self.trials, "seed": seed}
        base.update(overrides)
        return base

    def make_inputs(self, seed: int, workdir: Path) -> Pass:
        workdir.mkdir(parents=True)
        return Pass(seed=seed, dir=workdir, data={})

    def run(self, mods, p: Pass, fault: str | None = None) -> None:
        op = self.ops[0]
        try:
            for axis, grid, overrides in self.sweeps:
                op = f"{axis}={grid[0]}"
                base = mods.bench.BenchConfig(**self._base(p.seed, overrides))
                results = mods.bench.run_sweep(axis, grid, base)
                text = mods.bench.reports_to_csv(axis, results)
                if fault == "mislabel" and axis == self.sweeps[-1][0]:
                    rows = text.split("\n")
                    fields = rows[-2].split(",")
                    fields[4] = "random" if fields[4] == "ground_truth" else "ground_truth"
                    rows[-2] = ",".join(fields)
                    text = "\n".join(rows)
                (p.dir / f"sweep_{axis}.csv").write_text(text, encoding="utf-8", newline="")
        except Exception as exc:
            _fail_from(p, self.ops, op, f"{type(exc).__name__}: {exc}")

    def check(self, p: Pass) -> None:
        for axis, grid, overrides in self.sweeps:
            base = self._base(p.seed, overrides)
            labels = {"dim": base["dim"], "k": base["k"], "objects": base["object_vocab_size"],
                      "mapping": "ground_truth", "trials": base["trials"], "seed": p.seed}
            path = p.dir / f"sweep_{axis}.csv"
            rows = (ref.check_sweep_rows(path.read_text(encoding="utf-8"), axis, grid, labels)
                    if path.exists() else [["no CSV written"]] * len(grid))
            for value, errs in zip(grid, rows):
                if errs:
                    p.errors.setdefault(f"{axis}={value}", "; ".join(errs))

    def digests(self, p: Pass) -> dict:
        h = hashlib.sha256()
        for axis, _, _ in self.sweeps:
            h.update((p.dir / f"sweep_{axis}.csv").read_bytes())
        return {"sweep_csv_sha256": h.hexdigest()}

    def layer_extras(self, p: Pass) -> dict:
        correct = attempts = 0
        for axis, _, _ in self.sweeps:
            c, a = ref.cleanup_hits((p.dir / f"sweep_{axis}.csv").read_text(encoding="utf-8"))
            correct, attempts = correct + c, attempts + a
        return {"memory.cleanup.hit_rate": correct / attempts}


def _fail_from(p: Pass, ops, op: str, reason: str) -> None:
    """Mark ``op`` failed and every later operation of the pass as not run."""
    start = ops.index(op)
    p.errors[op] = reason
    for later in ops[start + 1 :]:
        p.errors.setdefault(later, f"not run: {op} failed")


def _run_checks(p: Pass, checks: dict) -> None:
    for op, check in checks.items():
        if op in p.errors:
            continue
        try:
            errs = check()
        except (KeyError, ValueError, OSError) as exc:
            errs = [f"output missing or unreadable: {type(exc).__name__}: {exc}"]
        if errs:
            p.errors[op] = "; ".join(errs)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


WORKLOADS = {
    w.name: w
    for w in (
        EncodeWorkload(
            name="encode-wide",
            why="64 long patches (m=6144) at dim 4096: projector build and projection dominate",
            layers=((64, 64, 64), (32, 32, 128)), sides=(8, 4), dim=4096,
        ),
        EncodeWorkload(
            name="encode-many",
            why="1024 short patches (m=384), per-layer norm: per-patch Python loops and VSAF I/O dominate",
            layers=((128, 128, 16), (64, 64, 32)), sides=(4, 2), dim=4096, norm_scope="per_layer",
        ),
        FlipWorkload(
            name="flip-sweep",
            why="the paper's k and mapping-kind ablation: symbol sampling and a small, mostly written item memory",
            sweeps=(("k", (1, 2, 4, 8, 16), {}), ("mapping_kind", ("ground_truth", "random"), {"k": 2})),
            dim=4096, objects=32, attrs=16, k=2, trials=40,
        ),
        FlipWorkload(
            name="flip-capacity",
            why="1024 objects, k=16: a 32 MB item memory queried 16 times a trial, so cleanup reads dominate",
            sweeps=(("k", (16,), {}),), dim=4096, objects=1024, attrs=64, k=16, trials=4,
        ),
    )
}

# Reduced sizes of the same workloads, for the self-test.
SMALL = {
    "encode-wide": dataclasses.replace(
        WORKLOADS["encode-wide"], layers=((16, 16, 8), (8, 8, 16)), sides=(4, 2), dim=256),
    "encode-many": dataclasses.replace(
        WORKLOADS["encode-many"], layers=((16, 16, 4), (8, 8, 8)), sides=(2, 1), dim=256),
    "flip-sweep": dataclasses.replace(WORKLOADS["flip-sweep"], dim=1024, trials=8),
    "flip-capacity": dataclasses.replace(
        WORKLOADS["flip-capacity"], objects=64, attrs=16, dim=1024, trials=2),
}
