"""Independent numpy references used to check vsabench outputs.

Nothing here imports vsabench. The VSAF codec, patch assembly, mapping,
cycle and loss formulas are re-derived from the file format and the
definitions in the package docstrings, so a defect in the package cannot
hide behind the same defect in its check.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

VSAF_MAGIC = b"VSAF"
CSV_HEADER = "axis,value,dim,k,mapping,trials,recovery_cosine,cleanup_accuracy,flip_rate,seed"

# Loss settings the CLI documents as defaults (lambda, hinge weights).
LOSS_LAMBDA = 10.0
LOSS_WEIGHTS = (1.0, 1.0)

# Encoding preserves cosine: the sample correlation of n projected
# coordinates has standard deviation at most 1/sqrt(n), so 6/sqrt(dim)
# is a six-sigma tolerance.
COSINE_SIGMAS = 6.0
# Measured per-trial spread of the flip recovery cosine is 0.51..0.82 /
# sqrt(dim) for k in 2..16, so 1/sqrt(dim * trials) bounds its SEM.
RECOVERY_SIGMAS = 6.0
CHANCE_SIGMAS = 6.0
# A ground-truth query is its object plus about k^2 bipolar noise terms per
# coordinate; by Hoeffding a distractor outscores it with probability below
# exp(-dim / (4 k^2)). Rows with dim / (4 k^2) >= 32 must clean up every query.
EXACT_CLEANUP_EXPONENT = 32.0
CSV_ROUNDING = 1e-6  # the CSV prints six decimals


def write_vsaf(path, layers) -> None:
    """Write (name, H x W x C array) layers as a VSAF v1 file."""
    head = [VSAF_MAGIC, struct.pack("<II", 1, len(layers))]
    body = []
    for name, data in layers:
        raw = name.encode("utf-8")
        head += [struct.pack("<H", len(raw)), raw, struct.pack("<III", *data.shape)]
        body.append(np.ascontiguousarray(data, dtype="<f4").tobytes())
    Path(path).write_bytes(b"".join(head + body))


def read_vsaf(path) -> list[tuple[str, np.ndarray]]:
    """Parse a VSAF v1 file into (name, float32 H x W x C) layers."""
    blob = Path(path).read_bytes()
    if blob[:4] != VSAF_MAGIC:
        raise ValueError(f"{path}: bad magic {blob[:4]!r}")
    version, count = struct.unpack_from("<II", blob, 4)
    if version != 1:
        raise ValueError(f"{path}: version {version}")
    pos = 12
    headers = []
    for _ in range(count):
        (name_len,) = struct.unpack_from("<H", blob, pos)
        name = blob[pos + 2 : pos + 2 + name_len].decode("utf-8")
        pos += 2 + name_len
        headers.append((name, struct.unpack_from("<III", blob, pos)))
        pos += 12
    layers = []
    for name, (h, w, c) in headers:
        n = h * w * c
        data = np.frombuffer(blob, dtype="<f4", count=n, offset=pos).reshape(h, w, c)
        layers.append((name, data))
        pos += 4 * n
    if pos != len(blob):
        raise ValueError(f"{path}: {len(blob) - pos} trailing bytes")
    return layers


def read_stack(path) -> np.ndarray:
    """A hypervector file's single 1 x count x dim layer, as float64 (count, dim)."""
    layers = read_vsaf(path)
    if len(layers) != 1 or layers[0][1].shape[0] != 1:
        raise ValueError(f"{path}: expected one 1 x count x dim layer")
    return layers[0][1][0].astype(np.float64)


def patch_vectors(layers, sides, per_layer: bool) -> np.ndarray:
    """Concatenated patch features, patch order row-major over the grid.

    Within a patch each layer block is flattened row, column, channel; with
    ``per_layer`` every block is scaled to unit norm.
    """
    blocks = []
    for data, s in zip(layers, sides):
        h, w, c = data.shape
        b = data.astype(np.float64).reshape(h // s, s, w // s, s, c)
        b = b.transpose(0, 2, 1, 3, 4).reshape((h // s) * (w // s), s * s * c)
        if per_layer:
            b = b / np.linalg.norm(b, axis=1, keepdims=True)
        blocks.append(b)
    return np.concatenate(blocks, axis=1)


def row_cosines(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", a, b) / np.sqrt(
        np.einsum("ij,ij->i", a, a) * np.einsum("ij,ij->i", b, b)
    )


def check_encoded(hv: np.ndarray, patch_count: int, dim: int) -> list[str]:
    if hv.shape != (patch_count, dim):
        return [f"shape {hv.shape} != {(patch_count, dim)}"]
    if not np.all(np.isfinite(hv)):
        return ["non-finite entries"]
    if np.abs(hv).max() > 1.0:
        return [f"entry {np.abs(hv).max()} outside [-1, 1]"]
    return []


def check_cosine_preserved(hv_a, hv_b, f_a, f_b, pairs: np.ndarray, dim: int) -> list[str]:
    """cos(hv_a[i], hv_b[j]) tracks cos(f_a[i], f_b[j]) on the sampled (i, j) pairs."""
    i, j = pairs[:, 0], pairs[:, 1]
    err = np.abs(row_cosines(hv_a[i], hv_b[j]) - row_cosines(f_a[i], f_b[j]))
    tol = COSINE_SIGMAS / math.sqrt(dim)
    if err.max() > tol:
        return [f"cosine drift {err.max():.4f} > {tol:.4f} on {int(np.sum(err > tol))} pairs"]
    return []


def _check_f32(name: str, got: np.ndarray, want64: np.ndarray) -> list[str]:
    want = want64.astype(np.float32).astype(np.float64)
    if got.shape != want.shape:
        return [f"{name} shape {got.shape} != {want.shape}"]
    bad = np.abs(got - want) > 2.0**-23 * np.abs(want)
    if bad.any():
        return [f"{name} differs from reference at {int(bad.sum())} entries"]
    return []


def check_mapping(u, src, tgt) -> list[str]:
    """The paired mapping file equals src * tgt up to float32 rounding."""
    return _check_f32("mapping", u, src * tgt)


def check_cycled(cycled, src, u) -> list[str]:
    """The cycled file equals src bound twice with the mapping."""
    return _check_f32("cycled", cycled, src * u * u)


def hinge_terms(real, fake_t, fake_m) -> tuple[float, float]:
    w1, w2 = LOSS_WEIGHTS
    d = (
        np.mean(np.maximum(0.0, 1.0 - real))
        + w1 * np.mean(np.maximum(0.0, 1.0 + fake_t))
        + w2 * np.mean(np.maximum(0.0, 1.0 + fake_m))
    )
    g = -(w1 * np.mean(fake_t) + w2 * np.mean(fake_m))
    return float(d), float(g)


def check_loss(report: dict, x, cycled, scores) -> list[str]:
    """The loss JSON matches the cyclic term, the hinge terms and the total."""
    vsa = float(np.mean(1.0 - row_cosines(x, cycled)))
    d, g = hinge_terms(*scores)
    want = {"vsa": vsa, "gan_d": d, "gan_g": g, "total": g + LOSS_LAMBDA * vsa}
    errs = []
    for key, value in want.items():
        got = report.get(key)
        if not isinstance(got, (int, float)) or not math.isclose(got, value, rel_tol=1e-9, abs_tol=1e-12):
            errs.append(f"loss {key}={got!r}, reference {value!r}")
    return errs


def format_value(value) -> str:
    return str(value) if not isinstance(value, float) else f"{value:g}"


def check_sweep_rows(csv_text: str, axis: str, grid, base: dict) -> list[list[str]]:
    """One error list per grid point of a sweep CSV, checked against its labels.

    ``base`` holds dim, k, objects, mapping, trials and seed of the sweep.
    Ground-truth rows must recover 1/sqrt(k) (exactly 1 at k=1) and, at
    small k, clean up every query; random mappings must leave cleanup
    accuracy at chance, 1/objects.
    """
    lines = csv_text.split("\n")
    if lines[0] != CSV_HEADER or lines[-1] != "":
        return [["bad CSV header or line ending"]] * len(grid)
    rows = [line.split(",") for line in lines[1:-1]]
    if len(rows) != len(grid):
        return [[f"{len(rows)} rows for {len(grid)} grid points"]] * len(grid)
    out = []
    for value, row in zip(grid, rows):
        k = int(value) if axis == "k" else base["k"]
        mapping = str(value) if axis == "mapping_kind" else base["mapping"]
        labels = [axis, format_value(value), str(base["dim"]), str(k), mapping,
                  str(base["trials"]), None, None, None, str(base["seed"])]
        errs = [f"field {i} is {got!r}, expected {want!r}"
                for i, (got, want) in enumerate(zip(row, labels)) if want is not None and got != want]
        if len(row) != len(labels):
            errs.append(f"{len(row)} fields")
        if errs:
            out.append(errs)
            continue
        cosine, accuracy, flip = (float(x) for x in row[6:9])
        if abs(accuracy + flip - 1.0) > 2 * CSV_ROUNDING:
            errs.append(f"flip_rate {flip} != 1 - accuracy {accuracy}")
        sem = 1.0 / math.sqrt(base["dim"] * base["trials"])
        if mapping == "ground_truth":
            if k == 1 and row[6] != "1.000000":
                errs.append(f"recovery {row[6]} at k=1, expected exactly 1")
            if abs(cosine - 1.0 / math.sqrt(k)) > RECOVERY_SIGMAS * sem + CSV_ROUNDING:
                errs.append(f"recovery {cosine} vs 1/sqrt({k}) beyond {RECOVERY_SIGMAS:g} SEM ({sem:.4g})")
            if base["dim"] / (4 * k * k) >= EXACT_CLEANUP_EXPONENT and row[7] != "1.000000":
                errs.append(f"cleanup accuracy {row[7]} at k={k}, dim={base['dim']}, expected exactly 1")
        elif mapping == "random":
            if abs(cosine) > RECOVERY_SIGMAS * sem + CSV_ROUNDING:
                errs.append(f"random-mapping recovery {cosine} beyond {RECOVERY_SIGMAS:g} SEM of 0")
            chance = 1.0 / base["objects"]
            attempts = k * base["trials"]
            bound = CHANCE_SIGMAS * math.sqrt(chance * (1.0 - chance) / attempts)
            if abs(accuracy - chance) > bound + CSV_ROUNDING:
                errs.append(f"random-mapping accuracy {accuracy} vs chance {chance:.4f} beyond {bound:.4f}")
        out.append(errs)
    return out


def cleanup_hits(csv_text: str) -> tuple[float, int]:
    """(correct, attempted) cleanup queries summed over a sweep CSV's rows."""
    correct = attempts = 0
    for line in csv_text.split("\n")[1:-1]:
        row = line.split(",")
        n = int(row[3]) * int(row[5])
        correct += float(row[7]) * n
        attempts += n
    return correct, attempts


def load_json(text: str) -> dict:
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise ValueError("expected a JSON object")
    return obj
