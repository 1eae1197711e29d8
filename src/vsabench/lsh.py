"""Locality sensitive hashing: project feature vectors into the hyperspace.

A projector is a seeded n x m matrix whose rows are standard-normal samples
normalized to unit length. The rows are drawn in one ``standard_normal``
call and normalized in place, ``_NORM_ROWS`` rows at a time, so no second
full-size temporary exists while the projector is built.

Features are normalized to unit length before projection, so every output
entry is a dot product of two unit vectors and lands in [-1, 1].
``project`` and ``project_batch`` share one kernel: the unit features are
multiplied by ``rows.T`` in zero-padded blocks of exactly ``BLOCK_ROWS``
rows, so every BLAS call has the same ``(BLOCK_ROWS, m) @ (m, n)`` shape.
A projected row therefore does not depend on the size of its batch or on
its position in it; a single GEMM over the whole batch, or larger blocks,
gave rows that did (OpenBLAS, 2 threads).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateInputError, InvalidArgumentError
from .hv import check_seed, is_extreme, quantized, scale_rows
from .vsaf import MAX_ELEMENTS

BLOCK_ROWS = 8  # feature rows per GEMM call
_NORM_ROWS = 256  # projector rows normalized per step


@dataclass(frozen=True)
class LshProjector:
    """Immutable random projection matrix; ``rows`` has shape (n, m)."""

    rows: np.ndarray = field(repr=False)
    seed: int

    @property
    def m(self) -> int:
        return self.rows.shape[1]

    @property
    def n(self) -> int:
        return self.rows.shape[0]


def new_projector(m: int, n: int, seed: int) -> LshProjector:
    """Build a projector with unit-norm standard-normal rows, deterministic in (m, n, seed),
    of at most ``vsaf.MAX_ELEMENTS`` entries, the bound on one VSAF layer."""
    if m < 1 or n < 1:
        raise InvalidArgumentError(f"m and n must be >= 1, got m={m}, n={n}")
    if m * n > MAX_ELEMENTS:
        raise InvalidArgumentError(f"projector of m={m} by n={n} has {m * n} elements (cap {MAX_ELEMENTS})")
    rng = np.random.default_rng(check_seed(seed))
    rows = rng.standard_normal(size=(n, m))
    for start in range(0, n, _NORM_ROWS):
        block = rows[start : start + _NORM_ROWS]
        block /= np.linalg.norm(block, axis=1, keepdims=True)
    rows.setflags(write=False)
    return LshProjector(rows=rows, seed=int(seed))


def _row_norms(features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row norms of a (count, m) array, and the rows they belong to.

    A row whose squared norm underflows or overflows is first scaled by a
    power of two, as ``hv.cosine_similarity`` scales it; the rows are then a
    copy. Raises naming the lowest non-finite or zero row.
    """
    non_finite = ~np.isfinite(features).all(axis=1)
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(features, axis=1)
        extreme = np.flatnonzero(is_extreme(norms * norms) & ~non_finite)
    if extreme.size:
        features = scale_rows(features, extreme)
        norms[extreme] = np.linalg.norm(features[extreme], axis=1)
    bad = np.flatnonzero(non_finite | (norms == 0.0))
    if bad.size:
        i = bad[0]
        if non_finite[i]:
            raise InvalidArgumentError(f"patch {i}: feature entries must be finite")
        raise DegenerateInputError(f"patch {i}: cannot project a zero feature vector")
    return features, norms


def _feature_matrix(p: LshProjector, fs) -> np.ndarray:
    """``fs`` as a (count, m) float64 array; a patch of the wrong length is named."""
    vectors = getattr(fs, "vectors", fs)
    if isinstance(vectors, np.ndarray) and vectors.ndim == 2 and vectors.shape[1] == p.m:
        return vectors.astype(np.float64, copy=False)
    rows = [np.asarray(f, dtype=np.float64) for f in vectors]
    for i, f in enumerate(rows):
        if f.shape != (p.m,):
            if i:
                _row_norms(np.stack(rows[:i]))  # a bad patch before this one is reported first
            raise InvalidArgumentError(
                f"patch {i}: feature length {f.shape} does not match projector m={p.m}"
            )
    return np.stack(rows) if rows else np.empty((0, p.m))


def _project_rows(p: LshProjector, features: np.ndarray, quantize: str) -> np.ndarray:
    """Project the rows of a (count, m) float64 array, each scaled to unit length; (count, n)."""
    count = features.shape[0]
    features, norms = _row_norms(features)
    padded = -(-count // BLOCK_ROWS) * BLOCK_ROWS
    unit = np.zeros((padded, p.m))
    np.divide(features, norms[:, np.newaxis], out=unit[:count])
    out = np.empty((padded, p.n))
    rows_t = p.rows.T
    for start in range(0, padded, BLOCK_ROWS):
        np.matmul(unit[start : start + BLOCK_ROWS], rows_t, out=out[start : start + BLOCK_ROWS])
    out = out[:count]
    # rows and input are unit vectors; clamp float round-off at the boundary
    np.clip(out, -1.0, 1.0, out=out)
    return quantized(out, quantize)


def project(p: LshProjector, f, quantize: str = "none") -> np.ndarray:
    """Project one feature vector into [-1, 1]^n.

    The feature is normalized to unit length first, so the projection is
    invariant to positive rescaling of the input. ``sign`` quantization maps
    entries to {-1, +1} with sign(0) -> +1, which restores exact unbinding at
    the cost of similarity fidelity. The result is bitwise equal to the
    feature's row of ``project_batch``.
    """
    fv = np.asarray(f, dtype=np.float64)
    if fv.shape != (p.m,):
        raise InvalidArgumentError(f"feature length {fv.shape} does not match projector m={p.m}")
    return _project_rows(p, fv[np.newaxis, :], quantize)[0]


def project_batch(p: LshProjector, fs, quantize: str = "none") -> np.ndarray:
    """Project each feature vector, preserving order; returns a (count, n) float64 array.

    Accepts a PatchFeatureSet, a (count, m) array or any iterable of feature
    vectors. Failures name the offending patch index. Empty input gives a
    (0, n) array.
    """
    return _project_rows(p, _feature_matrix(p, fs), quantize)
