"""Locality sensitive hashing: project feature vectors into the hyperspace.

A projector is the value ``(m, n, seed)``. It stands for an n x m matrix
whose rows are standard-normal samples normalized to unit length, but that
matrix never exists: ``LshProjector.panels`` draws it from one
``default_rng(seed)`` in panels of ``_NORM_ROWS`` rows, in order, and
normalizes each panel in place. A generator fills values in stream order,
so the panels are bit for bit the rows of one ``standard_normal((n, m))``
draw. Projection uses each panel once and drops it, so it holds one panel
and the two panel-sized temporaries of its norm, not the matrix (201 MB at
m = 6144, n = 4096). A panel has ``_NORM_ROWS`` rows (12.6 MB at m = 6144),
but the last one takes the remainder and can have up to
``2 * _NORM_ROWS - 1`` rows (25.1 MB at m = 6144).

Cost model: building a projector is free, and every ``project`` or
``project_batch`` call draws the whole projector again. Pass whole batches
to ``project_batch``; a loop of ``project`` calls pays one draw per row.

Features are normalized to unit length before projection, so every output
entry is a dot product of two unit vectors and lands in [-1, 1].
``project`` and ``project_batch`` share one kernel: the unit features are
multiplied by each ``panel.T`` in zero-padded blocks of exactly
``BLOCK_ROWS`` rows, so every BLAS call has a ``(BLOCK_ROWS, m) @ (m, k)``
shape, with k the panel height. A projected row therefore does not depend
on the size of its batch or on its position in it; a single GEMM over the
whole batch, or larger blocks, gave rows that did (OpenBLAS, 2 threads).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, InvalidArgumentError
from .hv import check_seed, is_extreme, quantized, scale_rows
from .vsaf import MAX_ELEMENTS

BLOCK_ROWS = 8  # feature rows per GEMM call
_NORM_ROWS = 256  # projector rows per panel


@dataclass(frozen=True)
class LshProjector:
    """A seeded random projection from R^m to R^n, deterministic in (m, n, seed),
    of at most ``vsaf.MAX_ELEMENTS`` entries, the bound on one VSAF layer."""

    m: int
    n: int
    seed: int

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise InvalidArgumentError(f"m and n must be >= 1, got m={self.m}, n={self.n}")
        if self.m * self.n > MAX_ELEMENTS:
            raise InvalidArgumentError(
                f"projector of m={self.m} by n={self.n} has {self.m * self.n} elements (cap {MAX_ELEMENTS})"
            )
        check_seed(self.seed)

    def panels(self) -> Iterator[np.ndarray]:
        """The projector's rows in order, as fresh (k, m) arrays of unit-norm
        standard-normal rows: k is ``_NORM_ROWS``, and the last panel takes the
        remainder too, so it has up to ``2 * _NORM_ROWS - 1`` rows (all n if
        n is smaller). OpenBLAS sums a GEMM narrower than about 150 columns in
        another order than the same columns of a wide one, so a narrow tail
        panel would change the projection's last bits. That threshold, and so
        the bit-identity of the projection with a full-matrix GEMM, was
        observed with numpy 2.4.6 and OpenBLAS 0.3.31 on an AVX-512 x86-64
        host, the build ``tests/test_golden.py`` pins; another BLAS kernel
        can round either way differently."""
        rng = np.random.default_rng(self.seed)
        start = 0
        while start < self.n:
            rows = self.n - start if self.n - start < 2 * _NORM_ROWS else _NORM_ROWS
            panel = rng.standard_normal(size=(rows, self.m))
            panel /= np.linalg.norm(panel, axis=1, keepdims=True)
            yield panel
            start += rows


def new_projector(m: int, n: int, seed: int) -> LshProjector:
    """A projector with unit-norm standard-normal rows; nothing is drawn until it is used."""
    return LshProjector(m=m, n=n, seed=seed)


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
    col = 0
    for panel in p.panels() if count else ():
        cols, panel_t = out[:, col : col + len(panel)], panel.T
        for start in range(0, padded, BLOCK_ROWS):
            np.matmul(unit[start : start + BLOCK_ROWS], panel_t, out=cols[start : start + BLOCK_ROWS])
        col += len(panel)
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
