"""Locality sensitive hashing: project feature vectors into the hyperspace.

A projector is the value ``(m, n, seed)``. It stands for an n x m matrix
whose rows are standard-normal samples normalized to unit length, but that
matrix never exists: ``LshProjector.panels`` draws it from one
``default_rng(seed)`` in panels of ``_NORM_ROWS`` rows, in order, and
normalizes each panel in place. A generator fills values in stream order,
so the panels are bit for bit the rows of one ``standard_normal((n, m))``
draw. Projection uses each panel once and drops it, so it holds one panel
and a 2 MB block of its norm's squares, not the matrix (201 MB at
m = 6144, n = 4096). A panel has ``_NORM_ROWS`` rows (12.6 MB at m = 6144),
but the last one takes the remainder and can have up to
``2 * _NORM_ROWS - 1`` rows (25.1 MB at m = 6144).

Cost model: building a projector is free, and every ``project`` or
``project_batch`` call draws the whole projector again. Pass whole batches
to ``project_batch``; a loop of ``project`` calls pays one draw per row.

Features are normalized to unit length before projection, so every output
entry is a dot product of two unit vectors and lands in [-1, 1]. Feature
norms come from ``hv.safe_norms2`` in ``hv.sum_products`` order, so a feature
whose squared norm underflows or overflows still projects as its unit vector.
``project`` and ``project_batch`` share one kernel. The unit features are
zero-padded to a multiple of ``BLOCK_ROWS`` rows, so no BLAS call sees one
or two rows, which OpenBLAS hands to GEMV or small-matrix code that sums in
another order. A full panel of ``_NORM_ROWS`` rows is then multiplied in
one ``(padded, m) @ (m, _NORM_ROWS)`` GEMM over the whole batch. The tail
panel (``_NORM_ROWS + 1`` to ``2 * _NORM_ROWS - 1`` rows, or all n when n
is smaller) is multiplied in blocks of exactly ``BLOCK_ROWS`` feature rows,
because at those widths a block of 64 rows or more, or the whole batch,
changed a row's last bits. Either way a projected row does not depend on
the size of its batch or on its position in it. That held for m from 1 to
6144 and batches of 1 to 2048 rows with numpy 2.4.6 and OpenBLAS 0.3.31 at
1 and 2 threads; ``TestBatchIndependence`` checks it, and CI runs that test
against the newest numpy as well.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, InvalidArgumentError
from .hv import as_int, check_seed, quantized, safe_norms2, sum_products
from .vsaf import MAX_ELEMENTS

BLOCK_ROWS = 8  # feature rows per tail-panel GEMM, and the batch padding unit
_NORM_ROWS = 256  # projector rows per panel


@dataclass(frozen=True)
class LshProjector:
    """A seeded random projection from R^m to R^n, deterministic in (m, n, seed),
    of at most ``vsaf.MAX_ELEMENTS`` entries, the bound on one VSAF layer."""

    m: int
    n: int
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "m", as_int(self.m, "an integer m"))
        object.__setattr__(self, "n", as_int(self.n, "an integer n"))
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
            panel /= np.sqrt(sum_products(panel, panel))[:, np.newaxis]
            yield panel
            start += rows


def new_projector(m: int, n: int, seed: int) -> LshProjector:
    """A projector with unit-norm standard-normal rows; nothing is drawn until it is used."""
    return LshProjector(m=m, n=n, seed=seed)


def _row_norms(features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row norms of a (count, m) array, and the rows they belong to: the rows
    ``hv.safe_norms2`` returns, a copy when a row had to be scaled. Raises
    naming the lowest non-finite or zero row.
    """
    features, norms2 = safe_norms2(features, sum_products)
    bad = np.flatnonzero(~np.isfinite(norms2) | (norms2 == 0.0))
    if bad.size and not np.isfinite(norms2[bad[0]]):
        raise InvalidArgumentError(f"patch {bad[0]}: feature entries must be finite")
    if bad.size:
        raise DegenerateInputError(f"patch {bad[0]}: cannot project a zero feature vector")
    return features, np.sqrt(norms2)


def _feature_matrix(p: LshProjector, fs) -> np.ndarray:
    """``fs``, a PatchFeatureSet or a (count, m) array-like, as a (count, m) float64 array."""
    try:
        features = np.asarray(getattr(fs, "vectors", fs), dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise InvalidArgumentError(f"features must be equal-length numeric vectors: {exc}") from exc
    if features.shape != (0,) and (features.ndim != 2 or features.shape[1] != p.m):
        raise InvalidArgumentError(f"features of shape {features.shape} are not (count, m={p.m})")
    return features.reshape(-1, p.m)


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
        if len(panel) == _NORM_ROWS:
            np.matmul(unit, panel_t, out=cols)
        else:
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
    return _project_rows(p, _feature_matrix(p, [f]), quantize)[0]


def project_batch(p: LshProjector, fs, quantize: str = "none") -> np.ndarray:
    """Project each feature vector, preserving order; returns a (count, n) float64 array.

    Accepts a PatchFeatureSet or a (count, m) array-like, such as a list of
    equal-length feature vectors; ragged or wrongly shaped input is rejected.
    A non-finite or zero feature is named by its patch index. Empty input
    (``[]`` or a (0, m) array) gives a (0, n) array.
    """
    return _project_rows(p, _feature_matrix(p, fs), quantize)
