"""Locality sensitive hashing: project feature vectors into the hyperspace.

A projector is the value ``(m, n, seed)``. It stands for the n x m matrix
S / sqrt(m), S of +-1 entries, which never exists: ``LshProjector.panels``
draws S from one ``default_rng(seed)`` by ``hv.fill_bipolar`` in float32
panels of ``_PANEL_ROWS`` rows, in order, bit for bit the rows of one fill of
the whole matrix, since every row starts on a fresh word. The last panel is
full height too; its rows past n are drawn and never used. Each row of S has
norm exactly sqrt(m), so there is no norm pass: the projection multiplies by
the +-1 panels and scales its (count, n) output once by ``1 / sqrt(m)``. It
uses each panel once and drops it, so it holds one panel, not the matrix
(6.3 MB against 101 MB at m = 6144, n = 4096).

+-1 rows keep the Johnson-Lindenstrauss guarantee (Achlioptas, 2003), and
the sign cosine of features at angle theta estimates 1 - 2 theta / pi
(Charikar, 2002) once m is moderate; ``tests/test_lsh.py`` gates that law
at m = 64 and 384. At small m it is biased: at m = 16 the sign cosine of
one feature pair fell 0.022 below it at theta = 2.5.

Building a projector is free, and every call draws it again, so pass whole
batches. Features are normalized to unit length in float64 first, with norms
from ``hv.safe_norms2`` in ``hv.sum_products`` order, so every output entry
is a dot product of two unit vectors in [-1, 1] at any finite feature
magnitude. They are rounded once to float32, and the float32 product is
widened before the scale, clipped to [-1, 1] and rounded once more to the
float32 that a VSAF file stores, a block of rows at a time, in place; the
result is float32. ``project_batch`` states its error bound, which
``TestFloat32Accuracy`` gates. ``project`` is a one-row ``project_batch``.
Unit features are zero-padded to a multiple of ``BLOCK_ROWS`` rows,
since OpenBLAS hands one or two rows to GEMV or small-matrix code that sums
in another order, and every panel is one ``(padded, m) @ (m, _PANEL_ROWS)``
SGEMM over the whole batch. So a projected row does not depend on the size
of its batch or its position in it (narrower panels broke that). It held
with numpy 2.4.6 and OpenBLAS 0.3.31 at 1 and 2 threads; CI runs
``TestBatchIndependence``, which checks it, against the newest numpy too.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .hv import (as_count, as_float64, block_rows, check_rows, check_seed, fill_bipolar, quantized, safe_norms2,
                 sum_products)
from .vsaf import MAX_ELEMENTS

BLOCK_ROWS = 8  # the batch is zero-padded to a multiple of this many rows
_PANEL_ROWS = 256  # projector rows per panel, and columns per SGEMM


@dataclass(frozen=True)
class LshProjector:
    """A seeded random projection from R^m to R^n by the matrix S / sqrt(m), S
    a +-1 matrix; deterministic in (m, n, seed), of at most
    ``vsaf.MAX_ELEMENTS`` entries, the bound on one VSAF layer."""

    m: int
    n: int
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "m", as_count(self.m, "m"))
        object.__setattr__(self, "n", as_count(self.n, "n"))
        if self.m * self.n > MAX_ELEMENTS:
            raise InvalidArgumentError(
                f"projector of m={self.m} by n={self.n} has {self.m * self.n} elements (cap {MAX_ELEMENTS})"
            )
        check_seed(self.seed)

    def panels(self) -> Iterator[np.ndarray]:
        """The rows of S in order, as fresh float32 (``_PANEL_ROWS``, m) +-1 arrays
        from ``hv.fill_bipolar``, unscaled; the last panel's rows past n continue
        the same stream and are not part of S."""
        rng = np.random.default_rng(self.seed)
        for _ in range(-(-self.n // _PANEL_ROWS)):
            yield fill_bipolar(np.empty((_PANEL_ROWS, self.m), dtype=np.float32), rng)


def new_projector(m: int, n: int, seed: int) -> LshProjector:
    """A projector by the matrix S / sqrt(m), S of +-1 rows; nothing is drawn until it is used."""
    return LshProjector(m=m, n=n, seed=seed)


def project(p: LshProjector, f, quantize: str = "none") -> np.ndarray:
    """Project one feature vector into [-1, 1]^n, bitwise its row of ``project_batch``.

    The feature is normalized to unit length first, so the projection is
    invariant to positive rescaling of the input. ``sign`` quantization maps
    entries to {-1, +1} with sign(0) -> +1, which restores exact unbinding at
    the cost of similarity fidelity.
    """
    return project_batch(p, [f], quantize)[0]


def project_batch(p: LshProjector, fs, quantize: str = "none") -> np.ndarray:
    """Project each feature vector, preserving order; returns a C-contiguous (count, n) float32 array.

    Each panel is one float32 SGEMM of exact +-1 products, so an entry lies
    within (gamma_m sum |u~_i| + sum |u_i - u~_i|) / sqrt(m) of the float64
    product, plus the float64 rounding of the scale and the final rounding to
    float32; u is the float64 unit feature, u~ its float32 rounding, gamma_m =
    m 2^-24 / (1 - m 2^-24) (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2nd ed., 3.1). A ``sign`` entry, taken before that final
    rounding, can differ from the float64 sign only within that bound of 0.

    Accepts a PatchFeatureSet or a (count, m) array-like, such as a list of
    equal-length feature vectors; ragged or wrongly shaped input is rejected.
    ``hv.check_rows`` names the non-finite, then the zero features by row.
    Empty input (``[]`` or a (0, m) array) gives a (0, n) array.
    """
    features = as_float64(getattr(fs, "vectors", fs), "features must be equal-length numeric vectors")
    if features.shape != (0,) and (features.ndim != 2 or features.shape[1] != p.m):
        raise InvalidArgumentError(f"features of shape {features.shape} are not (count, m={p.m})")
    features, norms2 = safe_norms2(features.reshape(-1, p.m), sum_products)  # a scaled row is a copy
    check_rows(norms2[:, np.newaxis], "cannot project a zero feature vector", "feature entries")
    count = features.shape[0]
    padded = -(-count // BLOCK_ROWS) * BLOCK_ROWS
    unit = np.zeros((padded, p.m), dtype=np.float32)
    np.divide(features, np.sqrt(norms2)[:, np.newaxis], out=unit[:count])  # float64 quotients, rounded once
    out = np.empty((padded, -(-p.n // _PANEL_ROWS) * _PANEL_ROWS), dtype=np.float32)
    panels = p.panels()
    for col in range(0, out.shape[1] if count else 0, _PANEL_ROWS):
        np.matmul(unit, next(panels).T, out=out[:, col : col + _PANEL_ROWS])  # one panel alive at a time
    hvs, step = out[:count, : p.n], block_rows(p.n)
    # an empty batch runs one empty block, which still checks quantize
    for r in range(0, count or 1, step):
        block = np.multiply(hvs[r : r + step], 1.0 / np.sqrt(p.m), dtype=np.float64)  # widened, then scaled
        np.clip(block, -1.0, 1.0, out=block)  # unit rows of S / sqrt(m) times unit features; clamp round-off
        hvs[r : r + step] = quantized(block, quantize)  # rounded once to float32, in place
        del block  # so that the next block is not allocated beside this one
    return np.ascontiguousarray(hvs)  # a copy only when n is not a multiple of _PANEL_ROWS
