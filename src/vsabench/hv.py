"""Dense hypervectors, the MAP operators, the bipolar sampler and the sign quantizer.

A hypervector is a float64 array of shape ``(dim,)``, and a stack of them
(one per patch, say) has shape ``(count, dim)``. ``bind`` and
``cosine_similarity`` work row by row on equal-shape stacks; ``bundle`` sums
a stack. Sampled vectors are bipolar ({-1, +1}); a bundle is their raw sum
and may leave [-1, 1], which is fine for every cosine-based consumer downstream.

The bipolar sampler spends one random bit per entry. A row of ``dim``
entries takes the next ``ceil(dim / 32)`` words of one uint32 stream, and
entry c is bit ``c % 32`` (least significant first) of word ``c // 32``:
1 gives +1, 0 gives -1. Every row starts on a fresh word, so up to 31 bits
per row are drawn and never used, and filling a stack equals drawing its
rows one at a time.

``hv`` is also the one home of the magnitude policy: the cosine here, the
cleanup memory, the LSH encoder's unit features and per-layer normalization
all take their row norms from ``safe_norms2``.
"""

from __future__ import annotations

import contextlib
from typing import Callable

import numpy as np

from .errors import DegenerateInputError, InvalidArgumentError

MAX_SEED = 2**64 - 1

QUANTIZE_MODES = ("none", "sign")

# Entries per row block in fill_bipolar and sum_products, which bounds their
# temporaries (one byte and one bit per entry, or one float64) to about 300 KB
# and 2 MB whatever the array's shape; a row longer than this is one block of its own.
_BLOCK_ENTRIES = 1 << 18


def check_seed(seed: int) -> int:
    """Validate a 64-bit unsigned seed and return it."""
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
        raise InvalidArgumentError(f"seed must be an integer, got {type(seed).__name__}")
    if not 0 <= seed <= MAX_SEED:
        raise InvalidArgumentError(f"seed must be in [0, 2^64), got {seed}")
    return int(seed)


def as_int(value, noun: str = "an integer") -> int:
    """An int, integral float or decimal string as int; anything else, booleans
    and fractions included, is rejected rather than truncated."""
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        return int(value)
    if isinstance(value, (int, np.integer, str)) and not isinstance(value, bool):
        with contextlib.suppress(ValueError):
            return int(value)
    raise InvalidArgumentError(f"must be {noun}, got {value!r}")


def as_float(value, noun: str = "a finite number") -> float:
    """``value`` as a finite float; booleans, non-numbers, NaN and infinities are rejected."""
    with contextlib.suppress(TypeError, ValueError, OverflowError):
        if not isinstance(value, bool) and np.isfinite(number := float(value)):
            return number
    raise InvalidArgumentError(f"must be {noun}, got {value!r}")


def as_hypervectors(v) -> np.ndarray:
    """Coerce a hypervector or a stack of equal-length ones to float64 (no copy if it
    already is), rejecting empty, ragged or non-finite input; a stack's
    non-finite rows are named."""
    try:
        arr = np.asarray(v, dtype=np.float64)
    except ValueError as exc:
        raise InvalidArgumentError(f"hypervectors must be equal-length numeric vectors: {exc}") from exc
    if arr.ndim < 1 or arr.size < 1:
        raise InvalidArgumentError(f"hypervectors must be nonempty, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        rows = f" (rows {np.flatnonzero(~np.isfinite(arr).all(axis=1)).tolist()})" if arr.ndim == 2 else ""
        raise InvalidArgumentError(f"hypervector entries must be finite{rows}")
    return arr


def fill_bipolar(out: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Fill a C-contiguous float64 array with independent, equally likely +-1 entries; returns it.

    ``out`` is read as ``(rows, dim)`` (a 1-D array is one row). Row r takes
    the next ``ceil(dim / 32)`` words of one
    ``rng.integers(0, 2**32, dtype=np.uint32)`` stream, in row order, and
    entry c is +1 where bit ``c % 32`` of word ``c // 32`` is set and -1
    where it is clear; the last word's bits beyond ``dim`` are drawn and
    never used (up to 31 a row). So filling a matrix equals one
    ``sample_hypervector`` per row, and the generator ends where one
    ``integers(0, 2**32, size=rows * ceil(dim / 32), dtype=np.uint32)`` draw
    would leave it, for any bit generator. Rows are drawn in blocks of about
    ``_BLOCK_ENTRIES`` entries, which keeps the temporaries small.
    """
    rows = out.reshape(-1, out.shape[-1])
    dim = rows.shape[1]
    step = max(1, _BLOCK_ENTRIES // max(dim, 1))
    for r in range(0, rows.shape[0], step):
        block = rows[r : r + step]
        words = rng.integers(0, 2**32, size=(block.shape[0], -(-dim // 32)), dtype=np.uint32)
        signs = np.unpackbits(words.astype("<u4", copy=False).view(np.uint8), axis=1, count=dim, bitorder="little")
        signs = signs.view(np.int8)  # bit b -> 2b - 1 in int8, then one widening copy
        signs *= 2
        signs -= 1
        block[...] = signs
    return out


def random_hypervector(dim: int, seed: int) -> np.ndarray:
    """Sample a bipolar hypervector (each entry -1 or +1, equally likely), deterministic in (dim, seed)."""
    return sample_hypervector(dim, np.random.default_rng(check_seed(seed)))


def sample_hypervector(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Draw one bipolar hypervector from an existing generator (stream-level determinism)."""
    dim = as_int(dim, "an integer dim")
    if dim < 1:
        raise InvalidArgumentError(f"dim must be >= 1, got {dim}")
    return fill_bipolar(np.empty(dim), rng)


def quantized(v: np.ndarray, mode: str) -> np.ndarray:
    """``v`` itself for ``none``; for ``sign``, each entry as +1 or -1, with sign(0) -> +1."""
    if mode not in QUANTIZE_MODES:
        raise InvalidArgumentError(f"quantize must be one of {QUANTIZE_MODES}, got {mode!r}")
    if mode == "sign":
        return np.where(v >= 0.0, 1.0, -1.0)
    return v


def _same_shape(a, b) -> tuple[np.ndarray, np.ndarray]:
    av, bv = as_hypervectors(a), as_hypervectors(b)
    if av.ndim > 2:
        raise InvalidArgumentError(f"expected (dim,) or (count, dim) arrays, got shape {av.shape}")
    if av.shape != bv.shape:
        raise InvalidArgumentError(f"dimension mismatch: {av.shape} vs {bv.shape}")
    return av, bv


def bind(a, b) -> np.ndarray:
    """Elementwise product of two vectors or equal-shape stacks; commutative, self-inverse on bipolar vectors."""
    av, bv = _same_shape(a, b)
    return av * bv


def bundle(vs) -> np.ndarray:
    """Superpose a nonempty (count, dim) stack, or list, of equal-dim hypervectors:
    their elementwise sum, which commutes over list order."""
    stack = as_hypervectors(vs)
    if stack.ndim != 2:
        raise InvalidArgumentError(f"bundle requires a nonempty list of hypervectors, got shape {stack.shape}")
    return np.sum(stack, axis=0)


def row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The dot product of each row of ``a`` with the same row of ``b``."""
    # Stacked matmul sums each row as np.dot does, bit for bit; einsum and
    # np.sum(a * b, axis=1) sum in another order.
    return np.matmul(a[:, np.newaxis, :], b[:, :, np.newaxis])[:, 0, 0]


def sum_products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.sum(a * b, axis=1)``, computed in row blocks to bound the temporary;
    for ``b is a`` its square root is bit for bit ``np.linalg.norm(a, axis=1)``."""
    step = max(1, _BLOCK_ENTRIES // max(a.shape[1], 1))
    out = np.empty(a.shape[0])
    for r in range(0, a.shape[0], step):
        out[r : r + step] = np.sum(a[r : r + step] * b[r : r + step], axis=1)
    return out


def safe_norms2(rows: np.ndarray, dots: Callable[[np.ndarray, np.ndarray], np.ndarray]):
    """A ``(count, dim)`` array's rows and squared norms ``dots(rows, rows)``, ``dots``
    being ``row_dots`` (np.dot order) or ``sum_products``. A row whose squared norm
    lies outside [2^-500, 2^500] (underflowed, or near overflow) is first scaled,
    in a copy, by the power of two that puts its largest magnitude in [0.5, 1),
    which changes no cosine and no unit vector. Zero and non-finite rows come
    back unscaled, and ``rows`` itself comes back when no row is scaled."""
    with np.errstate(over="ignore"):
        norms2 = dots(rows, rows)
    idx = np.flatnonzero(~((2.0**-500 <= norms2) & (norms2 <= 2.0**500)))
    if idx.size:
        peak = np.max(np.abs(rows[idx]), axis=1, initial=0.0)
        scalable = np.isfinite(peak) & (peak > 0.0)
        idx, peak = idx[scalable], peak[scalable]
    if idx.size:
        rows = rows.copy()
        rows[idx] = np.ldexp(rows[idx], -np.frexp(peak)[1][:, np.newaxis])
        norms2[idx] = dots(rows[idx], rows[idx])
    return rows, norms2


def cosine_similarity(a, b):
    """dot(a, b) / (|a| |b|) of two vectors (a float) or of two stacks, row by row;
    raises naming the zero-norm rows rather than returning 0."""
    av, bv = _same_shape(a, b)
    (a2, na2), (b2, nb2) = safe_norms2(np.atleast_2d(av), row_dots), safe_norms2(np.atleast_2d(bv), row_dots)
    zero = np.flatnonzero((na2 == 0.0) | (nb2 == 0.0))
    if zero.size:
        raise DegenerateInputError(f"cosine similarity undefined for a zero-norm vector (rows {zero.tolist()})")
    # sqrt of the product keeps cos(v, v) == 1.0 exact (perfect-square argument)
    cos = row_dots(a2, b2) / np.sqrt(na2 * nb2)
    return float(cos[0]) if av.ndim == 1 else cos
