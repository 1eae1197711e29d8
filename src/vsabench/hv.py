"""Dense hypervectors, the MAP operators, the bipolar sampler and the sign quantizer.

A hypervector is a float64 array of shape ``(dim,)``, and a stack of them
(one per patch, say) has shape ``(count, dim)``. ``bind`` and
``cosine_similarity`` work row by row on equal-shape stacks; ``bundle`` sums
a stack. Sampled vectors are bipolar ({-1, +1}); a bundle is their raw sum
and may leave [-1, 1], which is fine for every cosine-based consumer downstream.
"""

from __future__ import annotations

import contextlib

import numpy as np

from .errors import DegenerateInputError, InvalidArgumentError

MAX_SEED = 2**64 - 1

QUANTIZE_MODES = ("none", "sign")

# Entries drawn per generator call by fill_bipolar, which bounds its
# temporaries to about 1 MB whatever the array's shape.
_FILL_ENTRIES = 1 << 18


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


def as_hypervector(v) -> np.ndarray:
    """Coerce to a 1-D float64 array, rejecting empty or non-finite input."""
    arr = as_hypervectors(v)
    if arr.ndim != 1:
        raise InvalidArgumentError(f"hypervector must be 1-D and nonempty, got shape {arr.shape}")
    return arr


def fill_bipolar(out: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Fill a C-contiguous float64 array with independent, equally likely +-1 entries; returns it.

    Each entry is the top bit of one 32-bit draw, so the entries, and the
    generator's state afterwards, are exactly those of one
    ``rng.integers(0, 2, size=out.shape)`` draw mapped to +-1, for any bit
    generator. That draw runs Lemire's method on one ``next_uint32`` per
    entry: a range of 2 never rejects and returns the draw's top bit. An odd
    total leaves half of a 64-bit output buffered in the bit generator,
    which the next draw uses, as it would after ``integers``. Blocks of
    ``_FILL_ENTRIES`` keep the temporaries small.
    """
    flat = out.reshape(-1)
    for s in range(0, flat.size, _FILL_ENTRIES):
        block = flat[s : s + _FILL_ENTRIES]
        bits = rng.integers(0, 2**32, size=block.size, dtype=np.uint32)
        np.multiply(np.less(bits.view(np.int32), 0), 2.0, out=block)
        block -= 1.0
    return out


def random_hypervector(dim: int, seed: int) -> np.ndarray:
    """Sample a bipolar hypervector (each entry -1 or +1, equally likely), deterministic in (dim, seed)."""
    return sample_hypervector(dim, np.random.default_rng(check_seed(seed)))


def sample_hypervector(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Draw one bipolar hypervector from an existing generator (stream-level determinism)."""
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


def is_extreme(norms2: np.ndarray) -> np.ndarray:
    """True where a squared norm lies outside [2^-500, 2^500], so that it has lost
    precision to underflow (perhaps to 0) or is near overflow (perhaps inf)."""
    return ~((2.0**-500 <= norms2) & (norms2 <= 2.0**500))


def scale_rows(rows: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """A copy of ``rows`` with each row at ``idx`` scaled by the power of two that puts
    its largest magnitude in [0.5, 1). The scaling is exact, so it changes no
    cosine and no unit vector; a zero row stays zero."""
    rows = rows.copy()
    rows[idx] = np.ldexp(rows[idx], -np.frexp(np.max(np.abs(rows[idx]), axis=1, keepdims=True))[1])
    return rows


def row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The dot product of each row of ``a`` with the same row of ``b``."""
    # Stacked matmul sums each row as np.dot does, bit for bit; einsum and
    # np.sum(a * b, axis=1) sum in another order.
    return np.matmul(a[:, np.newaxis, :], b[:, :, np.newaxis])[:, 0, 0]


def cosine_similarity(a, b):
    """dot(a, b) / (|a| |b|) of two vectors (a float) or of two stacks, row by row;
    raises naming the zero-norm rows rather than returning 0."""
    av, bv = _same_shape(a, b)
    a2, b2 = np.atleast_2d(av), np.atleast_2d(bv)
    with np.errstate(over="ignore"):
        na2, nb2 = row_dots(a2, a2), row_dots(b2, b2)
    extreme = np.flatnonzero(is_extreme(na2) | is_extreme(nb2))
    if extreme.size:
        a2, b2 = scale_rows(a2, extreme), scale_rows(b2, extreme)
        na2[extreme], nb2[extreme] = row_dots(a2[extreme], a2[extreme]), row_dots(b2[extreme], b2[extreme])
    zero = np.flatnonzero((na2 == 0.0) | (nb2 == 0.0))
    if zero.size:
        raise DegenerateInputError(f"cosine similarity undefined for a zero-norm vector (rows {zero.tolist()})")
    # sqrt of the product keeps cos(v, v) == 1.0 exact (perfect-square argument)
    cos = row_dots(a2, b2) / np.sqrt(na2 * nb2)
    return float(cos[0]) if av.ndim == 1 else cos


def cosine_distance(a, b):
    """1 - cosine_similarity(a, b), in [0, 2]; a float for vectors, one per row for stacks."""
    return 1.0 - cosine_similarity(a, b)
