"""Dense hypervectors, the MAP operators, the bipolar sampler and the sign quantizer.

A hypervector is a float64 or float32 array of shape ``(dim,)``, and a stack
of them (one per patch, say) has shape ``(count, dim)``. Every stack enters
through one gate, ``as_hypervectors``, which rejects empty input and any rank
its caller does not take. A float32 array is not copied. Other input becomes
float64 under the one number rule, ``as_float64``, which also reads LSH
features and score batches and rejects text, bytes and complex entries rather
than parse or truncate them. Scalars have one rule each: ``as_int`` for an
integer, ``as_count`` for a count (an integer >= 1: a dim, a k, a patch
side), ``as_float`` for a finite number and ``as_tuple`` for a sequence.

``bind`` of two float32 arrays is float32. The float64 product of two float32
values is exact, so the float32 product is its float32 rounding (Higham,
*Accuracy and Stability of Numerical Algorithms*, 2nd ed., ch. 2), and a VSAF
file written from either holds the same bytes; a float32 product past the
float32 range is taken in float64 instead. ``quantized`` gives +-1 in its input's
dtype; every other result is float64, with float32 input widened inside the
arithmetic (by the cosine, one row block of ``_BLOCK_ENTRIES`` entries at a
time), which gives the bits of widening it first.
``bind`` and ``cosine_similarity`` work row by row on equal-shape
stacks; ``bundle`` sums a stack. Sampled vectors are bipolar ({-1, +1}); a
bundle is their raw sum and may leave [-1, 1], which is fine for every
cosine-based consumer downstream.

The bipolar sampler spends one random bit per entry. A row of ``dim``
entries takes the next ``ceil(dim / 32)`` words of one uint32 stream, and
entry c is bit ``c % 32`` (least significant first) of word ``c // 32``:
1 gives +1, 0 gives -1. Every row starts on a fresh word, so up to 31 bits
per row are drawn and never used, and filling a stack equals drawing its
rows one at a time. ``skip_bipolar`` moves a fresh PCG64 generator past the
words of a number of rows without drawing them, so a second generator on the
same seed can start a fill at any row of the stream.

``hv`` is also the one home of the magnitude policy: the cosine here, the
cleanup memory, the LSH encoder's unit features and per-layer normalization
all take their row norms from ``safe_norms2``, whose one range table holds the
squared norms a row keeps unscaled, chosen by the dtype its products are summed
in. It is the home of the finiteness policy too: ``check_rows`` checks each array in the first pass
that computes from it (``bind``'s product, ``bundle``'s sum, a norm) and is the only place that builds
a list of bad rows; ``as_float`` checks each single number; ``np.isfinite`` appears nowhere else.
Checks sit at the boundary: ``cosine_similarity`` checks what its kernel ``_cosines`` returns, and the
flip bench, whose gate is ``BenchConfig`` and whose +-1 arrays are finite by construction, calls ``_cosines``.
"""

from __future__ import annotations

import contextlib
from typing import Callable

import numpy as np

from .errors import DegenerateInputError, InvalidArgumentError

MAX_SEED = 2**64 - 1

QUANTIZE_MODES = ("none", "sign")

# Entries per row block in fill_bipolar, sum_products, cosine_similarity and the LSH
# projection's tail, which bounds their temporaries (one byte and one bit per entry,
# or one float64) to about 300 KB and 2 MB whatever the array's shape; a row longer
# than this is one block of its own.
_BLOCK_ENTRIES = 1 << 18


def block_rows(width: int) -> int:
    """The rows of one block of rows ``width`` entries long."""
    return max(1, _BLOCK_ENTRIES // max(width, 1))


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


def as_count(value, noun: str) -> int:
    """``value`` under the ``as_int`` rule as a positive int; the one count rule."""
    if (count := as_int(value, f"an integer {noun}")) < 1:
        raise InvalidArgumentError(f"{noun} must be >= 1, got {count}")
    return count


def as_float(value, noun: str = "a finite number") -> float:
    """``value`` as a finite float; booleans (numpy's too), non-numbers, NaN and infinities are rejected."""
    with contextlib.suppress(TypeError, ValueError, OverflowError):
        if not isinstance(value, (bool, np.bool_)) and np.isfinite(number := float(value)):
            return number
    raise InvalidArgumentError(f"must be {noun}, got {value!r}")


def as_tuple(values, noun: str = "a sequence") -> tuple:
    """``values`` as a tuple; a string, which would read as its characters, or a non-iterable is rejected."""
    if not isinstance(values, (str, bytes)):
        with contextlib.suppress(TypeError):
            return tuple(values)
    raise InvalidArgumentError(f"must be {noun}, got {values!r}")


# Entries that a float64 cast would parse (text) or truncate (complex) rather than reject.
_NOT_REAL = (str, bytes, complex, np.complexfloating)


def as_float64(v, error: str = "hypervectors must be equal-length numeric vectors") -> np.ndarray:
    """``v`` as a float64 array (no copy if it is one): the one number rule. Ragged input, and
    text, bytes or complex entries, which the cast would parse or truncate, raise ``error``;
    only an object array's entries are visited."""
    try:
        arr = np.asarray(v)
        kind = arr.dtype.kind
        if kind not in "biufO" or kind == "O" and any(isinstance(x, _NOT_REAL) for x in arr.flat):
            raise TypeError(f"entries must be real numbers, not text, bytes or complex (dtype {arr.dtype})")
        return arr.astype(np.float64, copy=False)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidArgumentError(f"{error}: {exc}") from exc


_SHAPES = {1: "(dim,) vector", 2: "(count, dim) stack"}


def as_hypervectors(v, ndim=(1, 2), noun: str = "hypervectors") -> np.ndarray:
    """The one stack gate: ``v`` itself if it is a native float32 array, else ``as_float64(v)``,
    rejecting empty input and any rank not in ``ndim``. A native float32 or float64 array is not
    copied, and no entry is checked for finiteness (see ``check_rows``)."""
    if isinstance(v, np.ndarray) and v.dtype == np.float32:
        arr = np.asarray(v)
    else:
        arr = as_float64(v, f"{noun} must be equal-length numeric vectors")
    if arr.size < 1 or arr.ndim not in ndim:
        shapes = " or ".join(_SHAPES[n] for n in ndim)
        raise InvalidArgumentError(f"{noun} must be a nonempty {shapes}, got shape {arr.shape}")
    return arr


@np.errstate(over="ignore", invalid="ignore")
def check_rows(values: np.ndarray, zero: str | None = None, noun: str = "hypervector entries"):
    """``values`` (a vector or stack of rows), else ``InvalidArgumentError`` naming its rows with a
    non-finite entry, then, given ``zero``, ``DegenerateInputError`` naming those with a 0: the first 8,
    then a count of the rest. A passing check is one sum, as a finite sum has no non-finite term. VSAF
    layers come as a row per pixel; scores, and squared norms from ``safe_norms2`` (LSH features, say), as a
    column: once it has scaled the extreme rows, only a non-finite entry leaves a squared norm non-finite."""
    if np.isfinite(values.sum()) and not (zero and (values == 0.0).any()):
        return values
    rows = np.atleast_2d(values)
    for error, message, bad in ((InvalidArgumentError, f"{noun} must be finite", ~np.isfinite(rows)),
                                (DegenerateInputError, zero, rows == 0.0)):
        index = np.flatnonzero(bad.any(axis=1))
        if message and index.size:
            more = f" and {index.size - 8} more" if index.size > 8 else ""
            raise error(f"{message} (rows {index[:8].tolist()}{more})")
    return values


def fill_bipolar(out: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Fill a C-contiguous float32 or float64 array with independent, equally likely +-1 entries; returns it.

    ``out`` is read as ``(rows, dim)`` (a 1-D array is one row). Row r takes
    the next ``ceil(dim / 32)`` words of one
    ``rng.integers(0, 2**32, dtype=np.uint32)`` stream, in row order, and
    entry c is +1 where bit ``c % 32`` of word ``c // 32`` is set and -1
    where it is clear; the last word's bits beyond ``dim`` are drawn and
    never used (up to 31 a row). So filling a matrix equals one
    ``sample_hypervector`` per row, and the generator ends where one
    ``integers(0, 2**32, size=rows * ceil(dim / 32), dtype=np.uint32)`` draw
    would leave it, for any bit generator. The dtype changes neither the
    entries nor the generator's state. Rows are drawn in blocks of about
    ``_BLOCK_ENTRIES`` entries, which keeps the temporaries small.
    """
    rows = out.reshape(-1, out.shape[-1])
    dim = rows.shape[1]
    step = block_rows(dim)
    for r in range(0, rows.shape[0], step):
        block = rows[r : r + step]
        words = rng.integers(0, 2**32, size=(block.shape[0], -(-dim // 32)), dtype=np.uint32)
        signs = np.unpackbits(words.astype("<u4", copy=False).view(np.uint8), axis=1, count=dim, bitorder="little")
        signs = signs.view(np.int8)  # bit b -> 2b - 1 in int8, then one widening copy
        signs *= 2
        signs -= 1
        block[...] = signs
    return out


def skip_bipolar(rng: np.random.Generator, rows: int, dim: int) -> np.random.Generator:
    """Move ``rng``, a fresh PCG64 generator, past the words a ``fill_bipolar`` of ``rows`` rows of ``dim``
    entries would draw, without drawing them; returns it, as that fill would leave it. ``PCG64.advance``
    skips whole 64-bit draws, two words each (low half first), and clears a buffered upper half, which a
    fresh generator does not hold; an odd word count takes its last word by a draw."""
    words = rows * -(-dim // 32)
    rng.bit_generator.advance(words // 2)
    if words % 2:
        rng.integers(0, 2**32, dtype=np.uint32)
    return rng


def sample_hypervector(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Draw one bipolar hypervector from an existing generator (stream-level determinism)."""
    return fill_bipolar(np.empty(as_count(dim, "dim")), rng)


def quantized(v: np.ndarray, mode: str) -> np.ndarray:
    """``v`` itself for ``none``; for ``sign``, each entry as +1 or -1 in ``v``'s dtype, with sign(0) -> +1."""
    if mode not in QUANTIZE_MODES:
        raise InvalidArgumentError(f"quantize must be one of {QUANTIZE_MODES}, got {mode!r}")
    if mode == "sign":
        one = np.ones((), v.dtype)
        return np.where(v >= 0.0, one, -one)
    return v


def _same_shape(a, b) -> tuple[np.ndarray, np.ndarray]:
    av, bv = as_hypervectors(a), as_hypervectors(b)
    if av.shape != bv.shape:
        raise InvalidArgumentError(f"dimension mismatch: {av.shape} vs {bv.shape}")
    return av, bv


@np.errstate(over="ignore", invalid="ignore")
def _checked_product(a: np.ndarray, b: np.ndarray, check: Callable[[np.ndarray], object]):
    """``check`` of the elementwise product of two equal-shape arrays: their float32 product if both
    are float32 and ``check`` accepts it, else their float64 product. So a float32 product that
    overflows is taken again in float64, which keeps each entry finite there, and a non-finite
    factor is named by ``check`` as in float64."""
    if a.dtype == b.dtype == np.float32:
        with contextlib.suppress(InvalidArgumentError):
            return check(np.multiply(a, b))
    return check(np.multiply(a, b, dtype=np.float64))


def bind(a, b) -> np.ndarray:
    """Elementwise product of two vectors or equal-shape stacks, float32 for two float32 arrays unless
    that overflows (``_checked_product``); commutative, self-inverse on bipolar vectors."""
    return _checked_product(*_same_shape(a, b), lambda p: check_rows(p, noun="hypervector entries and their products"))


@np.errstate(over="ignore", invalid="ignore")
def bundle(vs) -> np.ndarray:
    """Superpose a nonempty (count, dim) stack, or list, of equal-dim hypervectors:
    their elementwise sum, which commutes over list order; an overflow is rejected."""
    stack = as_hypervectors(vs, (2,))
    # widened first: np.sum(..., dtype=np.float64) casts in buffer-sized chunks, which
    # splits a long sum along the inner loop (a transposed stack) and moves its bits
    total = np.sum(stack.astype(np.float64, copy=False), axis=0)
    if not np.isfinite(total).all():
        check_rows(stack)
        raise InvalidArgumentError("the bundle of finite hypervectors overflows float64")
    return total


def row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The dot product of each row of ``a`` with the same row of ``b``."""
    # Stacked matmul sums each row as np.dot does, bit for bit; einsum and
    # np.sum(a * b, axis=1) sum in another order.
    return np.matmul(a[:, np.newaxis, :], b[:, :, np.newaxis])[:, 0, 0]


def sum_products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.sum(a * b, axis=1)``, computed in row blocks to bound the temporary;
    for ``b is a`` its square root is bit for bit ``np.linalg.norm(a, axis=1)``."""
    step = block_rows(a.shape[1])
    out = np.empty(a.shape[0])
    for r in range(0, a.shape[0], step):
        out[r : r + step] = np.sum(a[r : r + step] * b[r : r + step], axis=1)
    return out


# The squared norms a row keeps unscaled, by the dtype its products are summed in: below
# 2^-100 float32 squares lose bits as subnormals, and beyond 2^100 a float32 scan can overflow.
_NORM2_RANGE = {np.dtype(np.float32): (2.0**-100, 2.0**100), np.dtype(np.float64): (2.0**-500, 2.0**500)}


def safe_norms2(rows: np.ndarray, dots: Callable[[np.ndarray, np.ndarray], np.ndarray], summed_in=None):
    """A ``(count, dim)`` array's rows and squared norms ``dots(rows, rows)``, ``dots``
    being ``row_dots`` (np.dot order) or ``sum_products``. A row whose squared norm lies
    outside ``_NORM2_RANGE`` of ``summed_in``, the dtype its products are summed in (by
    default its own): [2^-100, 2^100] for float32, [2^-500, 2^500] for float64, is first
    scaled, in a copy, by the power of two that puts its largest magnitude in [0.5, 1),
    which changes no cosine and no unit vector. Zero and non-finite rows come
    back unscaled, and ``rows`` itself comes back when no row is scaled."""
    with np.errstate(over="ignore"):
        norms2 = dots(rows, rows)
    low, high = _NORM2_RANGE[rows.dtype if summed_in is None else np.dtype(summed_in)]
    idx = np.flatnonzero(~((low <= norms2) & (norms2 <= high)))
    if idx.size:
        peak = np.max(np.abs(rows[idx]), axis=1, initial=0.0)
        scalable = np.isfinite(peak) & (peak > 0.0)
        idx, peak = idx[scalable], peak[scalable]
    if idx.size:
        rows = rows.copy()
        rows[idx] = np.ldexp(rows[idx], -np.frexp(peak)[1][:, np.newaxis])
        norms2[idx] = dots(rows[idx], rows[idx])
    return rows, norms2


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # a non-finite or zero row's cosine is not read
def _cosines(a: np.ndarray, b: np.ndarray):
    """The cosine kernel, which checks nothing: each row's cosine and the two squared norms, of two
    equal-shape blocks widened to float64 and each row scaled by ``safe_norms2``."""
    (a2, na2), (b2, nb2) = (safe_norms2(x.astype(np.float64, copy=False), row_dots) for x in (a, b))
    # sqrt of the product keeps cos(v, v) == 1.0 exact (perfect-square argument)
    return row_dots(a2, b2) / np.sqrt(na2 * nb2), na2, nb2


def cosine_similarity(a, b):
    """dot(a, b) / (|a| |b|) of two vectors (a float) or of two stacks, row by row;
    raises naming the non-finite, then the zero-norm rows rather than returning 0.
    Each row is summed on its own, so widening a block of rows at a time gives the
    bits of widening the whole stack."""
    av, bv = _same_shape(a, b)
    a2, b2 = np.atleast_2d(av), np.atleast_2d(bv)
    step = block_rows(a2.shape[1])
    blocks = [_cosines(a2[r : r + step], b2[r : r + step]) for r in range(0, a2.shape[0], step)]
    cos, na2, nb2 = blocks[0] if len(blocks) == 1 else (np.concatenate(terms) for terms in zip(*blocks))
    check_rows(np.column_stack((na2, nb2)), "cosine similarity undefined for a zero-norm vector")
    return float(cos[0]) if av.ndim == 1 else cos
