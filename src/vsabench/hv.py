"""Dense hypervectors and the MAP operators (bind, bundle, cosine similarity).

Hypervectors are plain 1-D float64 numpy arrays. Freshly sampled vectors live
in [-1, 1]; bundling with ``raw_sum`` may leave that range, which is fine for
every cosine-based consumer downstream.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .errors import DegenerateInputError, InvalidArgumentError

MAX_SEED = 2**64 - 1

SAMPLING_MODES = ("bipolar", "uniform")
BUNDLE_MODES = ("raw_sum", "mean", "clip_unit")


def check_seed(seed: int) -> int:
    """Validate a 64-bit unsigned seed and return it."""
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
        raise InvalidArgumentError(f"seed must be an integer, got {type(seed).__name__}")
    if not 0 <= seed <= MAX_SEED:
        raise InvalidArgumentError(f"seed must be in [0, 2^64), got {seed}")
    return int(seed)


def as_hypervector(v) -> np.ndarray:
    """Coerce to a 1-D float64 array, rejecting empty or non-finite input."""
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 1:
        raise InvalidArgumentError(f"hypervector must be 1-D and nonempty, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidArgumentError("hypervector entries must be finite")
    return arr


def is_bounded(v) -> bool:
    """True if every entry lies in [-1, 1] (sampled and LSH vectors; not raw-sum bundles)."""
    arr = np.asarray(v, dtype=np.float64)
    return bool(np.all(arr >= -1.0) and np.all(arr <= 1.0))


def random_hypervector(dim: int, seed: int, mode: str = "bipolar") -> np.ndarray:
    """Sample a random hypervector, deterministic in (dim, seed, mode).

    ``bipolar`` draws i.i.d. uniform over {-1, +1}; ``uniform`` draws i.i.d.
    uniform over [-1, 1].
    """
    if dim < 1:
        raise InvalidArgumentError(f"dim must be >= 1, got {dim}")
    if mode not in SAMPLING_MODES:
        raise InvalidArgumentError(f"mode must be one of {SAMPLING_MODES}, got {mode!r}")
    rng = np.random.default_rng(check_seed(seed))
    return sample_hypervector(dim, rng, mode)


def sample_hypervector(dim: int, rng: np.random.Generator, mode: str = "bipolar") -> np.ndarray:
    """Draw one hypervector from an existing generator (stream-level determinism)."""
    if dim < 1:
        raise InvalidArgumentError(f"dim must be >= 1, got {dim}")
    if mode == "bipolar":
        return rng.integers(0, 2, size=dim).astype(np.float64) * 2.0 - 1.0
    if mode == "uniform":
        return rng.uniform(-1.0, 1.0, size=dim)
    raise InvalidArgumentError(f"mode must be one of {SAMPLING_MODES}, got {mode!r}")


def _check_same_dim(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape[0] != b.shape[0]:
        raise InvalidArgumentError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")


def bind(a, b) -> np.ndarray:
    """Elementwise product. Commutative; self-inverse on bipolar vectors."""
    av, bv = as_hypervector(a), as_hypervector(b)
    _check_same_dim(av, bv)
    return av * bv


def bundle(vs: Sequence | Iterable, norm: str = "raw_sum") -> np.ndarray:
    """Superpose a nonempty list of equal-dim hypervectors.

    ``raw_sum`` is the elementwise sum, ``mean`` divides by the count, and
    ``clip_unit`` clamps the sum to [-1, 1]. All modes commute over list order.
    """
    if norm not in BUNDLE_MODES:
        raise InvalidArgumentError(f"norm must be one of {BUNDLE_MODES}, got {norm!r}")
    arrs = [as_hypervector(v) for v in vs]
    if not arrs:
        raise InvalidArgumentError("bundle requires a nonempty list")
    dim = arrs[0].shape[0]
    for i, v in enumerate(arrs[1:], start=1):
        if v.shape[0] != dim:
            raise InvalidArgumentError(f"dimension mismatch at index {i}: {v.shape[0]} vs {dim}")
    total = np.sum(arrs, axis=0)
    if norm == "mean":
        return total / len(arrs)
    if norm == "clip_unit":
        return np.clip(total, -1.0, 1.0)
    return total


def cosine_similarity(a, b) -> float:
    """dot(a, b) / (|a| |b|); raises on a zero-norm input rather than returning 0."""
    av, bv = as_hypervector(a), as_hypervector(b)
    _check_same_dim(av, bv)
    na2, nb2 = np.dot(av, av), np.dot(bv, bv)
    if not (2.0**-500 <= na2 <= 2.0**500 and 2.0**-500 <= nb2 <= 2.0**500):
        # Squares this small or large lose precision or overflow. Scaling by a
        # power of two is exact and leaves the cosine unchanged.
        av = np.ldexp(av, -np.frexp(np.max(np.abs(av)))[1])
        bv = np.ldexp(bv, -np.frexp(np.max(np.abs(bv)))[1])
        na2, nb2 = np.dot(av, av), np.dot(bv, bv)
    if na2 == 0.0 or nb2 == 0.0:
        raise DegenerateInputError("cosine similarity undefined for a zero-norm vector")
    # sqrt of the product keeps cos(v, v) == 1.0 exact (perfect-square argument)
    return float(np.dot(av, bv) / np.sqrt(na2 * nb2))


def cosine_distance(a, b) -> float:
    """1 - cosine_similarity(a, b), in [0, 2]."""
    return 1.0 - cosine_similarity(a, b)
