"""Invertible source<->target hypervector mappings.

A mapping holds one vector per patch position. Binding a patch hypervector
with its mapping vector unbinds the attributes of one domain and binds those
of the other; with bipolar mapping vectors applying the mapping twice is the
exact identity, so a single mapping serves both directions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError
from .hv import as_hypervectors, bind, bundle, check_seed, fill_bipolar, quantized


@dataclass(frozen=True)
class HypervectorMapping:
    """Per-patch mapping vectors stacked as a (patch_count, dim) array."""

    per_patch: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = np.asarray(self.per_patch, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise InvalidArgumentError(
                f"mapping must be a nonempty (patch_count, dim) array, got shape {arr.shape}"
            )
        object.__setattr__(self, "per_patch", arr)

    @property
    def patch_count(self) -> int:
        return self.per_patch.shape[0]

    @property
    def dim(self) -> int:
        return self.per_patch.shape[1]


def _as_stack(vs) -> np.ndarray:
    arr = as_hypervectors(vs)
    if arr.ndim != 2:
        raise InvalidArgumentError(f"expected a nonempty list of hypervectors, got shape {arr.shape}")
    return arr


def apply_mapping(vs, u: HypervectorMapping) -> np.ndarray:
    """Bind each patch hypervector with its mapping vector; returns a (patch_count, dim) array."""
    stack = _as_stack(vs)
    if stack.shape[0] != u.patch_count:
        raise InvalidArgumentError(
            f"got {stack.shape[0]} hypervectors for a {u.patch_count}-patch mapping"
        )
    if stack.shape[1] != u.dim:
        raise InvalidArgumentError(f"dimension mismatch: {stack.shape[1]} vs mapping dim {u.dim}")
    return bind(stack, u.per_patch)


def build_ground_truth_mapping(src_attrs, tgt_attrs) -> np.ndarray:
    """Bundle bind(src_attrs[i], tgt_attrs[i]) over two (k, dim) stacks into one mapping vector."""
    return bundle(bind(src_attrs, tgt_attrs))


def estimate_mapping_paired(src, tgt, quantize: str = "none") -> HypervectorMapping:
    """Closed-form per-patch mapping from paired hypervectors: u[i] = src[i] * tgt[i].

    For bipolar inputs this satisfies bind(src[i], u[i]) == tgt[i] exactly; for
    continuous vectors it is only approximately invertible.
    """
    s, t = _as_stack(src), _as_stack(tgt)
    if s.shape != t.shape:
        raise InvalidArgumentError(f"shape mismatch: src {s.shape} vs tgt {t.shape}")
    return HypervectorMapping(per_patch=quantized(s * t, quantize))


def random_mapping(patch_count: int, dim: int, seed: int) -> HypervectorMapping:
    """Independent bipolar mapping vectors per patch (the ablation baseline)."""
    if patch_count < 1 or dim < 1:
        raise InvalidArgumentError(
            f"patch_count and dim must be >= 1, got {patch_count}, {dim}"
        )
    rng = np.random.default_rng(check_seed(seed))
    return HypervectorMapping(per_patch=fill_bipolar(np.empty((patch_count, dim)), rng))
