"""Invertible source<->target hypervector mappings.

A mapping holds one vector per patch position. Binding a patch hypervector
with its mapping vector unbinds the attributes of one domain and binds those
of the other; with bipolar mapping vectors applying the mapping twice is the
exact identity, so a single mapping serves both directions.

A mapping estimated from two float32 stacks (two VSAF files, say) is float32,
and so is a float32 stack bound with a float32 mapping: each entry is the
float32 rounding of the exact product, and a product past the float32 range
makes the result float64 (``hv.bind``). Applying such a mapping twice thus
rounds twice, and an entry can differ by one float32 ulp from the float64
chain rounded once. A sign mapping is the exact product's sign at either
precision, and is float32 for two float32 stacks too.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .hv import (_checked_product, _same_shape, as_count, as_hypervectors, bind, bundle, check_rows, check_seed,
                 fill_bipolar, quantized)


@dataclass(frozen=True)
class HypervectorMapping:
    """Per-patch mapping vectors, a (patch_count, dim) float32 or float64 array checked finite when built."""

    per_patch: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = as_hypervectors(self.per_patch, (2,), "mapping vectors")
        check_rows(arr, noun="mapping entries")
        object.__setattr__(self, "per_patch", arr)

    @property
    def patch_count(self) -> int:
        return self.per_patch.shape[0]

    @property
    def dim(self) -> int:
        return self.per_patch.shape[1]


def _as_stack(vs) -> np.ndarray:
    return as_hypervectors(vs, (2,))


def apply_mapping(vs, u: HypervectorMapping) -> np.ndarray:
    """Bind each patch hypervector with its mapping vector (``bind`` checks shapes and the product)."""
    return bind(_as_stack(vs), u.per_patch)


def build_ground_truth_mapping(src_attrs, tgt_attrs) -> np.ndarray:
    """Bundle bind(src_attrs[i], tgt_attrs[i]) over two (k, dim) stacks into one mapping vector."""
    return bundle(bind(src_attrs, tgt_attrs))


def estimate_mapping_paired(src, tgt, quantize: str = "none") -> HypervectorMapping:
    """Closed-form per-patch mapping from paired hypervectors: u[i] = src[i] * tgt[i].

    For bipolar inputs this satisfies bind(src[i], u[i]) == tgt[i] exactly; for
    continuous vectors it is only approximately invertible. The product is checked
    as in ``bind``, and is float32 for two float32 stacks. A sign mapping, float32
    for two float32 stacks too, drops it and takes the exact product's sign from the
    factors' signs, with 0 -> +1: a rounded product can underflow to a zero of either sign.
    """
    s, t = _same_shape(_as_stack(src), _as_stack(tgt))
    u = _checked_product(s, t, HypervectorMapping)
    if quantize == "none":
        return u
    del u  # checked, and freed before the sign arrays are made
    signs = np.sign(s, dtype=np.result_type(s, t))  # -1, 0 or +1, and their products in place
    signs *= np.sign(t)
    return HypervectorMapping(per_patch=quantized(signs, quantize))


def random_mapping(patch_count: int, dim: int, seed: int) -> HypervectorMapping:
    """Independent bipolar mapping vectors per patch (the ablation baseline)."""
    shape = as_count(patch_count, "patch_count"), as_count(dim, "dim")
    rng = np.random.default_rng(check_seed(seed))
    return HypervectorMapping(per_patch=fill_bipolar(np.empty(shape), rng))
