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
chain rounded once.
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


@np.errstate(over="ignore", invalid="ignore")
def estimate_mapping_paired(src, tgt, quantize: str = "none") -> HypervectorMapping:
    """Closed-form per-patch mapping from paired hypervectors: u[i] = src[i] * tgt[i].

    For bipolar inputs this satisfies bind(src[i], u[i]) == tgt[i] exactly; for
    continuous vectors it is only approximately invertible. Unquantized, the product
    is float32 for two float32 stacks, as in ``bind``. A sign is taken from the exact
    float64 product, which is checked first: a float32 product can underflow to -0.0,
    whose sign is +1.
    """
    s, t = _same_shape(_as_stack(src), _as_stack(tgt))
    if quantize == "none":
        return _checked_product(s, t, HypervectorMapping)
    u = HypervectorMapping(per_patch=np.multiply(s, t, dtype=np.float64))
    return HypervectorMapping(per_patch=quantized(u.per_patch, quantize))


def random_mapping(patch_count: int, dim: int, seed: int) -> HypervectorMapping:
    """Independent bipolar mapping vectors per patch (the ablation baseline)."""
    shape = as_count(patch_count, "patch_count"), as_count(dim, "dim")
    rng = np.random.default_rng(check_seed(seed))
    return HypervectorMapping(per_patch=fill_bipolar(np.empty(shape), rng))
