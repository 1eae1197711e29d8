"""Assemble per-patch concatenated feature vectors from multi-layer feature maps.

Each layer is tiled into a grid of patches; all layers must produce the same
grid shape so that patch i of every layer covers the same receptive field.
Within a grid cell the layer blocks are concatenated in layer order, each
flattened row-major (row, then column, then channel). With dilation d > 1 a
cell samples coordinates spaced d apart, covering a footprint of side * d.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError
from .hv import as_count, as_tuple, safe_norms2, sum_products
from .vsaf import FeatureMapSet


@dataclass(frozen=True)
class PatchSpec:
    """Per-layer patch side lengths plus a shared dilation factor."""

    sides: tuple[int, ...]
    dilation: int = 1

    def __post_init__(self):
        sides = as_tuple(self.sides, "a sequence of patch sides")
        if not sides:
            raise InvalidArgumentError("patch sides must be nonempty, got ()")
        object.__setattr__(self, "sides", tuple(as_count(s, "patch side") for s in sides))
        object.__setattr__(self, "dilation", as_count(self.dilation, "dilation"))


@dataclass(frozen=True)
class PatchFeatureSet:
    """Row-major-ordered patch vectors stacked as a (patch_count, m) array."""

    vectors: np.ndarray = field(repr=False)

    @property
    def patch_count(self) -> int:
        return self.vectors.shape[0]

    @property
    def m(self) -> int:
        return self.vectors.shape[1]


def block_lengths(fm: FeatureMapSet, spec: PatchSpec) -> list[int]:
    """Length of each layer's block within an assembled patch vector."""
    return [s * s * layer.data.shape[2] for s, layer in zip(spec.sides, fm.layers)]


def normalize_blocks(patches: PatchFeatureSet, lengths: list[int]) -> PatchFeatureSet:
    """Scale each layer block of every patch vector to unit Euclidean norm.

    Used when feature normalization is scoped per layer rather than over the
    whole concatenated vector; the lengths are integers >= 1 summing to m.
    Norms come from ``hv.safe_norms2`` in ``hv.sum_products`` order, so a block
    whose squared norm underflows or overflows is normalized too. Zero-norm
    blocks are left untouched.
    """
    lengths = [as_count(n, "block length") for n in as_tuple(lengths, "a sequence of block lengths")]
    if sum(lengths) != patches.m:
        raise InvalidArgumentError(f"block lengths {lengths} must sum to m={patches.m}")
    out = patches.vectors.copy()
    start = 0
    for length in lengths:
        block = out[:, start : start + length]
        rows, norms2 = safe_norms2(block, sum_products)
        np.divide(rows, np.sqrt(norms2)[:, np.newaxis], out=block, where=norms2[:, np.newaxis] > 0)
        start += length
    return PatchFeatureSet(vectors=out)


def assemble_patches(fm: FeatureMapSet, spec: PatchSpec) -> PatchFeatureSet:
    if len(spec.sides) != len(fm.layers):
        raise InvalidArgumentError(
            f"patch spec has {len(spec.sides)} sides for {len(fm.layers)} layers"
        )
    d = spec.dilation
    blocks = []
    for side, layer in zip(spec.sides, fm.layers):
        h, w, c = layer.data.shape
        footprint = side * d
        if (side - 1) * d + 1 > h or (side - 1) * d + 1 > w:
            raise InvalidArgumentError(
                f"layer {layer.name!r}: patch side {side} with dilation {d} "
                f"exceeds spatial extent {h}x{w}"
            )
        if h % footprint != 0 or w % footprint != 0:
            raise InvalidArgumentError(
                f"layer {layer.name!r}: extent {h}x{w} does not tile by "
                f"footprint {footprint} (side {side} * dilation {d})"
            )
        shape = (h // footprint, w // footprint)
        if blocks and shape != grid_shape:
            raise InvalidArgumentError(
                f"layer {layer.name!r}: grid {shape} does not match {grid_shape} "
                f"of earlier layers"
            )
        gh, gw = grid_shape = shape
        # split each axis into (grid cell, patch position, dilation offset); keep offset 0
        cells = layer.data.reshape(gh, side, d, gw, side, d, c)[:, :, 0, :, :, 0, :]
        blocks.append(cells.transpose(0, 2, 1, 3, 4).reshape(gh * gw, side * side * c))
    return PatchFeatureSet(vectors=np.concatenate(blocks, axis=1, dtype=np.float64))
