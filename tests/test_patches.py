import numpy as np
import pytest

from vsabench.errors import ConfigError, InvalidArgumentError
from vsabench.patches import (
    PatchFeatureSet,
    PatchSpec,
    assemble_patches,
    block_lengths,
    normalize_blocks,
)
from vsabench.vsaf import feature_map_set


def test_whole_map_single_patch():
    fm = feature_map_set([("l0", np.arange(32).reshape(4, 4, 2))])
    out = assemble_patches(fm, PatchSpec(sides=(4,)))
    assert out.patch_count == 1
    assert out.m == 32
    # row-major (row, column, channel) flattening of the whole map
    np.testing.assert_array_equal(out.vectors[0], np.arange(32, dtype=np.float64))


def test_two_layer_concatenation_length():
    rng = np.random.default_rng(0)
    fm = feature_map_set([
        ("a", rng.standard_normal((16, 16, 8))),
        ("b", rng.standard_normal((8, 8, 16))),
    ])
    out = assemble_patches(fm, PatchSpec(sides=(16, 8)))
    assert out.patch_count == 1
    assert out.m == 16 * 16 * 8 + 8 * 8 * 16 == 3072
    assert out.m == sum(block_lengths(fm, PatchSpec(sides=(16, 8))))


def test_tiling_count():
    fm = feature_map_set([("l0", np.random.default_rng(1).standard_normal((8, 8, 1)))])
    out = assemble_patches(fm, PatchSpec(sides=(2,)))
    assert out.patch_count == 16
    assert out.m == 4


def test_patch_order_row_major_over_grid():
    data = np.arange(16).reshape(4, 4, 1)
    fm = feature_map_set([("l0", data)])
    out = assemble_patches(fm, PatchSpec(sides=(2,)))
    # grid cells: (0,0) (0,1) / (1,0) (1,1)
    np.testing.assert_array_equal(out.vectors[0], [0, 1, 4, 5])
    np.testing.assert_array_equal(out.vectors[1], [2, 3, 6, 7])
    np.testing.assert_array_equal(out.vectors[2], [8, 9, 12, 13])
    np.testing.assert_array_equal(out.vectors[3], [10, 11, 14, 15])


def test_dilation_samples_spaced_coordinates():
    data = np.arange(36).reshape(6, 6, 1)
    fm = feature_map_set([("l0", data)])
    out = assemble_patches(fm, PatchSpec(sides=(2,), dilation=3))
    assert out.patch_count == 1
    # coordinates 0 and 3 in each axis
    np.testing.assert_array_equal(out.vectors[0], [0, 3, 18, 21])


def test_layer_blocks_in_layer_order():
    fm = feature_map_set([
        ("first", np.full((2, 2, 1), 1.0)),
        ("second", np.full((2, 2, 1), 2.0)),
    ])
    out = assemble_patches(fm, PatchSpec(sides=(2, 2)))
    np.testing.assert_array_equal(out.vectors[0], [1, 1, 1, 1, 2, 2, 2, 2])


def test_misaligned_grid_names_layer():
    fm = feature_map_set([
        ("fine", np.zeros((8, 8, 1))),
        ("coarse", np.zeros((4, 4, 1))),
    ])
    with pytest.raises(ConfigError, match="coarse"):
        assemble_patches(fm, PatchSpec(sides=(2, 4)))


def test_non_tiling_extent_names_layer():
    fm = feature_map_set([("odd", np.zeros((5, 5, 1)))])
    with pytest.raises(ConfigError, match="odd"):
        assemble_patches(fm, PatchSpec(sides=(2,)))


def test_patch_larger_than_layer():
    fm = feature_map_set([("small", np.zeros((4, 4, 1)))])
    with pytest.raises(InvalidArgumentError):
        assemble_patches(fm, PatchSpec(sides=(8,)))


@pytest.mark.parametrize("sides,dilation", [
    ((), 1), ((0,), 1), ((2.5,), 1), ((True,), 1), ((2,), 0), ((2,), 1.5),
])
def test_bad_spec_rejected(sides, dilation):
    with pytest.raises(InvalidArgumentError):
        PatchSpec(sides=sides, dilation=dilation)


def test_side_count_must_match_layers():
    fm = feature_map_set([("l0", np.zeros((4, 4, 1)))])
    with pytest.raises(InvalidArgumentError):
        assemble_patches(fm, PatchSpec(sides=(4, 2)))


def test_per_layer_block_normalization():
    rng = np.random.default_rng(3)
    fm = feature_map_set([
        ("a", 10.0 * rng.standard_normal((4, 4, 2))),
        ("b", 0.1 * rng.standard_normal((2, 2, 4))),
    ])
    spec = PatchSpec(sides=(4, 2))
    lengths = block_lengths(fm, spec)
    assert lengths == [32, 16]
    out = normalize_blocks(assemble_patches(fm, spec), lengths)
    assert np.linalg.norm(out.vectors[0, :32]) == pytest.approx(1.0)
    assert np.linalg.norm(out.vectors[0, 32:]) == pytest.approx(1.0)


def linalg_normalized(vectors, lengths):
    """Each layer block divided by its np.linalg.norm row norm, zero blocks left alone."""
    out = vectors.copy()
    start = 0
    for length in lengths:
        block = out[:, start : start + length]
        norms = np.linalg.norm(block, axis=1, keepdims=True)
        np.divide(block, norms, out=block, where=norms > 0)
        start += length
    return out


@pytest.mark.parametrize("lengths", [[32, 16], [1, 47], [48], [300, 700, 3]])
def test_normalize_blocks_equals_linalg_norm_formula_bitwise(lengths):
    rng = np.random.default_rng(sum(lengths))
    vectors = rng.standard_normal((700, sum(lengths))) * rng.uniform(0.01, 100.0, (700, 1))
    vectors[5, : lengths[0]] = 0.0
    out = normalize_blocks(PatchFeatureSet(vectors=vectors), lengths)
    assert out.vectors.tobytes() == linalg_normalized(vectors, lengths).tobytes()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale", [2.0**700, 2.0**-700])
def test_extreme_blocks_normalize_like_unscaled(scale):
    # these blocks' squared norms overflow to inf or underflow to 0
    vectors = np.random.default_rng(4).standard_normal((6, 24))
    want = normalize_blocks(PatchFeatureSet(vectors=vectors), [16, 8]).vectors
    scaled = vectors.copy()
    scaled[:, :16] *= scale
    scaled[1::2, 16:] *= scale
    assert normalize_blocks(PatchFeatureSet(vectors=scaled), [16, 8]).vectors.tobytes() == want.tobytes()


def test_normalize_blocks_rejects_bad_lengths():
    fm = feature_map_set([("a", np.ones((2, 2, 1)))])
    patches = assemble_patches(fm, PatchSpec(sides=(2,)))
    with pytest.raises(InvalidArgumentError):
        normalize_blocks(patches, [3])


def test_stable_across_runs():
    rng = np.random.default_rng(2)
    fm = feature_map_set([("l0", rng.standard_normal((8, 8, 2)))])
    a = assemble_patches(fm, PatchSpec(sides=(4,)))
    b = assemble_patches(fm, PatchSpec(sides=(4,)))
    np.testing.assert_array_equal(a.vectors, b.vectors)


def _assemble_reference(fm, spec):
    """Per-patch loop: index each grid cell's dilated coordinates, concatenate layers."""
    d = spec.dilation
    footprint0 = spec.sides[0] * d
    gh, gw = fm.layers[0].data.shape[0] // footprint0, fm.layers[0].data.shape[1] // footprint0
    patches = []
    for gi in range(gh):
        for gj in range(gw):
            blocks = []
            for side, layer in zip(spec.sides, fm.layers):
                footprint = side * d
                rows = gi * footprint + d * np.arange(side)
                cols = gj * footprint + d * np.arange(side)
                blocks.append(layer.data[np.ix_(rows, cols)].astype(np.float64).reshape(-1))
            patches.append(np.concatenate(blocks))
    return np.stack(patches)


@pytest.mark.parametrize("dilation", [1, 2, 3])
def test_matches_per_patch_reference_loop(dilation):
    rng = np.random.default_rng(dilation)
    # a 3x2 grid of cells; footprints 4*d and 2*d
    fm = feature_map_set([
        ("a", rng.standard_normal((12 * dilation, 8 * dilation, 3))),
        ("b", rng.standard_normal((6 * dilation, 4 * dilation, 5))),
    ])
    spec = PatchSpec(sides=(4, 2), dilation=dilation)
    out = assemble_patches(fm, spec)
    ref = _assemble_reference(fm, spec)
    assert out.vectors.dtype == np.float64 and out.vectors.flags.c_contiguous
    assert out.patch_count == 6
    np.testing.assert_array_equal(out.vectors, ref)
    assert out.vectors.tobytes() == ref.tobytes()
