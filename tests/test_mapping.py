import math
import tracemalloc

import numpy as np
import pytest

from vsabench.errors import InvalidArgumentError, VsafError
from vsabench.hv import _BLOCK_ENTRIES, bind, bundle, cosine_similarity, quantized, sample_hypervector
from vsabench.lsh import new_projector, project_batch
from vsabench.mapping import (
    HypervectorMapping,
    apply_mapping,
    build_ground_truth_mapping,
    estimate_mapping_paired,
    random_mapping,
)

from vsabench.vsaf import write_hypervectors

from test_hv import assert_same_bits, float32_stack, raised

DIM = 4096

# The bytes of one float64 row block (hv._BLOCK_ENTRIES entries, 2 MiB), the most a stage
# widens at a time, and room for the small arrays beside it (row norms, lists of bad rows).
ROW_BLOCK = _BLOCK_ENTRIES * 8
SLACK = 1 << 18


def bipolar_stack(count, dim, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, size=(count, dim)).astype(np.float64) * 2 - 1


def paired_scene(dim, k, seed):
    """Source scene, target scene, and the ground-truth mapping for k object-attribute pairs."""
    rng = np.random.default_rng(seed)

    def draw():
        return rng.integers(0, 2, size=dim).astype(np.float64) * 2 - 1

    objs = [draw() for _ in range(k)]
    src_attrs = [draw() for _ in range(k)]
    tgt_attrs = [draw() for _ in range(k)]
    v_src = bundle([bind(o, a) for o, a in zip(objs, src_attrs)])
    v_tgt = bundle([bind(o, a) for o, a in zip(objs, tgt_attrs)])
    u = build_ground_truth_mapping(src_attrs, tgt_attrs)
    return v_src, v_tgt, u


class TestApplyMapping:
    def test_all_ones_is_identity(self):
        vs = bipolar_stack(3, 64, seed=0)
        u = HypervectorMapping(per_patch=np.ones((3, 64)))
        np.testing.assert_array_equal(np.stack(apply_mapping(vs, u)), vs)

    def test_bipolar_self_inverse(self):
        vs = bipolar_stack(4, 256, seed=1)
        u = HypervectorMapping(per_patch=bipolar_stack(4, 256, seed=2))
        np.testing.assert_array_equal(np.stack(apply_mapping(apply_mapping(vs, u), u)), vs)

    def test_length_mismatch(self):
        u = HypervectorMapping(per_patch=np.ones((2, 8)))
        with pytest.raises(InvalidArgumentError):
            apply_mapping(np.ones((3, 8)), u)
        with pytest.raises(InvalidArgumentError):
            apply_mapping(np.ones((2, 9)), u)

    def test_returns_stack_and_rejects_ragged_input(self):
        u = HypervectorMapping(per_patch=bipolar_stack(2, 8, seed=3))
        mapped = apply_mapping([np.ones(8), -np.ones(8)], u)
        assert isinstance(mapped, np.ndarray) and mapped.shape == (2, 8)
        with pytest.raises(InvalidArgumentError, match="equal-length"):
            apply_mapping([np.ones(8), np.ones(7)], u)

    @pytest.mark.parametrize("per_patch", [[[1.0], [1.0, 2.0]], "ab", [{"a": 1}]])
    def test_ragged_or_non_numeric_mapping_rejected(self, per_patch):
        with pytest.raises(InvalidArgumentError, match="equal-length"):
            HypervectorMapping(per_patch=per_patch)

    def test_scene_recovery_cosine(self):
        # analytic 1/sqrt(2) for 2 bundled pairs, Monte-Carlo confirmed
        sims = []
        for s in range(50):
            v_src, v_tgt, u = paired_scene(DIM, k=2, seed=s)
            mapped = apply_mapping([v_src], HypervectorMapping(per_patch=u[np.newaxis]))[0]
            sims.append(cosine_similarity(mapped, v_tgt))
        assert np.mean(sims) == pytest.approx(1 / math.sqrt(2), abs=0.05)


class TestGroundTruthMapping:
    def test_single_pair_exact(self):
        a, b = sample_hypervector(64, np.random.default_rng(0)), sample_hypervector(64, np.random.default_rng(1))
        np.testing.assert_array_equal(build_ground_truth_mapping([a], [b]), bind(a, b))

    def test_pair_order_invariant(self):
        srcs = [sample_hypervector(64, np.random.default_rng(2 * i)) for i in range(4)]
        tgts = [sample_hypervector(64, np.random.default_rng(2 * i + 1)) for i in range(4)]
        np.testing.assert_array_equal(
            build_ground_truth_mapping(srcs, tgts), build_ground_truth_mapping(srcs[::-1], tgts[::-1])
        )

    def test_equals_per_pair_loop_bitwise(self):
        rng = np.random.default_rng(11)
        pairs = [(rng.standard_normal(33), rng.standard_normal(33)) for _ in range(5)]
        srcs, tgts = zip(*pairs)
        np.testing.assert_array_equal(build_ground_truth_mapping(srcs, tgts), np.sum([s * t for s, t in pairs], axis=0))

    def test_unequal_pair_dims_rejected(self):
        with pytest.raises(InvalidArgumentError):
            build_ground_truth_mapping([np.ones(4)], [np.ones(5)])
        with pytest.raises(InvalidArgumentError):
            build_ground_truth_mapping([np.ones(4), np.ones(5)], [np.ones(4), np.ones(5)])

    def test_empty_rejected(self):
        with pytest.raises(InvalidArgumentError):
            build_ground_truth_mapping([], [])

    def test_single_vectors_rejected(self):
        # each argument is a (k, dim) stack; one pair is a stack of one row
        with pytest.raises(InvalidArgumentError):
            build_ground_truth_mapping(np.ones(4), np.ones(4))

    def test_k4_recovery_half(self):
        # analytic 1/sqrt(4) = 0.5, Monte-Carlo confirmed
        sims = []
        for s in range(50):
            v_src, v_tgt, u = paired_scene(DIM, k=4, seed=100 + s)
            sims.append(cosine_similarity(bind(v_src, u), v_tgt))
        assert np.mean(sims) == pytest.approx(0.5, abs=0.03)

    def test_cross_term_noise_bound(self):
        # mapping built from unrelated attribute pairs leaves only noise
        for s in range(20):
            v_src, v_tgt, _ = paired_scene(DIM, k=2, seed=200 + s)
            _, _, u_unrelated = paired_scene(DIM, k=2, seed=500 + s)
            assert abs(cosine_similarity(bind(v_src, u_unrelated), v_tgt)) < 5 / math.sqrt(DIM)


class TestPairedEstimator:
    def test_bipolar_exact(self):
        src = bipolar_stack(5, 512, seed=3)
        tgt = bipolar_stack(5, 512, seed=4)
        u = estimate_mapping_paired(src, tgt)
        np.testing.assert_array_equal(np.stack(apply_mapping(src, u)), tgt)

    def test_identical_inputs_give_all_ones(self):
        src = bipolar_stack(3, 128, seed=5)
        u = estimate_mapping_paired(src, src)
        np.testing.assert_array_equal(u.per_patch, np.ones((3, 128)))

    def test_sign_of_a_product_below_float64_range(self):
        # a float64 product can underflow to -0.0 or +0.0; the sign is the exact product's
        for src, tgt, sign in ((1e-200, -1e-200, -1.0), (-1e-200, 1e-200, -1.0), (-1e-200, -1e-200, 1.0),
                               (5e-324, 1e-300, 1.0), (-0.0, -1e-200, 1.0), (0.0, -1.0, 1.0)):
            assert_same_bits(estimate_mapping_paired([[src, 1.0]], [[tgt, -1.0]], "sign").per_patch, [[sign, -1.0]])

    def test_shape_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            estimate_mapping_paired(np.ones((2, 8)), np.ones((3, 8)))

    def test_continuous_lsh_improvement(self):
        # on continuous LSH vectors the estimator raises per-patch similarity
        # to the target for nearly every patch
        p = new_projector(m=8192, n=DIM, seed=6)
        rng = np.random.default_rng(7)
        src = project_batch(p, rng.standard_normal((40, 8192)))
        tgt = project_batch(p, rng.standard_normal((40, 8192)))
        u = estimate_mapping_paired(src, tgt)
        mapped = apply_mapping(src, u)
        improved = sum(
            cosine_similarity(mv, tv) > cosine_similarity(sv, tv)
            for sv, tv, mv in zip(src, tgt, mapped)
        )
        assert improved >= 0.95 * len(src)


class TestRandomMapping:
    def test_determinism(self):
        a = random_mapping(3, 256, seed=8)
        b = random_mapping(3, 256, seed=8)
        np.testing.assert_array_equal(a.per_patch, b.per_patch)

    @pytest.mark.parametrize("shape", [(3, 256), (9, 7), (20, 65)])
    def test_equals_one_integer_draw(self, shape):
        # row r is ceil(dim / 32) words of one uint32 draw; entry c is bit c % 32 of word c // 32
        count, dim = shape
        words = np.random.default_rng(8).integers(0, 2**32, size=(count, -(-dim // 32)), dtype=np.uint32)
        c = np.arange(dim)
        expected = ((words[:, c // 32] >> (c % 32).astype(np.uint32)) & 1) * 2.0 - 1.0
        np.testing.assert_array_equal(random_mapping(*shape, seed=8).per_patch, expected)

    def test_bipolar_entries(self):
        u = random_mapping(2, 128, seed=9)
        assert set(np.unique(u.per_patch)) <= {-1.0, 1.0}

    def test_zero_counts_rejected(self):
        with pytest.raises(InvalidArgumentError):
            random_mapping(0, 10, seed=0)
        with pytest.raises(InvalidArgumentError):
            random_mapping(10, 0, seed=0)

    @pytest.mark.parametrize("patch_count,dim", [(2.5, 4), (2, 4.5), (True, 4), (2, None), ("x", 4)])
    def test_non_integer_counts_rejected(self, patch_count, dim):
        with pytest.raises(InvalidArgumentError, match="must be an integer"):
            random_mapping(patch_count, dim, seed=0)

    def test_integral_float_counts_accepted(self):
        np.testing.assert_array_equal(random_mapping(2.0, 4.0, seed=0).per_patch, random_mapping(2, 4, seed=0).per_patch)

    def test_maps_to_noise(self):
        # near-orthogonality oracle: random mapping gives |cos| < 0.1 at dim 4096
        for s in range(20):
            v_src, v_tgt, _ = paired_scene(DIM, k=2, seed=700 + s)
            u = random_mapping(1, DIM, seed=s)
            mapped = apply_mapping([v_src], u)[0]
            assert abs(cosine_similarity(mapped, v_tgt)) < 0.1


def traced_peak(call) -> int:
    """The peak bytes ``tracemalloc`` sees allocated while ``call()`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestFloat32Stacks:
    """Two float32 stacks multiply to the float32 rounding of their exact float64
    product, and a float32 and a float64 stack to the bits of the same call on
    float64-widened stacks, without a widened copy."""

    def test_mapping_keeps_a_float32_matrix(self):
        per_patch = float32_stack((3, 64), 1)
        assert HypervectorMapping(per_patch=per_patch).per_patch is per_patch

    @pytest.mark.parametrize("quantize", ["none", "sign"])
    def test_estimate_and_apply_match_widened(self, quantize):
        src, tgt = float32_stack((9, 1031), 2), float32_stack((9, 1031), 3)
        wide = estimate_mapping_paired(src.astype(np.float64), tgt.astype(np.float64), quantize)
        u = estimate_mapping_paired(src, tgt, quantize)
        assert_same_bits(wide.per_patch, quantized(src.astype(np.float64) * tgt, quantize))
        # a sign is +-1 in float32 too; an unquantized product is the float32 rounding of the float64 one
        assert_same_bits(u.per_patch, wide.per_patch.astype(np.float32), np.float32)
        narrow_u = HypervectorMapping(per_patch=tgt)
        want = apply_mapping(src.astype(np.float64), HypervectorMapping(per_patch=tgt.astype(np.float64)))
        assert_same_bits(apply_mapping(src, narrow_u), want.astype(np.float32), np.float32)
        assert_same_bits(apply_mapping(src, HypervectorMapping(per_patch=tgt.astype(np.float64))), want)

    def test_sign_of_a_product_below_float32_range(self):
        # in float32 this product underflows to -0.0, whose sign quantizes to +1
        u = estimate_mapping_paired(np.float32([[-1e-30]]), np.float32([[1e-30]]), "sign")
        assert u.per_patch.tolist() == [[-1.0]]
        tiny = np.full((3, 64), 1e-30, np.float32)
        product = estimate_mapping_paired(tiny, -tiny).per_patch
        assert product.dtype == np.float32 and (product == 0.0).all() and np.signbit(product).all()
        for src, tgt, sign in ((tiny, -tiny, -1.0), (-tiny, tiny, -1.0), (tiny, tiny, 1.0), (-tiny, -tiny, 1.0)):
            assert_same_bits(estimate_mapping_paired(src, tgt, "sign").per_patch, np.full((3, 64), sign, np.float32),
                             np.float32)
        # a zero factor is a zero product, +1 whatever its sign bit
        assert_same_bits(estimate_mapping_paired(-0.0 * tiny, tiny, "sign").per_patch, np.ones((3, 64), np.float32),
                         np.float32)

    def test_product_past_float32_range_falls_back_to_float64(self, tmp_path):
        # 1e20 * 1e20 overflows float32 but not float64: the call gives the float64
        # product, as for wider input, and the VSAF write rejects it as before
        src = np.ones((4, 32), np.float32)
        src[2, 5] = 1e20
        tgt = src.copy()
        wide = src.astype(np.float64) * tgt
        for got in (bind(src, tgt), apply_mapping(src, HypervectorMapping(per_patch=tgt)),
                    estimate_mapping_paired(src, tgt).per_patch):
            assert_same_bits(got, wide)
        with pytest.raises(VsafError, match=r"layer 'mapping' has entries beyond the float32 limit of 3.40282e\+38"):
            write_hypervectors(estimate_mapping_paired(src, tgt).per_patch, tmp_path / "u.vsaf", "mapping")

    def test_errors_match_widened(self):
        src = float32_stack((4, 32), 4)
        src[[0, 2], 5] = [np.nan, -np.inf]
        tgt = float32_stack((4, 32), 5)
        u = HypervectorMapping(per_patch=tgt)
        cases = [
            (estimate_mapping_paired, (src, tgt), "finite (rows [0, 2])"),
            (estimate_mapping_paired, (tgt, tgt[:3]), "dimension mismatch"),
            (estimate_mapping_paired, (tgt[0], tgt[0]), "nonempty (count, dim) stack"),
            (lambda s: apply_mapping(s, u), (src,), "finite (rows [0, 2])"),
            (lambda s: apply_mapping(s, u), (tgt[:, :31],), "dimension mismatch"),
            (lambda s: HypervectorMapping(per_patch=s), (tgt[0],), "mapping vectors must be a nonempty (count, dim) stack"),
        ]
        for call, args, named in cases:
            got = raised(call, *args)
            assert got == raised(call, *(x.astype(np.float64) for x in args))
            assert named in got[1]

    def test_peak_is_one_float32_output(self):
        # encode-many's two (1024, 4096) float32 stacks of 16 MiB each, allocated before the
        # trace: a stage allocates its float32 output, 16 MiB, and no float64 block beside it
        src, tgt = float32_stack((1024, 4096), 6), float32_stack((1024, 4096), 7)
        u = HypervectorMapping(per_patch=tgt)
        limit = src.nbytes + SLACK
        assert traced_peak(lambda: estimate_mapping_paired(src, tgt)) < limit
        assert traced_peak(lambda: apply_mapping(src, u)) < limit
        # a sign mapping holds its float32 signs and one float32 temporary, and no float64 product
        assert traced_peak(lambda: estimate_mapping_paired(src, tgt, "sign")) < 40 << 20


class TestMappingCheckedWhenBuilt:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_mapping_rejected_naming_its_rows(self, bad):
        per_patch = np.ones((4, 8))
        per_patch[[1, 3], 2] = bad
        for arr in (per_patch, per_patch.astype(np.float32)):
            with pytest.raises(InvalidArgumentError, match=r"mapping entries must be finite \(rows \[1, 3\]\)"):
                HypervectorMapping(per_patch=arr)

    def test_nan_list_rejected(self):
        with pytest.raises(InvalidArgumentError, match=r"finite \(rows \[0\]\)"):
            HypervectorMapping(per_patch=[[np.nan, 1.0]])

    @pytest.mark.parametrize("quantize", ["none", "sign"])
    def test_paired_estimate_checks_its_product_before_the_sign(self, quantize):
        src = np.ones((2, 4))
        src[1, 0] = np.nan
        with pytest.raises(InvalidArgumentError, match=r"finite \(rows \[1\]\)"):
            estimate_mapping_paired(src, np.ones((2, 4)), quantize)
        with pytest.raises(InvalidArgumentError, match=r"finite \(rows \[0\]\)"):
            estimate_mapping_paired([[1e200, 1.0]], [[1e200, 1.0]], quantize)
