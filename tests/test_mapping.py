import math

import numpy as np
import pytest

from vsabench.errors import InvalidArgumentError
from vsabench.hv import bind, bundle, cosine_similarity, random_hypervector
from vsabench.lsh import new_projector, project_batch
from vsabench.mapping import (
    HypervectorMapping,
    apply_mapping,
    build_ground_truth_mapping,
    estimate_mapping_paired,
    random_mapping,
)

DIM = 4096


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
        a, b = random_hypervector(64, seed=0), random_hypervector(64, seed=1)
        np.testing.assert_array_equal(build_ground_truth_mapping([a], [b]), bind(a, b))

    def test_pair_order_invariant(self):
        srcs = [random_hypervector(64, seed=2 * i) for i in range(4)]
        tgts = [random_hypervector(64, seed=2 * i + 1) for i in range(4)]
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
        rng = np.random.default_rng(8)
        expected = rng.integers(0, 2, size=shape).astype(np.float64) * 2.0 - 1.0
        np.testing.assert_array_equal(random_mapping(*shape, seed=8).per_patch, expected)

    def test_bipolar_entries(self):
        u = random_mapping(2, 128, seed=9)
        assert set(np.unique(u.per_patch)) <= {-1.0, 1.0}

    def test_zero_counts_rejected(self):
        with pytest.raises(InvalidArgumentError):
            random_mapping(0, 10, seed=0)
        with pytest.raises(InvalidArgumentError):
            random_mapping(10, 0, seed=0)

    def test_maps_to_noise(self):
        # near-orthogonality oracle: random mapping gives |cos| < 0.1 at dim 4096
        for s in range(20):
            v_src, v_tgt, _ = paired_scene(DIM, k=2, seed=700 + s)
            u = random_mapping(1, DIM, seed=s)
            mapped = apply_mapping([v_src], u)[0]
            assert abs(cosine_similarity(mapped, v_tgt)) < 0.1
