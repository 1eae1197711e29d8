import tracemalloc

import numpy as np
import pytest

from vsabench.errors import DegenerateInputError, InvalidArgumentError
from vsabench.hv import cosine_similarity
from vsabench.lsh import _NORM_ROWS, BLOCK_ROWS, LshProjector, new_projector, project, project_batch


def unit_pair_with_cosine(rng, m, rho):
    """Two unit vectors with cosine exactly rho (Gram-Schmidt construction)."""
    f1 = rng.standard_normal(m)
    f1 /= np.linalg.norm(f1)
    g = rng.standard_normal(m)
    g -= np.dot(g, f1) * f1
    g /= np.linalg.norm(g)
    f2 = rho * f1 + np.sqrt(1.0 - rho**2) * g
    return f1, f2


def projector_matrix(p):
    """The projector's (n, m) matrix, which the package itself never builds."""
    return np.concatenate(list(p.panels()))


class TestNewProjector:
    def test_row_norms(self):
        p = new_projector(m=100, n=50, seed=0)
        np.testing.assert_allclose(np.linalg.norm(projector_matrix(p), axis=1), 1.0, atol=1e-9)

    def test_determinism(self):
        a = new_projector(m=100, n=50, seed=13)
        b = new_projector(m=100, n=50, seed=13)
        np.testing.assert_array_equal(projector_matrix(a), projector_matrix(b))

    def test_rows_near_orthogonal_high_dim(self):
        # Monte-Carlo oracle: random unit rows in dim 4096 are near-orthogonal.
        p = new_projector(m=4096, n=32, seed=1)
        rows = projector_matrix(p)
        for i in range(p.n):
            for j in range(i + 1, p.n):
                assert abs(np.dot(rows[i], rows[j])) < 0.2

    @pytest.mark.parametrize("seed", [0, 21])
    def test_rows_match_full_matrix_formula(self, seed):
        # n is not a multiple of the normalization block, so the last block is short
        m, n = 300, 1000
        ref = np.random.default_rng(seed).standard_normal(size=(n, m))
        ref /= np.linalg.norm(ref, axis=1, keepdims=True)
        p = new_projector(m=m, n=n, seed=seed)
        assert projector_matrix(p).tobytes() == ref.tobytes()

    def test_zero_dims_rejected(self):
        with pytest.raises(InvalidArgumentError):
            new_projector(m=0, n=5, seed=0)
        with pytest.raises(InvalidArgumentError):
            new_projector(m=5, n=0, seed=0)

    def test_direct_construction_is_validated(self):
        with pytest.raises(InvalidArgumentError, match="m and n"):
            LshProjector(m=0, n=5, seed=0)
        with pytest.raises(InvalidArgumentError, match="cap 2147483648"):
            LshProjector(m=2**16, n=2**15 + 1, seed=0)
        with pytest.raises(InvalidArgumentError, match="seed"):
            LshProjector(m=5, n=5, seed=-1)

    @pytest.mark.parametrize("m,n", [(True, 4), (3, False), (3, 4.5), (None, 4), (3, "x")])
    def test_non_integer_sizes_rejected(self, m, n):
        with pytest.raises(InvalidArgumentError, match="must be an integer"):
            LshProjector(m=m, n=n, seed=0)
        with pytest.raises(InvalidArgumentError, match="must be an integer"):
            new_projector(m, n, 0)

    def test_integral_float_sizes_accepted(self):
        assert new_projector(3, 4.0, 0) == new_projector(3, 4, 0)
        assert type(new_projector(3.0, 4, 0).m) is int

    def test_building_draws_nothing(self):
        tracemalloc.start()
        try:
            p = new_projector(m=2**16, n=2**15, seed=0)  # a 16 GiB matrix, at the cap
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (p.m, p.n, p.seed) == (2**16, 2**15, 0)
        assert peak < 1 << 16

    @pytest.mark.parametrize("n", [1, 255, 256, 257, 511, 512, 513, 1000, 4097])
    def test_panels_are_full_width_but_the_last(self, n):
        heights = [len(panel) for panel in new_projector(m=3, n=n, seed=0).panels()]
        assert sum(heights) == n
        assert all(h == _NORM_ROWS for h in heights[:-1])
        assert min(n, _NORM_ROWS) <= heights[-1] < 2 * _NORM_ROWS


class TestProject:
    def test_output_range(self):
        p = new_projector(m=256, n=64, seed=2)
        rng = np.random.default_rng(3)
        for _ in range(20):
            h = project(p, rng.standard_normal(256))
            assert np.all(h >= -1.0) and np.all(h <= 1.0)

    def test_scale_invariance(self):
        p = new_projector(m=128, n=32, seed=4)
        f = np.random.default_rng(5).standard_normal(128)
        np.testing.assert_allclose(project(p, f), project(p, 3.0 * f), atol=1e-12)
        # power-of-two scaling is lossless, so equality is exact there
        np.testing.assert_array_equal(project(p, f), project(p, 4.0 * f))

    def test_sign_quantization(self):
        p = new_projector(m=128, n=32, seed=6)
        f = np.random.default_rng(7).standard_normal(128)
        h = project(p, f, quantize="sign")
        assert set(np.unique(h)) <= {-1.0, 1.0}

    def test_length_mismatch(self):
        p = new_projector(m=10, n=4, seed=0)
        with pytest.raises(InvalidArgumentError):
            project(p, np.ones(11))

    def test_zero_feature_rejected(self):
        p = new_projector(m=10, n=4, seed=0)
        with pytest.raises(DegenerateInputError):
            project(p, np.zeros(10))

    def test_similarity_preservation(self):
        # JL-style oracle: feature pairs with cosine 0.8 stay within +-0.1 after projection
        p = new_projector(m=2048, n=1024, seed=8)
        rng = np.random.default_rng(9)
        within = 0
        pairs = [unit_pair_with_cosine(rng, 2048, 0.8) for _ in range(100)]
        h1s, h2s = (project_batch(p, fs) for fs in zip(*pairs))
        for h1, h2 in zip(h1s, h2s):
            c = cosine_similarity(h1, h2)
            within += int(abs(c - 0.8) <= 0.1)
        assert within >= 95

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("theta", [0.1, np.pi / 4, np.pi / 2, 2.5, 3.0])
    def test_sign_cosine_follows_angle(self, theta, seed):
        # Charikar (2002): a random hyperplane splits two features at angle theta with
        # probability p = theta / pi, so the sign cosine estimates 1 - 2p with n draws
        n, m = 4096, 64
        p = theta / np.pi
        f1, f2 = unit_pair_with_cosine(np.random.default_rng(100 + seed), m, np.cos(theta))
        proj = new_projector(m=m, n=n, seed=seed)
        c = cosine_similarity(project(proj, f1, quantize="sign"), project(proj, f2, quantize="sign"))
        assert abs(c - (1.0 - 2.0 * p)) <= 4 * 2 * np.sqrt(p * (1.0 - p) / n)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_extreme_magnitudes_project_like_unit_scale(self, scale):
        # squared norms of these features overflow or underflow in float64
        p = new_projector(4, 3, 0)
        expected = project(p, [1.0, 1.0, 0.0, 0.0])
        np.testing.assert_allclose(project(p, [scale, scale, 0.0, 0.0]), expected, rtol=0, atol=1e-12)
        batch = project_batch(p, [[1.0, 0.0, 2.0, 0.0], [scale, scale, 0.0, 0.0]])
        np.testing.assert_array_equal(batch[0], project(p, [1.0, 0.0, 2.0, 0.0]))
        np.testing.assert_allclose(batch[1], expected, rtol=0, atol=1e-12)


class TestProjectBatch:
    def test_empty(self):
        p = new_projector(m=16, n=8, seed=0)
        out = project_batch(p, [])
        assert out.shape == (0, 8)
        assert out.dtype == np.float64

    def test_single_matches_project(self):
        p = new_projector(m=16, n=8, seed=0)
        f = np.random.default_rng(1).standard_normal(16)
        np.testing.assert_array_equal(project_batch(p, [f])[0], project(p, f))

    def test_batch_matches_elementwise_bitwise(self):
        p = new_projector(m=32, n=16, seed=2)
        rng = np.random.default_rng(3)
        fs = [rng.standard_normal(32) for _ in range(10)]
        batch = project_batch(p, fs)
        for f, h in zip(fs, batch):
            np.testing.assert_array_equal(h, project(p, f))

    def test_error_carries_patch_index(self):
        p = new_projector(m=8, n=4, seed=0)
        fs = [np.ones(8), np.zeros(8)]
        with pytest.raises(DegenerateInputError, match="patch 1"):
            project_batch(p, fs)

    def test_lowest_bad_patch_is_named(self):
        p = new_projector(m=8, n=4, seed=0)
        fs = np.ones((7, 8))
        fs[3] = 0.0
        fs[5, 2] = np.nan
        with pytest.raises(DegenerateInputError, match="patch 3"):
            project_batch(p, fs)
        fs[3] = 1.0
        with pytest.raises(InvalidArgumentError, match="patch 5"):
            project_batch(p, fs)

    def test_ragged_list_rejected(self):
        p = new_projector(m=8, n=4, seed=0)
        with pytest.raises(InvalidArgumentError, match="equal-length"):
            project_batch(p, [np.ones(8), np.ones(8), np.ones(7), np.ones(8)])
        with pytest.raises(InvalidArgumentError, match=r"\(2, 7\) are not \(count, m=8\)"):
            project_batch(p, [np.ones(7), np.ones(7)])

    def test_unknown_quantize_rejected(self):
        p = new_projector(m=8, n=4, seed=0)
        with pytest.raises(InvalidArgumentError, match="quantize"):
            project_batch(p, [np.ones(8)], quantize="sgn")

    def test_returns_count_by_n_array(self):
        p = new_projector(m=16, n=8, seed=0)
        fs = np.random.default_rng(1).standard_normal((BLOCK_ROWS + 3, 16))
        out = project_batch(p, fs)
        assert isinstance(out, np.ndarray) and out.shape == (BLOCK_ROWS + 3, 8)
        assert out.dtype == np.float64


class TestBatchIndependence:
    """A projected row depends only on its feature, never on the batch around it."""

    SIZES = (1, 7, 8, 9, 17, 203)

    @pytest.mark.parametrize("quantize", ["none", "sign"])
    @pytest.mark.parametrize("m,n", [(100, 257), (513, 129), (50, 4097), (7, 5), (1, 1), (384, 512)])
    def test_rows_bitwise_independent_of_batch(self, m, n, quantize):
        p = new_projector(m=m, n=n, seed=m + n)
        rng = np.random.default_rng(n)
        for count in self.SIZES:
            fs = rng.standard_normal((count, m))
            batch = project_batch(p, fs, quantize=quantize)
            for i in range(count):
                np.testing.assert_array_equal(batch[i], project(p, fs[i], quantize=quantize))
            for a, b in {(0, count), (1, count), (count // 2, count), (count // 3, count - 1), (2, 11)}:
                if a < b <= count:
                    np.testing.assert_array_equal(
                        project_batch(p, fs[a:b], quantize=quantize), batch[a:b]
                    )


def full_matrix_projection(m, n, seed, fs, quantize):
    """Projection as computed before the projector streamed: one draw of the
    whole (n, m) matrix, rows normalized, features multiplied in BLOCK_ROWS blocks."""
    rows = np.random.default_rng(seed).standard_normal(size=(n, m))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    count = len(fs)
    padded = -(-count // BLOCK_ROWS) * BLOCK_ROWS
    unit = np.zeros((padded, m))
    unit[:count] = fs / np.linalg.norm(fs, axis=1, keepdims=True)
    out = np.empty((padded, n))
    for start in range(0, padded, BLOCK_ROWS):
        np.matmul(unit[start : start + BLOCK_ROWS], rows.T, out=out[start : start + BLOCK_ROWS])
    out = np.clip(out[:count], -1.0, 1.0)
    return np.where(out >= 0.0, 1.0, -1.0) if quantize == "sign" else out


class TestStreaming:
    """The projector is drawn panel by panel, and projects as the whole matrix did."""

    @pytest.mark.parametrize("quantize", ["none", "sign"])
    @pytest.mark.parametrize(
        "m,n", [(300, 100), (7, 256), (50, 257), (300, 1000), (2048, 1000), (100, 1024), (50, 4097), (384, 4096)]
    )
    def test_equals_full_matrix_formula_bitwise(self, m, n, quantize):
        fs = np.random.default_rng(m * n).standard_normal((13, m))
        got = project_batch(new_projector(m=m, n=n, seed=n), fs, quantize=quantize)
        assert got.tobytes() == full_matrix_projection(m, n, n, fs, quantize).tobytes()

    @pytest.mark.parametrize("m,count", [(384, 1024), (6144, 64)])
    def test_full_panels_equal_full_matrix_formula_at_benchmark_shapes(self, m, count):
        # n = 512 is two full panels, each projected by one GEMM over the whole batch
        fs = np.random.default_rng(m).standard_normal((count, m))
        got = project_batch(new_projector(m=m, n=512, seed=m), fs)
        assert got.tobytes() == full_matrix_projection(m, 512, m, fs, "none").tobytes()

    @pytest.mark.parametrize("n,last_panel_rows", [(8192, 256), (8191, 511)])
    def test_peak_memory_is_one_panel(self, n, last_panel_rows):
        # the full n x 4096 float64 matrix would be 256 MB; the bound is 32 MB
        # for 256-row panels and covers the 511-row tail panel at n = 8191
        p = new_projector(m=4096, n=n, seed=3)
        fs = np.random.default_rng(4).standard_normal((8, 4096))
        tracemalloc.start()
        try:
            project_batch(p, fs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * last_panel_rows * 4096 * 8
