import tracemalloc
from functools import partial

import numpy as np
import pytest

from vsabench.errors import DegenerateInputError, InvalidArgumentError
from vsabench.hv import cosine_similarity
from vsabench.lsh import _PANEL_ROWS, BLOCK_ROWS, LshProjector, new_projector, project, project_batch

from test_mapping import ROW_BLOCK, SLACK


def unit_pair_with_cosine(rng, m, rho):
    """Two unit vectors with cosine exactly rho (Gram-Schmidt construction)."""
    f1 = rng.standard_normal(m)
    f1 /= np.linalg.norm(f1)
    g = rng.standard_normal(m)
    g -= np.dot(g, f1) * f1
    g /= np.linalg.norm(g)
    f2 = rho * f1 + np.sqrt(1.0 - rho**2) * g
    return f1, f2


def bipolar_matrix(n, m, seed, dtype=np.float32):
    """The (n, m) +-1 matrix S, from integer shifts of one uint32 draw: row r
    takes ceil(m / 32) words of its own, and entry c is +1 where bit c % 32 of
    word c // 32 is set. C order, as the package's panels are: OpenBLAS sums a
    product with a Fortran-ordered operand in another order."""
    words = np.random.default_rng(seed).integers(0, 2**32, size=(n, -(-m // 32)), dtype=np.uint32)
    c = np.arange(m)
    bits = (words[:, c // 32] >> (c % 32).astype(np.uint32)) & 1
    return np.ascontiguousarray(np.where(bits == 1, 1.0, -1.0), dtype=dtype)


def unit_rows(fs):
    """The rows of ``fs`` at unit length in float64, each first scaled by the power
    of two that puts its peak in [0.5, 1): that changes no unit vector, and keeps
    the squared norm of a row near 1e200 or 1e-200 in range."""
    fs = np.ldexp(fs, -np.frexp(np.max(np.abs(fs), axis=1, keepdims=True))[1])
    return fs / np.linalg.norm(fs, axis=1, keepdims=True)


def projector_matrix(p):
    """The projector's (n, m) matrix S / sqrt(m), which the package itself never builds."""
    return np.concatenate(list(p.panels()))[: p.n] / np.sqrt(p.m)


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
        # n is not a multiple of the panel height, so the last panel has rows past n;
        # m is not a multiple of 32, so each row leaves bits of its last word unused
        m, n = 300, 1000
        p = new_projector(m=m, n=n, seed=seed)
        assert np.concatenate(list(p.panels()))[:n].tobytes() == bipolar_matrix(n, m, seed).tobytes()

    def test_zero_dims_rejected(self):
        with pytest.raises(InvalidArgumentError):
            new_projector(m=0, n=5, seed=0)
        with pytest.raises(InvalidArgumentError):
            new_projector(m=5, n=0, seed=0)

    def test_direct_construction_is_validated(self):
        with pytest.raises(InvalidArgumentError, match="must be >= 1"):
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
        # the last panel is full height too: its rows past n continue the formula
        m = 33
        panels = list(new_projector(m=m, n=n, seed=0).panels())
        assert [panel.shape for panel in panels] == [(_PANEL_ROWS, m)] * -(-n // _PANEL_ROWS)
        rows = len(panels) * _PANEL_ROWS
        assert np.concatenate(panels).tobytes() == bipolar_matrix(rows, m, 0).tobytes()


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

    @pytest.mark.parametrize("m", [64, 384])
    def test_sign_law_holds_for_bipolar_rows_at_high_draw_count(self, m):
        # +-1 rows follow Charikar's law only as m grows, so gate it with 409,600
        # hyperplanes per angle, pooled over ten projector seeds and feature pairs;
        # the agreements are binomial in the draw count, which sets the SD
        thetas = np.array([0.1, np.pi / 4, np.pi / 2, 2.5, 3.0])
        n, seeds = 40960, range(10)
        agree = np.zeros(len(thetas))
        for seed in seeds:
            rng = np.random.default_rng(100 + seed)
            fs = np.concatenate([unit_pair_with_cosine(rng, m, np.cos(t)) for t in thetas])
            h = project_batch(new_projector(m=m, n=n, seed=seed), fs.reshape(-1, m), quantize="sign")
            agree += np.sum(h[0::2] * h[1::2], axis=1)
        draws = n * len(seeds)
        p = thetas / np.pi
        sd = 2 * np.sqrt(p * (1.0 - p) / draws)
        np.testing.assert_array_less(np.abs(agree / draws - (1.0 - 2.0 * p)), 4 * sd)

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
        assert out.dtype == np.float32
        with pytest.raises(InvalidArgumentError, match="quantize"):
            project_batch(p, [], quantize="sgn")

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
        with pytest.raises(DegenerateInputError, match=r"rows \[1\]"):
            project_batch(p, fs)

    def test_lowest_bad_patch_is_named(self):
        p = new_projector(m=8, n=4, seed=0)
        fs = np.ones((7, 8))
        fs[3] = 0.0
        with pytest.raises(DegenerateInputError, match=r"rows \[3\]"):
            project_batch(p, fs)
        fs[5, 2] = np.nan  # a non-finite feature wins over a zero one
        with pytest.raises(InvalidArgumentError, match=r"rows \[5\]"):
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
        assert out.dtype == np.float32 and out.flags.c_contiguous


class TestBatchIndependence:
    """A projected row depends only on its feature, never on the batch around it."""

    SIZES = (1, 7, 8, 9, 17, 203)

    @pytest.mark.parametrize("quantize", ["none", "sign"])
    @pytest.mark.parametrize(
        "m,n", [(100, 257), (513, 129), (50, 4097), (7, 5), (1, 1), (384, 512), (200, 96), (300, 255)]
    )
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


def full_matrix_projection(m, n, seed, fs, quantize, dtype=np.float32):
    """Projection without streaming, in ``dtype``: the whole +-1 matrix S at once,
    drawn to a multiple of 256 rows, the float64 unit features rounded to
    ``dtype`` and padded to BLOCK_ROWS rows, multiplied by S in one GEMM per 256
    columns, and the first n columns widened to float64, scaled by 1 / sqrt(m),
    clipped, quantized and rounded to ``dtype``."""
    width = -(-n // 256) * 256
    rows = bipolar_matrix(width, m, seed, dtype)
    count = len(fs)
    padded = -(-count // BLOCK_ROWS) * BLOCK_ROWS
    unit = np.zeros((padded, m), dtype=dtype)
    unit[:count] = unit_rows(fs)
    out = np.empty((padded, width), dtype=dtype)
    for col in range(0, width, 256):
        np.matmul(unit, rows[col : col + 256].T, out=out[:, col : col + 256])
    out = np.clip(out[:count, :n].astype(np.float64) * (1.0 / np.sqrt(m)), -1.0, 1.0)
    return (np.where(out >= 0.0, 1.0, -1.0) if quantize == "sign" else out).astype(dtype)


# the independent float64 reference that the float32 projection is bounded against
float64_projection = partial(full_matrix_projection, dtype=np.float64)


class TestStreaming:
    """The projector is drawn panel by panel, and projects as the whole float32 matrix does."""

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
        # n = 512 is two full panels, each projected by one SGEMM over the whole batch
        fs = np.random.default_rng(m).standard_normal((count, m))
        got = project_batch(new_projector(m=m, n=512, seed=m), fs)
        assert got.tobytes() == full_matrix_projection(m, 512, m, fs, "none").tobytes()

    @pytest.mark.parametrize("n", [8192, 8191])
    def test_peak_memory_is_one_panel(self, n):
        # the full n x 4096 float32 matrix would be 134 MB, and one 256-row panel
        # is 4.2 MB; each panel is dropped before the next is drawn, so the bound
        # is one and a half panels, at n = 8191 too, whose last panel is full height
        p = new_projector(m=4096, n=n, seed=3)
        fs = np.random.default_rng(4).standard_normal((8, 4096))
        tracemalloc.start()
        try:
            project_batch(p, fs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * _PANEL_ROWS * 4096 * 4 // 2


def test_encode_tail_peak_is_one_row_block():
    # encode-many's shape, 1024 patches of m = 384 at n = 4096: beside the float32 unit
    # features (1.5 MiB) and the float32 SGEMM output that becomes the result (16 MiB),
    # the tail widens, scales, clips and rounds one float64 row block (2 MiB) at a time
    count, m, n = 1024, 384, 4096
    fs = np.random.default_rng(5).standard_normal((count, m))
    p = new_projector(m=m, n=n, seed=5)
    tracemalloc.start()
    try:
        out = project_batch(p, fs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.dtype == np.float32 and out.shape == (count, n)
    assert peak < count * m * 4 + out.nbytes + ROW_BLOCK + SLACK


class TestFloat32Accuracy:
    """Each entry of the float32 projection lies within a proven bound of the float64
    product, and a sign differs from the float64 sign only inside that bound."""

    @staticmethod
    def bound(m, fs):
        """Per-row bound on |float32 entry - float64 entry|, as a (count, 1) column.

        The +-1 products are exact, so an inner product of m of them summed in
        precision 2^-t errs by at most gamma(t) sum |x_i| (Higham, Accuracy and
        Stability of Numerical Algorithms, 2nd ed., 3.1). The float32 sum runs over
        the rounded unit features u~, which move it by at most sum |u_i - u~_i|, and
        the float64 reference has its own gamma(53) term. Scaling by 1 / sqrt(m),
        which its square root and division round by a relative 2^-52 at most,
        multiplies the gap; rounding the two scaled products, each below 2 in
        magnitude, adds at most 2^-53 each; the clip to [-1, 1] shrinks no gap;
        rounding the clipped entry, at most 1 in magnitude, to float32 adds 2^-25."""
        u = unit_rows(fs)
        u32 = u.astype(np.float32).astype(np.float64)
        gamma = lambda t: m * 2.0**-t / (1.0 - m * 2.0**-t)  # noqa: E731
        gap = gamma(24) * np.abs(u32).sum(axis=1) + np.abs(u - u32).sum(axis=1) + gamma(53) * np.abs(u).sum(axis=1)
        return (gap / np.sqrt(m) * (1.0 + 2.0**-52) + 2.0**-51 + 2.0**-25)[:, np.newaxis]

    @pytest.mark.parametrize(
        "count,m,n", [(64, 6144, 4096), (1024, 384, 4096), (203, 16, 1000), (203, 64, 1000)]
    )
    def test_entries_and_signs_within_bound(self, count, m, n):
        fs = np.random.default_rng(m).standard_normal((count, m))
        fs[1] *= 1e200
        fs[2] *= 1e-200
        p = new_projector(m=m, n=n, seed=m + n)
        y64 = float64_projection(m, n, p.seed, fs, "none")
        bound = self.bound(m, fs)
        # a few percent of an entry's typical size 1 / sqrt(m) at m = 6144, far less at smaller m
        assert bound.max() < 4e-4
        got = project_batch(p, fs)
        assert got.dtype == np.float32
        err = np.abs(got - y64)
        worst = np.unravel_index((err / bound).argmax(), err.shape)
        assert (err <= bound).all(), f"error {err[worst]:.3e} over the bound {bound[worst[0], 0]:.3e} at {worst}"
        flipped = project_batch(p, fs, quantize="sign") != np.where(y64 >= 0.0, 1.0, -1.0)
        assert (np.abs(y64) <= bound)[flipped].all()
