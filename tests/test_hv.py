import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from vsabench.errors import DegenerateInputError, InvalidArgumentError
from vsabench.hv import (
    as_float64,
    as_hypervectors,
    as_tuple,
    bind,
    bundle,
    check_rows,
    check_seed,
    cosine_similarity,
    fill_bipolar,
    quantized,
    row_dots,
    safe_norms2,
    sample_hypervector,
    sum_products,
)

DIM = 4096


def finite_vectors(dim=8):
    return hnp.arrays(
        np.float64,
        dim,
        elements=st.floats(-100, 100, allow_nan=False, allow_infinity=False),
    )


class TestRandomHypervector:
    def test_determinism(self):
        a = sample_hypervector(DIM, np.random.default_rng(42))
        b = sample_hypervector(DIM, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)

    def test_bipolar_values(self):
        v = sample_hypervector(DIM, np.random.default_rng(0))
        assert set(np.unique(v)) <= {-1.0, 1.0}

    def test_dim_one(self):
        v = sample_hypervector(1, np.random.default_rng(3))
        assert v[0] in (-1.0, 1.0)

    def test_zero_dim_rejected(self):
        with pytest.raises(InvalidArgumentError):
            sample_hypervector(0, np.random.default_rng(1))

    @pytest.mark.parametrize("dim", [96.5, True, None, "x"])
    def test_non_integer_dim_rejected(self, dim):
        with pytest.raises(InvalidArgumentError, match="must be an integer dim"):
            sample_hypervector(dim, np.random.default_rng(0))

    def test_integral_float_dim_accepted(self):
        np.testing.assert_array_equal(
            sample_hypervector(96.0, np.random.default_rng(0)), sample_hypervector(96, np.random.default_rng(0)))

    def test_bad_seed_rejected(self):
        # the check that every seeded entry point (projector, random mapping, bench) runs
        for seed in (-1, 2**64):
            with pytest.raises(InvalidArgumentError):
                check_seed(seed)

    def test_distinct_seeds_near_orthogonal(self):
        # Monte-Carlo oracle: for bipolar pairs at dim n, E|cos| = sqrt(2/(pi n)).
        expected_abs = math.sqrt(2.0 / (math.pi * DIM))  # ~0.0125 at 4096
        sims = []
        for i in range(1000):
            a = sample_hypervector(DIM, np.random.default_rng(2 * i))
            b = sample_hypervector(DIM, np.random.default_rng(2 * i + 1))
            sims.append(abs(cosine_similarity(a, b)))
        assert max(sims) < 0.1
        assert np.mean(sims) <= 2 * expected_abs
        assert np.mean(sims) == pytest.approx(expected_abs, rel=0.15)


class TestBind:
    def test_hand_computed(self):
        np.testing.assert_array_equal(bind([1, -1, 1], [1, 1, -1]), [1.0, -1.0, -1.0])

    def test_identity_element(self):
        v = sample_hypervector(DIM, np.random.default_rng(1))
        np.testing.assert_array_equal(bind(v, np.ones(DIM)), v)

    def test_self_inverse_bipolar(self):
        v = np.random.default_rng(2).uniform(-1.0, 1.0, DIM)
        u = sample_hypervector(DIM, np.random.default_rng(3))
        np.testing.assert_array_equal(bind(bind(v, u), u), v)

    def test_dim_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            bind(np.ones(4), np.ones(5))

    @given(finite_vectors(), finite_vectors())
    def test_commutative(self, a, b):
        np.testing.assert_array_equal(bind(a, b), bind(b, a))

    @given(finite_vectors(), finite_vectors(), finite_vectors())
    def test_distributes_over_bundle(self, a, b, c):
        lhs = bind(a, bundle([b, c]))
        rhs = bundle([bind(a, b), bind(a, c)])
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


class TestBundle:
    def test_singleton(self):
        v = sample_hypervector(DIM, np.random.default_rng(4))
        np.testing.assert_array_equal(bundle([v]), v)

    def test_hand_computed(self):
        np.testing.assert_array_equal(bundle([[1, -1], [1, 1]]), [2.0, 0.0])

    def test_order_invariant(self):
        vs = [sample_hypervector(64, np.random.default_rng(s)) for s in range(5)]
        np.testing.assert_array_equal(bundle(vs), bundle(vs[::-1]))

    def test_empty_rejected(self):
        with pytest.raises(InvalidArgumentError):
            bundle([])

    def test_dim_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            bundle([np.ones(4), np.ones(5)])

    def test_two_component_similarity(self):
        # Monte-Carlo oracle: near-orthogonal components contribute norm
        # additively, so cos(a + b, a) concentrates at 1/sqrt(2).
        sims = [
            cosine_similarity(
                bundle([sample_hypervector(DIM, np.random.default_rng(2 * i)), sample_hypervector(DIM, np.random.default_rng(2 * i + 1))]),
                sample_hypervector(DIM, np.random.default_rng(2 * i)),
            )
            for i in range(50)
        ]
        assert np.mean(sims) == pytest.approx(1 / math.sqrt(2), abs=0.01)


class TestCosine:
    def test_identity(self):
        v = sample_hypervector(DIM, np.random.default_rng(6))
        assert cosine_similarity(v, v) == pytest.approx(1.0)

    def test_antipodal(self):
        v = sample_hypervector(DIM, np.random.default_rng(7))
        assert cosine_similarity(v, -v) == pytest.approx(-1.0)

    def test_scale_invariance(self):
        v = sample_hypervector(DIM, np.random.default_rng(8))
        assert cosine_similarity(v, 2 * v) == pytest.approx(1.0)

    def test_zero_norm_rejected(self):
        with pytest.raises(DegenerateInputError):
            cosine_similarity(np.zeros(4), np.ones(4))

    def test_flip_noise_identity(self):
        # flipping k of n bipolar entries gives cos = 1 - 2k/n exactly
        v = sample_hypervector(DIM, np.random.default_rng(11))
        for k in (0, 10, 409, 2048):
            w = v.copy()
            w[:k] *= -1
            assert cosine_similarity(v, w) == pytest.approx(1.0 - 2.0 * k / DIM, abs=1e-12)

    @pytest.mark.filterwarnings("ignore:overflow encountered in dot:RuntimeWarning")
    @pytest.mark.parametrize("scale", [7.14101239e-160, 1e-300, 1e200])
    def test_extreme_magnitudes_keep_their_cosine(self, scale):
        # squared norms of these vectors underflow or overflow in float64
        a = np.ones(8)
        assert cosine_similarity(a, scale * a) == pytest.approx(1.0, abs=1e-15)
        assert cosine_similarity(scale * a, -0.109375 * a) == pytest.approx(-1.0, abs=1e-15)
        b = np.array([1.0, 1.0, 0.0, 0.0])
        assert cosine_similarity(scale * b, scale * a[:4]) == pytest.approx(np.sqrt(0.5), abs=1e-15)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scale", [1.0, 1e-170, 1e-300, 1e200])
    @pytest.mark.parametrize("dim", [1, 7, 4096])
    def test_pair_equals_its_stacked_row_bitwise(self, dim, scale):
        rng = np.random.default_rng(dim)
        for _ in range(10):
            a, b = rng.standard_normal((2, dim))
            a *= scale
            for x, y in ((a, b), (b, a), (a, a)):
                assert cosine_similarity(x, y) == cosine_similarity(x[np.newaxis], y[np.newaxis])[0]

    def test_zero_pair_rejected_like_its_stacked_row(self):
        a, b = np.zeros(5), np.ones(5)
        for x, y in ((a, b), (b, a), (a[np.newaxis], b[np.newaxis])):
            with pytest.raises(DegenerateInputError, match=r"rows \[0\]"):
                cosine_similarity(x, y)

    @settings(max_examples=50)
    @given(finite_vectors(), finite_vectors(), st.floats(0.1, 50.0))
    def test_symmetric_and_scale_invariant(self, a, b, alpha):
        if np.linalg.norm(a) == 0 or np.linalg.norm(b) == 0:
            return
        assert cosine_similarity(a, b) == pytest.approx(cosine_similarity(b, a))
        assert cosine_similarity(alpha * a, b) == pytest.approx(cosine_similarity(a, b), abs=1e-9)


def bipolar_from_words(words, dim):
    """Entry c of row r is +1 where bit c % 32 of words[r, c // 32] is set, else -1."""
    c = np.arange(dim)
    bits = (words[:, c // 32] >> (c % 32).astype(np.uint32)) & 1
    return bits * 2.0 - 1.0


def word_draw(rng, rows, dim):
    """One uint32 draw of ceil(dim / 32) words per row, as a (rows, words) array."""
    return rng.integers(0, 2**32, size=rows * -(-dim // 32), dtype=np.uint32).reshape(rows, -1)


def assert_same_state(*gens):
    """Equal next 32-bit and 64-bit draws, so a buffered half of a 64-bit output matches too."""
    draws = [(g.integers(0, 2**32, size=3, dtype=np.uint32).tolist(), g.integers(2**62)) for g in gens]
    assert all(d == draws[0] for d in draws)


class TestFillBipolar:
    @pytest.mark.parametrize("shape", [(3, 256), (64, 4096), (1024, 384), (9, 7), (1, 5)])
    def test_equals_one_draw_and_one_draw_per_row(self, shape):
        out = fill_bipolar(np.empty(shape), np.random.default_rng(5))
        whole = np.random.default_rng(5)
        np.testing.assert_array_equal(out, bipolar_from_words(word_draw(whole, *shape), shape[1]))
        rows = np.random.default_rng(5)
        np.testing.assert_array_equal(out, [sample_hypervector(shape[1], rows) for _ in range(shape[0])])
        # the generators end in the same state
        filled = np.random.default_rng(5)
        fill_bipolar(np.empty(shape), filled)
        assert_same_state(filled, whole, rows)

    @pytest.mark.parametrize("bitgen", [np.random.PCG64, np.random.MT19937, np.random.Philox, np.random.SFC64])
    @pytest.mark.parametrize(
        "shape", [(1,), (7,), (9, 33), (64, 4096), (1152, 4096), (3, 2**17 + 1), (1, 2**19 + 3)]
    )
    def test_bits_and_state_equal_an_integers_0_2_draw(self, bitgen, shape):
        """Entries and generator state equal one integers(0, 2**32, dtype=uint32) word draw, read bit by bit."""
        # (3, 2**17 + 1) spans two sampler blocks and (1, 2**19 + 3) is one row longer than a block;
        # odd word counts leave half a 64-bit output buffered
        rows, dim = (1, *shape) if len(shape) == 1 else shape
        got, want = np.random.Generator(bitgen(11)), np.random.Generator(bitgen(11))
        out = fill_bipolar(np.empty(shape), got)
        np.testing.assert_array_equal(out.reshape(rows, dim), bipolar_from_words(word_draw(want, rows, dim), dim))
        np.testing.assert_array_equal(sample_hypervector(5, got), bipolar_from_words(word_draw(want, 1, 5), 5)[0])
        assert_same_state(got, want)

    @pytest.mark.parametrize("shape", [(7,), (9, 33), (1152, 4096), (3, 2**17 + 1)])
    def test_float32_fill_equals_float64_fill(self, shape):
        wide, narrow = np.random.default_rng(8), np.random.default_rng(8)
        want = fill_bipolar(np.empty(shape), wide)
        got = fill_bipolar(np.empty(shape, dtype=np.float32), narrow)
        assert got.dtype == np.float32
        np.testing.assert_array_equal(got, want)
        assert_same_state(wide, narrow)

    def test_balanced(self):
        """+1 and -1 are equally likely, overall and at each bit position of a word, within 6 sigma."""
        out = fill_bipolar(np.empty((256, 4096)), np.random.default_rng(17))
        assert abs(out.sum()) <= 6 * math.sqrt(out.size)
        by_bit = out.reshape(-1, 32).sum(axis=0)
        assert np.all(np.abs(by_bit) <= 6 * math.sqrt(out.size / 32))


class TestQuantized:
    def test_sign_maps_zero_to_plus_one(self):
        np.testing.assert_array_equal(quantized(np.array([-0.5, 0.0, -0.0, 2.0]), "sign"), [-1.0, 1.0, 1.0, 1.0])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sign_keeps_the_input_dtype(self, dtype):
        assert_same_bits(quantized(np.array([[-0.5, -0.0], [1e-30, 3.0]], dtype), "sign"),
                         np.array([[-1.0, 1.0], [1.0, 1.0]], dtype), dtype)

    def test_none_returns_input(self):
        v = np.array([0.25, -3.0])
        assert quantized(v, "none") is v

    def test_unknown_mode_rejected(self):
        with pytest.raises(InvalidArgumentError, match="quantize"):
            quantized(np.ones(2), "sgn")


def dot_cosine(a, b):
    """Reference: one cosine summed with np.dot, rescaling extreme vectors by a power of two."""
    na2, nb2 = np.dot(a, a), np.dot(b, b)
    if not (2.0**-500 <= na2 <= 2.0**500 and 2.0**-500 <= nb2 <= 2.0**500):
        a = np.ldexp(a, -np.frexp(np.max(np.abs(a)))[1])
        b = np.ldexp(b, -np.frexp(np.max(np.abs(b)))[1])
        na2, nb2 = np.dot(a, a), np.dot(b, b)
    return np.dot(a, b) / np.sqrt(na2 * nb2)


class TestStacks:
    def test_bind_stack_is_rowwise(self):
        rng = np.random.default_rng(0)
        a, b = rng.standard_normal((5, 16)), rng.standard_normal((5, 16))
        np.testing.assert_array_equal(bind(a, b), [bind(x, y) for x, y in zip(a, b)])

    @pytest.mark.parametrize("shapes", [((3, 8), (2, 8)), ((3, 8), (3, 9)), ((3, 8), (8,)), ((1, 2, 4), (1, 2, 4))])
    def test_shape_mismatch_rejected(self, shapes):
        a, b = np.ones(shapes[0]), np.ones(shapes[1])
        with pytest.raises(InvalidArgumentError):
            bind(a, b)
        with pytest.raises(InvalidArgumentError):
            cosine_similarity(a, b)

    def test_ragged_input_rejected(self):
        with pytest.raises(InvalidArgumentError, match="equal-length"):
            bind([np.ones(3), np.ones(4)], [np.ones(3), np.ones(4)])

    @pytest.mark.parametrize("v", [{"a": 1}, [1.0, "x"], "ab", [object()], [10**400]])
    def test_non_numeric_input_rejected(self, v):
        # numpy raises TypeError, ValueError or OverflowError for these
        with pytest.raises(InvalidArgumentError, match="equal-length"):
            as_hypervectors(v)

    def test_float64_array_is_not_copied(self):
        a = np.ones((3, 4))
        assert as_float64(a) is a and as_hypervectors(a) is a

    @pytest.mark.parametrize("v", [
        ["1.5", "2"], np.array(["1.5", "2"]), np.array([b"1", b"2"]), np.array([1 + 2j, 1]),
        np.array([1.0, 2.0], np.complex64), np.array(["1", 2.0], dtype=object), [10**30, "0.5"],
        np.array([np.complex64(1), 1.0], dtype=object),
    ])
    def test_text_and_complex_entries_rejected_not_parsed(self, v):
        # the cast would parse the text and drop the imaginary parts
        for call in (as_float64, as_hypervectors, lambda x: bind(x, [1.0, 1.0])):
            with pytest.raises(InvalidArgumentError, match="equal-length numeric vectors"):
                call(v)

    @pytest.mark.parametrize(
        "values,want", [([1, 2], (1, 2)), ((), ()), (iter("ab"), ("a", "b")), (np.arange(2), (0, 1))]
    )
    def test_as_tuple_accepts_iterables(self, values, want):
        assert as_tuple(values) == want

    @pytest.mark.parametrize("values", ["ab", b"ab", 3, None, np.float64(1.0)])
    def test_as_tuple_rejects_strings_and_non_iterables(self, values):
        with pytest.raises(InvalidArgumentError, match="must be a sequence"):
            as_tuple(values)

    def test_cosine_stack_equals_rowwise_bitwise(self):
        # rows of ordinary, tiny (squared norm underflows to 0) and huge magnitude
        rng = np.random.default_rng(1)
        a, b = rng.standard_normal((9, 64)), rng.standard_normal((9, 64))
        a[3] *= 1e-300
        b[4] *= 1e-170
        a[6] *= 1e200
        a[7] *= 1e-200
        b[7] *= 1e250
        b[8] *= 1e300
        with np.errstate(over="ignore"):
            rows = [dot_cosine(x, y) for x, y in zip(a, b)]
            stack = cosine_similarity(a, b)
        assert stack.shape == (9,)
        np.testing.assert_array_equal(stack, rows)
        assert [cosine_similarity(x, y) for x, y in zip(a, b)] == rows

    def test_squared_norm_underflowing_to_zero_is_not_zero(self):
        v = np.full((2, 8), 1e-300)
        assert np.dot(v[0], v[0]) == 0.0
        np.testing.assert_array_equal(cosine_similarity(v, v), [1.0, 1.0])

    def test_zero_rows_named(self):
        a = np.ones((4, 8))
        b = np.ones((4, 8))
        a[1] = 0.0
        b[3] = 0.0
        with pytest.raises(DegenerateInputError, match=r"rows \[1, 3\]"):
            cosine_similarity(a, b)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rows_named(self, bad):
        a = np.ones((4, 8))
        a[2, 5] = bad
        with pytest.raises(InvalidArgumentError, match=r"finite \(rows \[2\]\)"):
            bind(a, np.ones((4, 8)))


class TestSafeNorms2:
    KERNELS = [row_dots, sum_products]

    @pytest.mark.parametrize("norm2,scaled", [
        (2.0**-500, False),
        (2.0**500, False),
        (np.nextafter(2.0**-500, 0.0), True),
        (np.nextafter(2.0**500, np.inf), True),
    ])
    def test_range_is_closed(self, norm2, scaled):
        rows = np.full((2, 4), 3.0)

        def dots(a, b):  # the given squared norm for row 0 on the first call
            got = row_dots(a, b)
            if a.shape[0] == 2:
                got[0] = norm2
            return got

        out, norms2 = safe_norms2(rows, dots)
        assert (out is not rows) == scaled
        np.testing.assert_array_equal(rows, 3.0)
        if scaled:
            np.testing.assert_array_equal(out, [[0.75] * 4, [3.0] * 4])
            np.testing.assert_array_equal(norms2, [2.25, 36.0])
        else:
            np.testing.assert_array_equal(norms2, [norm2, 36.0])

    @pytest.mark.parametrize("dtype,summed_in,high", [
        (np.float64, None, 2.0**500),
        (np.float32, None, 2.0**100),
        (np.float64, np.float32, 2.0**100),  # float64 queries to a float32 cleanup scan
    ])
    @pytest.mark.parametrize("factor,scaled", [(1.0, False), (2.0, True)])
    def test_range_follows_the_summing_dtype(self, dtype, summed_in, high, factor, scaled):
        rows = np.full((2, 4), 3.0, dtype)
        for norm2 in (high * factor, 1.0 / (high * factor)):
            def dots(a, b, norm2=norm2):  # the given squared norm for row 0 on the first call
                got = row_dots(a, b)
                if a.shape[0] == 2:
                    got[0] = norm2
                return got

            out, _ = safe_norms2(rows, dots, summed_in)
            assert (out is not rows) == scaled

    @pytest.mark.parametrize("dots", KERNELS)
    def test_ordinary_rows_are_the_input_itself(self, dots):
        rows = np.random.default_rng(2).standard_normal((5, 33)) * [[1e-70], [1.0], [1e70], [2.0**-240], [2.0**240]]
        out, norms2 = safe_norms2(rows, dots)
        assert out is rows
        np.testing.assert_array_equal(norms2, dots(rows, rows))

    def test_sum_products_is_linalg_norm_squared_bitwise(self):
        # more entries than one row block holds, so the sum runs over two blocks
        rows = np.random.default_rng(3).standard_normal((1100, 300))
        norms2 = sum_products(rows, rows)
        assert norms2.tobytes() == np.sum(rows * rows, axis=1).tobytes()
        assert np.sqrt(norms2).tobytes() == np.linalg.norm(rows, axis=1).tobytes()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("dots", KERNELS)
    @pytest.mark.parametrize("with_extreme", [False, True])
    def test_zero_and_non_finite_rows_pass_unscaled(self, dots, with_extreme):
        rows = np.array([[0.0, 0.0, 0.0], [np.nan, 1.0, 2.0], [np.inf, 1.0, 2.0], [-np.inf, np.inf, 0.0], [1e-300, 0.0, 3e-300]])
        rows = rows if with_extreme else rows[:4]
        out, norms2 = safe_norms2(rows, dots)
        assert (out is rows) != with_extreme
        np.testing.assert_array_equal(out[:4], rows[:4])
        np.testing.assert_array_equal(norms2[:4], [0.0, np.nan, np.inf, np.inf])
        if with_extreme:
            # 3e-300 is 0.50175... * 2^-994
            np.testing.assert_array_equal(out[4], np.ldexp(rows[4], 994))
            assert 0.5 <= np.max(np.abs(out[4])) < 1.0
            assert norms2[4] == dots(out[4:], out[4:])[0]


def float32_stack(shape, seed):
    """float32 entries of magnitude 2^-80 to 2^60, with +0.0 and -0.0 scattered in
    (flat index 5 mod 11 and 7 mod 13), so that a product of two can underflow
    float32 and a sum of many rounds differently in float32 than in float64."""
    rng = np.random.default_rng(seed)
    v = (rng.standard_normal(shape) * np.exp2(rng.integers(-80, 61, shape))).astype(np.float32)
    flat = v.reshape(-1)
    flat[5::11], flat[7::13] = 0.0, -0.0
    return v


def assert_same_bits(got, want, dtype=np.float64):
    """Equal results of ``dtype``, bit for bit, -0.0 and 0.0 told apart."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype == dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def raised(call, *args):
    """The type and message of the error ``call(*args)`` raises."""
    with pytest.raises((InvalidArgumentError, DegenerateInputError)) as info:
        call(*args)
    return type(info.value), str(info.value)


class TestFloat32:
    """A float32 array is not copied, and each call gives the bits of the same call on
    its float64 widening; ``bind`` of two float32 arrays gives their float32 rounding."""

    def test_native_float32_is_not_copied(self):
        a = float32_stack((3, 4), 0)
        assert as_hypervectors(a) is a
        assert as_hypervectors(a.astype(">f4")).dtype == np.float64
        assert as_hypervectors(a.tolist()).dtype == np.float64

    @pytest.mark.parametrize("shape", [(4096,), (7, 4097), (300, 3)])
    def test_bind_and_cosine_match_widened(self, shape):
        a, b = float32_stack(shape, 1), float32_stack(shape, 2)
        wa, wb = a.astype(np.float64), b.astype(np.float64)
        for args in ((a, b), (a, wb), (wa, b)):
            assert_same_bits(cosine_similarity(*args), cosine_similarity(wa, wb))
        for args in ((a, wb), (wa, b)):
            assert_same_bits(bind(*args), bind(wa, wb))
        assert_same_bits(bind(wa, wb), wa * wb)
        # the float32 product is the float32 rounding of the exact float64 one
        assert_same_bits(bind(a, b), (wa * wb).astype(np.float32), np.float32)

    def test_cosine_in_row_blocks_matches_the_whole_stack(self):
        # 200 rows of 4096 entries are four row blocks; each row is summed on its own, and a
        # row scaled into range (2^+-600) is scaled alone, so the blocks give the whole-stack bits
        a, b = float32_stack((200, 4096), 8).astype(np.float64), float32_stack((200, 4096), 9).astype(np.float64)
        a[5] *= 2.0**600
        b[150] *= 2.0**-600
        (a2, na2), (b2, nb2) = safe_norms2(a, row_dots), safe_norms2(b, row_dots)
        assert_same_bits(cosine_similarity(a, b), row_dots(a2, b2) / np.sqrt(na2 * nb2))

    def test_bind_keeps_products_float32_would_lose(self):
        a, b = np.float32([-1e-30, 3e38]), np.float32([1e-30, 3e38])
        with np.errstate(over="ignore", under="ignore"):
            assert np.all(np.isin(a * b, [-0.0, np.inf]))  # underflow and overflow in float32
        assert_same_bits(bind(a, b), a.astype(np.float64) * b.astype(np.float64))
        assert bind(a, b)[0] < 0.0 and np.isfinite(bind(a, b)[1])

    @pytest.mark.parametrize("stack", [
        float32_stack((64, 4097), 3),
        float32_stack((2, 40000), 4).T,  # the summed axis is contiguous, and longer than numpy's cast buffer
        float32_stack((40000, 3), 5)[:, :1],
    ], ids=["rows", "transposed", "column"])
    def test_bundle_matches_widened(self, stack):
        assert_same_bits(bundle(stack), bundle(stack.astype(np.float64)))

    def test_errors_match_widened(self):
        a = float32_stack((5, 64), 6)
        a[[1, 3], 2] = [np.inf, np.nan]
        zero = float32_stack((4, 64), 7)
        zero[2] = 0.0
        # 200 rows of 4096 entries are four row blocks of the cosine; its rows are named across them
        tall, tall_zero = float32_stack((200, 4096), 10), float32_stack((200, 4096), 11)
        tall[[3, 130], 0] = [np.nan, np.inf]
        tall_zero[[70, 199]] = 0.0
        cases = [
            (cosine_similarity, (tall, tall_zero), "finite (rows [3, 130])"),
            (cosine_similarity, (tall_zero, tall_zero), "zero-norm vector (rows [70, 199])"),
            (bind, (a, a), "finite (rows [1, 3])"),
            (bundle, (a,), "finite (rows [1, 3])"),
            (cosine_similarity, (zero, zero), "(rows [2])"),
            (bind, (np.empty(0, np.float32),) * 2, "nonempty"),
            (bind, (np.ones((2, 2, 2), np.float32),) * 2, "(count, dim)"),
            (cosine_similarity, (zero, zero[:, :63]), "dimension mismatch"),
            (bundle, (zero[0],), "nonempty (count, dim) stack"),
        ]
        for call, args, named in cases:
            got = raised(call, *args)
            assert got == raised(call, *(x.astype(np.float64) for x in args))
            assert named in got[1]


class TestFinitenessGate:
    """Each array is checked for finiteness by the first pass that computes from it,
    so a product or sum that overflows float64 is rejected as well."""

    def test_as_hypervectors_reads_no_entry(self):
        assert np.isnan(as_hypervectors([np.nan, 1.0])[0])

    def test_bind_overflow_rejected(self):
        # a RuntimeWarning here would fail the test (pyproject turns them into errors)
        with pytest.raises(InvalidArgumentError, match=r"products must be finite \(rows \[0\]\)"):
            bind([1e200], [1e200])
        a = np.ones((3, 4))
        a[2, 1] = 1e300
        with pytest.raises(InvalidArgumentError, match=r"products must be finite \(rows \[2\]\)"):
            bind(a, a)

    def test_bundle_overflow_rejected(self):
        with pytest.raises(InvalidArgumentError, match="overflows float64"):
            bundle([[1e308], [1e308]])
        with pytest.raises(InvalidArgumentError, match=r"finite \(rows \[1\]\)"):
            bundle([[1e308], [np.inf]])

    def test_row_list_names_the_first_eight(self):
        with pytest.raises(InvalidArgumentError) as info:
            check_rows(np.full((200_000, 2), np.nan))
        assert len(str(info.value)) < 200
        assert str(info.value).endswith("(rows [0, 1, 2, 3, 4, 5, 6, 7] and 199992 more)")
        with pytest.raises(DegenerateInputError, match=r"zero \(rows \[0, 2, 4, 6, 8, 10, 12, 14\] and 2 more\)$"):
            check_rows(np.tile([[0.0], [1.0]], (10, 1)), "zero")

    def test_products_and_sums_at_the_float64_limit_pass(self):
        assert bind([1e154], [1e154])[0] == 1e154 * 1e154
        assert bundle([[1e308], [-1e308], [1e308]])[0] == 1e308


def test_each_array_is_checked_once(monkeypatch):
    """One gate call per array a public call computes from; none on an array it only passes on."""
    from vsabench import hv, mapping, memory

    calls = []

    def counting(values, *args, **kwargs):
        calls.append(values.shape)
        return check_rows(values, *args, **kwargs)

    for module in (hv, mapping, memory):
        monkeypatch.setattr(module, "check_rows", counting)
    stack = np.random.default_rng(0).standard_normal((3, 16))
    u = mapping.HypervectorMapping(per_patch=stack)
    mem, one = memory.ItemMemory(stack), memory.ItemMemory(stack[:1])
    cases = [
        (lambda: bind(stack, stack), [(3, 16)]),
        (lambda: bundle(stack), []),  # its sum is checked without the gate
        (lambda: cosine_similarity(stack, stack), [(3, 2)]),
        (lambda: mapping.apply_mapping(stack, u), [(3, 16)]),
        (lambda: mapping.estimate_mapping_paired(stack, stack), [(3, 16)]),
        (lambda: mapping.build_ground_truth_mapping(stack, stack), [(3, 16)]),
        (lambda: mapping.HypervectorMapping(per_patch=stack), [(3, 16)]),
        (lambda: memory.ItemMemory(stack), [(3, 1)]),
        (lambda: one.add(stack[1]), [(2, 1)]),
        (lambda: mem.cleanup(stack), [(3, 1)]),
    ]
    for call, want in cases:
        calls.clear()
        call()
        assert calls == want
