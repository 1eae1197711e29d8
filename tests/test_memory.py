import math

import numpy as np
import pytest

from vsabench.errors import DegenerateInputError, InvalidArgumentError
from vsabench.hv import bundle, cosine_similarity, sample_hypervector
from vsabench.memory import ItemMemory

from test_hv import float32_stack, raised

DIM = 4096


def filled_memory(n_items, dim, seed0=0):
    mem = ItemMemory(sample_hypervector(dim, np.random.default_rng(seed0))[np.newaxis])
    for i in range(1, n_items):
        mem.add(sample_hypervector(dim, np.random.default_rng(seed0 + i)))
    return mem


def assert_same(got, want):
    """Two cleanup results: equal integer index arrays, and float64 similarity arrays equal bit for bit."""
    (got_indices, got_sims), (want_indices, want_sims) = got, want
    assert got_indices.dtype.kind == want_indices.dtype.kind == "i"
    assert got_sims.dtype == want_sims.dtype == np.float64
    np.testing.assert_array_equal(got_indices, want_indices, strict=True)
    assert got_sims.shape == want_sims.shape and got_sims.tobytes() == want_sims.tobytes()


def stacked(results):
    """The 1-D cleanup results of a stack's rows, stacked as the stack's own result."""
    return tuple(np.stack(arrays) for arrays in zip(*results))


def by_entry(result):
    """A full ranking's similarities put back in entry order."""
    indices, sims = result
    out = np.empty_like(sims)
    np.put_along_axis(out, indices, sims, axis=-1)
    return out


class TestAdd:
    def test_exact_lookup_after_add(self):
        mem = filled_memory(2, 256, seed0=10)
        v = sample_hypervector(256, np.random.default_rng(1))
        mem.add(v)
        indices, sims = mem.cleanup(v)
        assert indices.tolist() == [2]
        assert sims[0] == pytest.approx(1.0)

    def test_dim_mismatch_rejected(self):
        mem = filled_memory(1, 64)
        with pytest.raises(InvalidArgumentError):
            mem.add(sample_hypervector(65, np.random.default_rng(9)))

    def test_preserves_previous_entries(self):
        mem = filled_memory(3, 64)
        mem.add(sample_hypervector(64, np.random.default_rng(50)))
        assert len(mem) == 4
        for i, seed in enumerate((0, 1, 2, 50)):
            assert mem.cleanup(sample_hypervector(64, np.random.default_rng(seed)))[0].tolist() == [i]


class TestCleanup:
    def test_noisy_query_similarity_identity(self):
        # flipping 10% of bipolar entries gives similarity exactly 1 - 2*0.1
        dim = 5000
        mem = filled_memory(8, dim, seed0=200)
        v = sample_hypervector(dim, np.random.default_rng(999))
        mem.add(v)
        noisy = v.copy()
        noisy[: dim // 10] *= -1
        indices, sims = mem.cleanup(noisy)
        assert indices.tolist() == [8]
        assert sims[0] == pytest.approx(0.8, abs=1e-12)

    def test_bundle_query_returns_both(self):
        mem = filled_memory(10, DIM, seed0=100)
        v0 = sample_hypervector(DIM, np.random.default_rng(100))
        v3 = sample_hypervector(DIM, np.random.default_rng(103))
        indices, sims = mem.cleanup(bundle([v0, v3]), k=2)
        assert set(indices.tolist()) == {0, 3}
        np.testing.assert_allclose(sims, 1 / math.sqrt(2), atol=0.05)

    def test_k_equal_len_returns_every_label_once(self):
        mem = filled_memory(6, 128)
        indices, _ = mem.cleanup(sample_hypervector(128, np.random.default_rng(77)), k=6)
        assert sorted(indices.tolist()) == list(range(6))

    def test_scale_invariant(self):
        mem = filled_memory(5, 256)
        q = sample_hypervector(256, np.random.default_rng(40))
        assert_same(mem.cleanup(q, k=5), mem.cleanup(4.0 * q, k=5))

    def test_tie_break_insertion_order(self):
        v = sample_hypervector(64, np.random.default_rng(5))
        mem = ItemMemory(v[np.newaxis])
        mem.add(v.copy())
        assert mem.cleanup(v, k=2)[0].tolist() == [0, 1]

    def test_results_are_an_index_and_a_float64_similarity_array(self):
        rows = np.stack([sample_hypervector(64, np.random.default_rng(i)) for i in range(5)])
        q = sample_hypervector(64, np.random.default_rng(9))
        for mem in (ItemMemory(rows), ItemMemory(rows.astype(np.float32))):
            for query, shape in ((q, (3,)), (q.astype(np.float32), (3,)), (np.stack([q, -q]), (2, 3))):
                indices, sims = mem.cleanup(query, k=3)
                assert indices.shape == sims.shape == shape
                assert indices.dtype.kind == "i" and sims.dtype == np.float64

    def test_empty_memory_rejected(self):
        # a memory holds at least one entry: it has no empty constructor, and zero rows are rejected
        with pytest.raises(TypeError):
            ItemMemory()
        with pytest.raises(InvalidArgumentError):
            ItemMemory(np.empty((0, 4)))

    def test_zero_query_rejected(self):
        mem = filled_memory(2, 16)
        with pytest.raises(DegenerateInputError):
            mem.cleanup(np.zeros(16))


class TestStackedCleanup:
    def test_integer_stack_equals_its_rows_exactly(self):
        # bipolar rows and integer queries: every dot product is an exact integer
        rng = np.random.default_rng(6)
        rows = rng.integers(0, 2, size=(300, 1031)) * 2.0 - 1.0
        mem = ItemMemory(rows)
        queries = rng.integers(-16, 17, size=(13, 1031)).astype(np.float64)
        got = mem.cleanup(queries, k=5)
        assert got[0].shape == (13, 5)
        assert_same(got, stacked(mem.cleanup(q, k=5) for q in queries))

    def test_float_stack_has_the_labels_of_its_rows(self):
        rng = np.random.default_rng(7)
        mem = ItemMemory(rng.standard_normal((50, 257)))
        queries = rng.standard_normal((9, 257))
        indices, sims = mem.cleanup(queries, k=4)
        want_indices, want_sims = stacked(mem.cleanup(q, k=4) for q in queries)
        np.testing.assert_array_equal(indices, want_indices)
        np.testing.assert_allclose(sims, want_sims, rtol=1e-12)

    def test_single_row_stack_is_a_list_of_one(self):
        mem = filled_memory(4, 64)
        q = sample_hypervector(64, np.random.default_rng(2))
        assert_same(mem.cleanup(q[np.newaxis], k=2), stacked([mem.cleanup(q, k=2)]))

    def test_zero_row_named(self):
        mem = filled_memory(3, 16)
        queries = np.ones((4, 16))
        queries[2] = 0.0
        with pytest.raises(DegenerateInputError, match=r"rows \[2\]"):
            mem.cleanup(queries)
        with pytest.raises(DegenerateInputError):
            mem.cleanup(queries[2])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_row_named(self, bad):
        mem = filled_memory(3, 16)
        queries = np.ones((4, 16))
        queries[3, 7] = bad
        with pytest.raises(InvalidArgumentError, match=r"rows \[3\]"):
            mem.cleanup(queries)
        with pytest.raises(InvalidArgumentError):
            mem.cleanup(queries[3])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_extreme_row_cleans_up_like_its_1d_call(self, scale):
        rng = np.random.default_rng(9)
        mem = ItemMemory(rng.standard_normal((6, 64)))
        queries = rng.standard_normal((3, 64))
        queries[1] *= scale
        indices, sims = mem.cleanup(queries, k=6)
        for want_indices, want_sims in (mem.cleanup(queries[1], k=6), mem.cleanup(queries[1] / scale, k=6)):
            np.testing.assert_array_equal(indices[1], want_indices)
            np.testing.assert_allclose(sims[1], want_sims, rtol=1e-12)

    @pytest.mark.parametrize("shape", [(2, 17), (17,), (2, 3, 16)])
    def test_wrong_shape_rejected(self, shape):
        with pytest.raises(InvalidArgumentError):
            filled_memory(2, 16).cleanup(np.ones(shape))


class TestCleanupK:
    @pytest.mark.parametrize("k", [True, False, 1.5, 2.0000001, "two", None])
    def test_non_integer_k_rejected(self, k):
        with pytest.raises(InvalidArgumentError):
            filled_memory(3, 16).cleanup(np.ones(16), k=k)

    def test_integral_float_k_is_that_integer(self):
        mem = filled_memory(4, 64)
        q = sample_hypervector(64, np.random.default_rng(1))
        assert_same(mem.cleanup(q, k=2.0), mem.cleanup(q, k=np.int64(2)))
        assert_same(mem.cleanup(q, k=2.0), mem.cleanup(q, k=2))
        assert mem.cleanup(q, k=3.0)[0].shape == (3,)

    @pytest.mark.parametrize("k", [0, -1, 0.0])
    def test_k_below_one_rejected(self, k):
        with pytest.raises(InvalidArgumentError):
            filled_memory(3, 16).cleanup(np.ones(16), k=k)

    def test_k_above_entry_count_rejected(self):
        # a short result would change the shape of the arrays without saying so
        mem = filled_memory(3, 16)
        with pytest.raises(InvalidArgumentError, match=r"^k must be <= 3, the memory's entry count, got 10$"):
            mem.cleanup(np.ones(16), k=10)
        with pytest.raises(InvalidArgumentError):
            mem.cleanup(np.ones((2, 16)), k=4)
        assert mem.cleanup(np.ones((2, 16)), k=3)[0].shape == (2, 3)
        mem.add(-np.ones(16))
        assert mem.cleanup(np.ones(16), k=4)[0].shape == (4,)


def parent_formula(vectors, query):
    """(indices, similarities) from a stacked scan sorted by (-similarity, index)."""
    stack = np.stack(vectors)
    sims = (stack @ query) / np.sqrt(np.sum(stack * stack, axis=1) * np.dot(query, query))
    order = np.array(sorted(range(len(sims)), key=lambda i: (-sims[i], i)))
    return order, sims[order]


class TestGrowth:
    def test_add_after_cleanup_is_visible(self):
        mem = filled_memory(3, 64)
        v = sample_hypervector(64, np.random.default_rng(77))
        assert mem.cleanup(v)[1][0] < 1.0
        mem.add(v)
        assert_same(mem.cleanup(v), (np.array([3]), np.array([1.0])))
        assert len(mem) == 4

    def test_similarities_bitwise_equal_to_stacked_scan(self):
        # non-integer entries, an odd dim and a count that crosses several capacity doublings
        rng = np.random.default_rng(3)
        vectors = list(rng.standard_normal((37, 1031)) * rng.uniform(0.1, 10.0, (37, 1)))
        mem = ItemMemory(vectors[0][np.newaxis])
        for v in vectors[1:]:
            mem.add(v)
        for _ in range(5):
            q = rng.standard_normal(1031)
            assert_same(mem.cleanup(q, k=37), parent_formula(vectors, q))


class TestFromMatrix:
    def test_matches_memory_built_by_add(self):
        rng = np.random.default_rng(4)
        matrix = rng.standard_normal((20, 257))
        built = ItemMemory(matrix[:1].copy())
        for row in matrix[1:]:
            built.add(row.copy())
        adopted = ItemMemory(matrix)
        assert len(adopted) == len(built) == 20 and adopted.dim == 257
        for _ in range(5):
            q = rng.standard_normal(257)
            assert_same(adopted.cleanup(q, k=20), built.cleanup(q, k=20))

    def test_add_after_from_matrix_leaves_matrix_alone(self):
        matrix = np.stack([sample_hypervector(32, np.random.default_rng(i)) for i in range(3)])
        before = matrix.copy()
        mem = ItemMemory(matrix)
        mem.add(sample_hypervector(32, np.random.default_rng(9)))
        assert len(mem) == 4
        assert mem.cleanup(sample_hypervector(32, np.random.default_rng(9)))[0].tolist() == [3]
        assert mem.cleanup(matrix[1])[0].tolist() == [1]
        np.testing.assert_array_equal(matrix, before)

    def test_tie_break_insertion_order(self):
        v = sample_hypervector(64, np.random.default_rng(5))
        mem = ItemMemory(np.stack([v, v]))
        assert mem.cleanup(v, k=2)[0].tolist() == [0, 1]

    def test_zero_row_rejected(self):
        matrix = np.ones((3, 8))
        matrix[1] = 0.0
        with pytest.raises(DegenerateInputError):
            ItemMemory(matrix)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_rejected(self, bad):
        matrix = np.ones((3, 8))
        matrix[2, 5] = bad
        with pytest.raises(InvalidArgumentError):
            ItemMemory(matrix)

    @pytest.mark.filterwarnings("ignore:overflow encountered in multiply:RuntimeWarning")
    def test_huge_finite_entries_accepted_as_add_accepts_them(self):
        # the squared norm overflows to inf, which is not a non-finite entry
        row = np.full(8, 1e200)
        ItemMemory(np.ones((1, 8))).add(row)
        assert len(ItemMemory(row[None, :])) == 1

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_extreme_magnitudes_clean_up_like_unit_scale(self, scale):
        # squared norms of these rows and queries overflow or underflow in float64
        rng = np.random.default_rng(8)
        rows = rng.standard_normal((6, 64))
        queries = rows[:3] + rng.standard_normal((3, 64))
        unit = ItemMemory(rows)
        added = ItemMemory(scale * rows[:1])
        for row in scale * rows[1:]:
            added.add(row)
        for mem in (ItemMemory(scale * rows), added):
            for q in queries:
                indices, sims = mem.cleanup(scale * q, k=6)
                np.testing.assert_array_equal(indices, unit.cleanup(q, k=6)[0])
                for i, sim in zip(indices, sims):
                    assert abs(sim - cosine_similarity(scale * rows[i], scale * q)) <= 1e-12

    @pytest.mark.parametrize("matrix", [
        np.ones(8),  # not an (n, dim) matrix
        np.ones((1, 0)),  # empty rows
    ])
    def test_shape_mismatch_rejected(self, matrix):
        with pytest.raises(InvalidArgumentError):
            ItemMemory(matrix)

    @pytest.mark.parametrize("matrix", [[[1.0], [1.0, 2.0]], [["a"], ["b"]], [[{}], [1.0]]])
    def test_ragged_or_non_numeric_matrix_rejected(self, matrix):
        with pytest.raises(InvalidArgumentError, match="equal-length"):
            ItemMemory(matrix)

    def test_dim_mismatch_on_add_and_query_rejected(self):
        mem = ItemMemory(np.ones((1, 8)))
        with pytest.raises(InvalidArgumentError):
            mem.add(np.ones(9))
        with pytest.raises(InvalidArgumentError):
            mem.cleanup(np.ones(9))


class TestTopOne:
    def test_ties_go_to_the_earlier_entry(self):
        v = sample_hypervector(64, np.random.default_rng(5))
        mem = ItemMemory(np.stack([-v, v, v]))
        assert_same(mem.cleanup(v), (np.array([1]), np.array([1.0])))
        assert_same(mem.cleanup(np.stack([v, -v])), (np.array([[1], [0]]), np.array([[1.0], [1.0]])))

    def test_equals_the_head_of_the_full_ranking(self):
        # integer rows and queries with many tied similarities
        rng = np.random.default_rng(12)
        mem = ItemMemory(rng.integers(-1, 2, size=(40, 9)).astype(np.float64))
        queries = rng.integers(-2, 3, size=(200, 9)).astype(np.float64)
        queries[:, 0] = 3.0  # no zero query
        indices, sims = mem.cleanup(queries, k=40)
        assert_same(mem.cleanup(queries), (indices[:, :1], sims[:, :1]))


class TestFloat32Rows:
    def bipolar(self, shape, seed):
        return np.random.default_rng(seed).integers(0, 2, size=shape).astype(np.float32) * 2 - 1

    def test_adopted_without_a_copy(self):
        matrix = self.bipolar((5, 64), 1)
        mem = ItemMemory(matrix)
        matrix[3] = matrix[0]  # the memory scans the caller's rows
        assert_same(mem.cleanup(matrix[0], k=2), (np.array([0, 3]), np.array([1.0, 1.0])))

    def test_integer_scan_equals_the_float64_memory(self):
        # bundles of 16 bipolar rows at dim 4096: every partial dot sum is at most 2^16
        rows = self.bipolar((300, 4096), 2)
        queries = np.stack([rows[i : i + 16].sum(axis=0) for i in range(0, 160, 10)]).astype(np.float64)
        narrow, wide = ItemMemory(rows), ItemMemory(rows.astype(np.float64))
        for k in (1, 5):
            assert_same(narrow.cleanup(queries, k=k), wide.cleanup(queries, k=k))

    def test_float_scan_carries_float32_rounding(self):
        rng = np.random.default_rng(3)
        rows = rng.standard_normal((50, 257)).astype(np.float32)
        narrow, wide = ItemMemory(rows), ItemMemory(rows.astype(np.float64))
        q = rng.standard_normal(257)
        errors = np.abs(by_entry(narrow.cleanup(q, k=50)) - by_entry(wide.cleanup(q, k=50)))
        assert 0.0 < errors.max() < 1e-6
        assert narrow.cleanup(q)[0].tolist() == wide.cleanup(q)[0].tolist()

    def test_add_widens_to_float64(self):
        rows = self.bipolar((3, 32), 4)
        mem = ItemMemory(rows)
        extra = np.full(32, 1.0 + 2.0**-40)  # float32 would round this to all ones
        mem.add(extra)
        wide = ItemMemory(np.vstack([rows, extra[np.newaxis]]))
        q = np.linspace(-1.0, 1.0, 32) + 2.0**-40
        assert_same(mem.cleanup(q, k=4), wide.cleanup(q, k=4))
        np.testing.assert_array_equal(rows, self.bipolar((3, 32), 4))

    @pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e-46, 1e-38, 1.0, 1e36, 1e39, 1e200, 1e300])
    def test_query_at_any_scale_matches_the_float64_memory(self, scale):
        # a query of extreme norm is scaled by a power of two before the float32
        # cast, so none underflows to zero or overflows to inf in the scan
        rng = np.random.default_rng(0)
        rows = rng.standard_normal((4, 4096)).astype(np.float32)
        narrow, wide = ItemMemory(rows), ItemMemory(rows.astype(np.float64))
        noisy = rows[2] + rng.standard_normal(4096)
        for q in (rows[2].astype(np.float64) * scale, noisy * scale, np.stack([noisy, rows[1]]) * scale):
            got, want = narrow.cleanup(q, k=4), wide.cleanup(q, k=4)
            np.testing.assert_array_equal(got[0][..., 0], want[0][..., 0])
            assert np.all(np.abs(by_entry(got) - by_entry(want)) < 1e-6)

    @pytest.mark.parametrize("scale", [1e-25, 1e-22, 1e-20, 1e-15, 1e-5, 1.0, 1e5, 1e10, 1e15, 1e18])
    def test_rows_at_any_scale_match_the_float64_memory(self, scale):
        # a row whose float32 squares would be subnormal (scale near 1e-22) or whose
        # float32 squared norm overflows (1e18) is scaled by a power of two when stored
        base = np.random.default_rng(0).standard_normal((4, 4096))
        rows = (base * scale).astype(np.float32)
        narrow, wide = ItemMemory(rows), ItemMemory(rows.astype(np.float64))
        got, want = narrow.cleanup(base, k=4), wide.cleanup(base, k=4)
        np.testing.assert_array_equal(got[0][:, 0], want[0][:, 0])
        assert np.all(np.abs(by_entry(got) - by_entry(want)) < 1e-6)

    @pytest.mark.parametrize("s", [60, -60, 101, -101, 200, -200, 499, -499, 501, -501, 600, -600])
    def test_scaled_integer_queries_give_the_float64_memory_bits(self, s):
        # hv.safe_norms2 scales a query into the range of the dtype the scan sums in by a power of
        # two, which is exact, so both memories scan the same integers up to a power of two
        rows, attrs = self.bipolar((40, 256), 5), self.bipolar((4, 256), 6)
        # unbound bundles of four bindings: row j plus three noise terms, integer-valued
        queries = np.stack([attrs[0] * (rows[j : j + 4] * attrs).sum(axis=0) for j in (0, 9, 30)]).astype(np.float64)
        narrow, wide = ItemMemory(rows), ItemMemory(rows.astype(np.float64))
        for q in (np.ldexp(queries[1], s), np.ldexp(queries, s)):
            for k in (1, 40):
                got = narrow.cleanup(q, k=k)
                assert_same(got, wide.cleanup(q, k=k))
                assert got[0][..., 0].tolist() == (9 if q.ndim == 1 else [0, 9, 30])


class TestFloat32Vectors:
    """float32 vectors and queries give the results and the errors of their
    float64 widening, in a float64 memory and in a float32 one."""

    def test_add_and_cleanup_match_widened(self):
        rows, queries = float32_stack((40, 1031), 1), float32_stack((6, 1031), 2)
        narrow, wide = ItemMemory(rows[:1]), ItemMemory(rows[:1].astype(np.float64))
        for row in rows[1:]:
            narrow.add(row)
            wide.add(row.astype(np.float64))
        adopted = ItemMemory(rows)
        for mem, want in ((narrow, wide), (adopted, adopted)):
            for k in (1, 40):
                assert_same(mem.cleanup(queries, k=k), want.cleanup(queries.astype(np.float64), k=k))
                assert_same(mem.cleanup(queries[3], k=k), want.cleanup(queries[3].astype(np.float64), k=k))

    def test_grown_memory_matches_from_matrix_of_widened_rows(self):
        # float32 sums of these rows' squares round differently from float64 ones
        rng = np.random.default_rng(6)
        rows, queries = rng.standard_normal((6, 64)).astype(np.float32), rng.standard_normal((4, 64))
        grown = ItemMemory(rows[:5]).add(rows[5])
        built = ItemMemory(rows.astype(np.float64))
        assert_same(grown.cleanup(queries, k=6), built.cleanup(queries, k=6))

    def test_errors_match_widened(self):
        mem = ItemMemory(float32_stack((3, 16), 3))
        queries = float32_stack((5, 16), 4)
        queries[[1, 4]] = 0.0
        inf = float32_stack((16,), 5)
        inf[3] = np.inf
        def add(v):
            return ItemMemory(np.ones((1, 16))).add(v)

        for call, arg, named in (
            (mem.cleanup, queries, "(rows [1, 4])"),
            (mem.cleanup, queries[:, :15], "query shape"),
            (add, queries[1], "zero-norm vector (rows [1])"),
            (add, inf, "finite"),
            (add, queries, "nonempty (dim,) vector"),
        ):
            got = raised(call, arg)
            assert got == raised(call, arg.astype(np.float64))
            assert named in got[1]


def test_noise_bundled_recovery_rate():
    # seeded Monte-Carlo: symbol + equal-norm bundled noise recovered >= 99%
    # from a 100-symbol memory at dim 4096
    rng = np.random.default_rng(0)
    symbols = [rng.integers(0, 2, size=DIM).astype(np.float64) * 2 - 1 for _ in range(100)]
    mem = ItemMemory(np.stack(symbols))
    correct = 0
    trials = 300
    for t in range(trials):
        idx = int(rng.integers(0, 100))
        noise = rng.integers(0, 2, size=DIM).astype(np.float64) * 2 - 1
        query = symbols[idx] + noise
        correct += int(mem.cleanup(query)[0][0] == idx)
    assert correct / trials >= 0.99
