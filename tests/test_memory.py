import math

import numpy as np
import pytest

from vsabench.errors import DegenerateInputError, InvalidArgumentError, InvalidStateError
from vsabench.hv import bundle, cosine_similarity, random_hypervector
from vsabench.memory import ItemMemory

DIM = 4096


def filled_memory(n_items, dim, seed0=0):
    mem = ItemMemory()
    for i in range(n_items):
        mem.add(f"item{i}", random_hypervector(dim, seed=seed0 + i))
    return mem


class TestAdd:
    def test_exact_lookup_after_add(self):
        mem = ItemMemory()
        v = random_hypervector(256, seed=1)
        mem.add("x", v)
        label, sim = mem.cleanup(v)[0]
        assert label == "x"
        assert sim == pytest.approx(1.0)

    def test_duplicate_label_rejected(self):
        mem = filled_memory(2, 64)
        with pytest.raises(InvalidArgumentError):
            mem.add("item0", random_hypervector(64, seed=9))

    def test_dim_mismatch_rejected(self):
        mem = filled_memory(1, 64)
        with pytest.raises(InvalidArgumentError):
            mem.add("other", random_hypervector(65, seed=9))

    def test_preserves_previous_entries(self):
        mem = filled_memory(3, 64)
        mem.add("extra", random_hypervector(64, seed=50))
        assert mem.labels == ["item0", "item1", "item2", "extra"]


class TestCleanup:
    def test_noisy_query_similarity_identity(self):
        # flipping 10% of bipolar entries gives similarity exactly 1 - 2*0.1
        dim = 5000
        mem = filled_memory(8, dim, seed0=200)
        v = random_hypervector(dim, seed=999)
        mem.add("probe", v)
        noisy = v.copy()
        noisy[: dim // 10] *= -1
        label, sim = mem.cleanup(noisy)[0]
        assert label == "probe"
        assert sim == pytest.approx(0.8, abs=1e-12)

    def test_bundle_query_returns_both(self):
        mem = filled_memory(10, DIM, seed0=100)
        v0 = random_hypervector(DIM, seed=100)
        v3 = random_hypervector(DIM, seed=103)
        top2 = mem.cleanup(bundle([v0, v3]), k=2)
        labels = {label for label, _ in top2}
        assert labels == {"item0", "item3"}
        for _, sim in top2:
            assert sim == pytest.approx(1 / math.sqrt(2), abs=0.05)

    def test_k_equal_len_returns_every_label_once(self):
        mem = filled_memory(6, 128)
        results = mem.cleanup(random_hypervector(128, seed=77), k=6)
        assert sorted(label for label, _ in results) == sorted(mem.labels)

    def test_scale_invariant(self):
        mem = filled_memory(5, 256)
        q = random_hypervector(256, seed=40)
        assert mem.cleanup(q, k=5) == mem.cleanup(4.0 * q, k=5)

    def test_tie_break_insertion_order(self):
        mem = ItemMemory()
        v = random_hypervector(64, seed=5)
        mem.add("later_dup_first", v)
        mem.add("second", v.copy())
        assert mem.cleanup(v, k=2)[0][0] == "later_dup_first"

    def test_empty_memory_rejected(self):
        with pytest.raises(InvalidStateError):
            ItemMemory().cleanup(np.ones(4))

    def test_zero_query_rejected(self):
        mem = filled_memory(2, 16)
        with pytest.raises(DegenerateInputError):
            mem.cleanup(np.zeros(16))


class TestStackedCleanup:
    def test_integer_stack_equals_its_rows_exactly(self):
        # bipolar rows and integer queries: every dot product is an exact integer
        rng = np.random.default_rng(6)
        rows = rng.integers(0, 2, size=(300, 1031)) * 2.0 - 1.0
        mem = ItemMemory.from_matrix(range(300), rows)
        queries = rng.integers(-16, 17, size=(13, 1031)).astype(np.float64)
        got = mem.cleanup(queries, k=5)
        assert len(got) == 13
        assert got == [mem.cleanup(q, k=5) for q in queries]

    def test_float_stack_has_the_labels_of_its_rows(self):
        rng = np.random.default_rng(7)
        mem = ItemMemory.from_matrix(range(50), rng.standard_normal((50, 257)))
        queries = rng.standard_normal((9, 257))
        for got, q in zip(mem.cleanup(queries, k=4), queries):
            want = mem.cleanup(q, k=4)
            assert [label for label, _ in got] == [label for label, _ in want]
            np.testing.assert_allclose([sim for _, sim in got], [sim for _, sim in want], rtol=1e-12)

    def test_single_row_stack_is_a_list_of_one(self):
        mem = filled_memory(4, 64)
        q = random_hypervector(64, seed=2)
        assert mem.cleanup(q[np.newaxis], k=2) == [mem.cleanup(q, k=2)]

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
        mem = ItemMemory.from_matrix(list("abcdef"), rng.standard_normal((6, 64)))
        queries = rng.standard_normal((3, 64))
        queries[1] *= scale
        got = mem.cleanup(queries, k=6)[1]
        for want in (mem.cleanup(queries[1], k=6), mem.cleanup(queries[1] / scale, k=6)):
            assert [label for label, _ in got] == [label for label, _ in want]
            np.testing.assert_allclose([sim for _, sim in got], [sim for _, sim in want], rtol=1e-12)

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
        q = random_hypervector(64, seed=1)
        assert mem.cleanup(q, k=2.0) == mem.cleanup(q, k=np.int64(2)) == mem.cleanup(q, k=2)
        assert len(mem.cleanup(q, k=3.0)) == 3

    @pytest.mark.parametrize("k", [0, -1, 0.0])
    def test_k_below_one_rejected(self, k):
        with pytest.raises(InvalidArgumentError):
            filled_memory(3, 16).cleanup(np.ones(16), k=k)


def parent_formula(vectors, query):
    """(label index, similarity) pairs from a stacked scan sorted by (-similarity, index)."""
    stack = np.stack(vectors)
    sims = (stack @ query) / np.sqrt(np.sum(stack * stack, axis=1) * np.dot(query, query))
    return [(i, float(sims[i])) for i in sorted(range(len(sims)), key=lambda i: (-sims[i], i))]


class TestGrowth:
    def test_add_after_cleanup_is_visible(self):
        mem = filled_memory(3, 64)
        v = random_hypervector(64, seed=77)
        assert mem.cleanup(v)[0][0] != "late"
        mem.add("late", v)
        assert mem.cleanup(v)[0] == ("late", 1.0)
        assert len(mem) == 4 and mem.labels[-1] == "late"

    def test_similarities_bitwise_equal_to_stacked_scan(self):
        # non-integer entries, an odd dim and a count that crosses several capacity doublings
        rng = np.random.default_rng(3)
        vectors = list(rng.standard_normal((37, 1031)) * rng.uniform(0.1, 10.0, (37, 1)))
        mem = ItemMemory()
        for i, v in enumerate(vectors):
            mem.add(i, v)
        for _ in range(5):
            q = rng.standard_normal(1031)
            assert mem.cleanup(q, k=37) == parent_formula(vectors, q)


class TestFromMatrix:
    def test_matches_memory_built_by_add(self):
        rng = np.random.default_rng(4)
        matrix = rng.standard_normal((20, 257))
        labels = [f"m{i}" for i in range(20)]
        built = ItemMemory()
        for label, row in zip(labels, matrix):
            built.add(label, row.copy())
        adopted = ItemMemory.from_matrix(labels, matrix)
        assert adopted.labels == built.labels and len(adopted) == 20 and adopted.dim == 257
        for _ in range(5):
            q = rng.standard_normal(257)
            assert adopted.cleanup(q, k=20) == built.cleanup(q, k=20)

    def test_add_after_from_matrix_leaves_matrix_alone(self):
        matrix = np.stack([random_hypervector(32, seed=i) for i in range(3)])
        before = matrix.copy()
        mem = ItemMemory.from_matrix(["a", "b", "c"], matrix)
        mem.add("d", random_hypervector(32, seed=9))
        assert mem.labels == ["a", "b", "c", "d"]
        assert mem.cleanup(random_hypervector(32, seed=9))[0][0] == "d"
        assert mem.cleanup(matrix[1])[0][0] == "b"
        np.testing.assert_array_equal(matrix, before)

    def test_tie_break_insertion_order(self):
        v = random_hypervector(64, seed=5)
        mem = ItemMemory.from_matrix(["first", "second"], np.stack([v, v]))
        assert [label for label, _ in mem.cleanup(v, k=2)] == ["first", "second"]

    def test_duplicate_label_rejected(self):
        with pytest.raises(InvalidArgumentError):
            ItemMemory.from_matrix(["a", "b", "a"], np.ones((3, 8)))

    def test_zero_row_rejected(self):
        matrix = np.ones((3, 8))
        matrix[1] = 0.0
        with pytest.raises(DegenerateInputError):
            ItemMemory.from_matrix(["a", "b", "c"], matrix)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_rejected(self, bad):
        matrix = np.ones((3, 8))
        matrix[2, 5] = bad
        with pytest.raises(InvalidArgumentError):
            ItemMemory.from_matrix(["a", "b", "c"], matrix)

    @pytest.mark.filterwarnings("ignore:overflow encountered in multiply:RuntimeWarning")
    def test_huge_finite_entries_accepted_as_add_accepts_them(self):
        # the squared norm overflows to inf, which is not a non-finite entry
        row = np.full(8, 1e200)
        ItemMemory().add("big", row)
        assert len(ItemMemory.from_matrix(["big"], row[None, :])) == 1

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_extreme_magnitudes_clean_up_like_unit_scale(self, scale):
        # squared norms of these rows and queries overflow or underflow in float64
        rng = np.random.default_rng(8)
        rows = rng.standard_normal((6, 64))
        queries = rows[:3] + rng.standard_normal((3, 64))
        labels = list("abcdef")
        unit = ItemMemory.from_matrix(labels, rows)
        added = ItemMemory()
        for label, row in zip(labels, scale * rows):
            added.add(label, row)
        for mem in (ItemMemory.from_matrix(labels, scale * rows), added):
            for q in queries:
                got = mem.cleanup(scale * q, k=6)
                assert [label for label, _ in got] == [label for label, _ in unit.cleanup(q, k=6)]
                for label, sim in got:
                    assert abs(sim - cosine_similarity(scale * rows[labels.index(label)], scale * q)) <= 1e-12

    @pytest.mark.parametrize("labels,matrix", [
        (["a", "b"], np.ones((3, 8))),  # label count differs from row count
        (["a"], np.ones(8)),  # not an (n, dim) matrix
        (["a"], np.ones((1, 0))),  # empty rows
    ])
    def test_shape_mismatch_rejected(self, labels, matrix):
        with pytest.raises(InvalidArgumentError):
            ItemMemory.from_matrix(labels, matrix)

    def test_dim_mismatch_on_add_and_query_rejected(self):
        mem = ItemMemory.from_matrix(["a"], np.ones((1, 8)))
        with pytest.raises(InvalidArgumentError):
            mem.add("b", np.ones(9))
        with pytest.raises(InvalidArgumentError):
            mem.cleanup(np.ones(9))


def test_noise_bundled_recovery_rate():
    # seeded Monte-Carlo: symbol + equal-norm bundled noise recovered >= 99%
    # from a 100-symbol memory at dim 4096
    rng = np.random.default_rng(0)
    mem = ItemMemory()
    symbols = []
    for i in range(100):
        v = rng.integers(0, 2, size=DIM).astype(np.float64) * 2 - 1
        symbols.append(v)
        mem.add(f"s{i}", v)
    correct = 0
    trials = 300
    for t in range(trials):
        idx = int(rng.integers(0, 100))
        noise = rng.integers(0, 2, size=DIM).astype(np.float64) * 2 - 1
        query = symbols[idx] + noise
        correct += int(mem.cleanup(query)[0][0] == f"s{idx}")
    assert correct / trials >= 0.99
