import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from vsabench.errors import DegenerateInputError, InvalidArgumentError
from vsabench.hv import cosine_similarity, sample_hypervector
from vsabench.losses import (
    LossConfig,
    check_no_zero_vectors,
    gan_loss,
    gan_loss_hinge,
    gan_loss_nll,
    total_loss,
    vsa_cyclic_loss,
)

from test_hv import float32_stack, raised
from test_mapping import traced_peak


class TestVsaCyclicLoss:
    def test_identical_is_zero(self):
        vs = [sample_hypervector(256, np.random.default_rng(s)) for s in range(4)]
        assert vsa_cyclic_loss(vs, vs) == pytest.approx(0.0, abs=1e-12)

    def test_antipodal_is_two(self):
        vs = [sample_hypervector(256, np.random.default_rng(s)) for s in range(4)]
        assert vsa_cyclic_loss(vs, [-v for v in vs]) == pytest.approx(2.0)

    def test_bipolar_round_trip_exact_zero(self):
        vs = [sample_hypervector(512, np.random.default_rng(s)) for s in range(3)]
        u = [sample_hypervector(512, np.random.default_rng(100 + s)) for s in range(3)]
        cycled = [v * w * w for v, w in zip(vs, u)]
        assert vsa_cyclic_loss(vs, cycled) == 0.0

    def test_positive_rescale_invariant(self):
        vs = [sample_hypervector(128, np.random.default_rng(s)) for s in range(3)]
        cycled = [sample_hypervector(128, np.random.default_rng(10 + s)) for s in range(3)]
        scaled = [3.5 * c for c in cycled]
        assert vsa_cyclic_loss(vs, scaled) == pytest.approx(vsa_cyclic_loss(vs, cycled))

    def test_mismatch_rejected(self):
        vs = [np.ones(8)]
        with pytest.raises(InvalidArgumentError):
            vsa_cyclic_loss(vs, vs * 2)
        with pytest.raises(InvalidArgumentError):
            vsa_cyclic_loss([], [])

    def test_zero_vector_rejected(self):
        with pytest.raises(DegenerateInputError):
            vsa_cyclic_loss([np.ones(8)], [np.zeros(8)])

    @pytest.mark.parametrize("name", ["x", "cycled"])
    def test_zero_row_named(self, name):
        stacks = {"x": np.ones((3, 8)), "cycled": np.ones((3, 8))}
        stacks[name][2] = 0.0
        with pytest.raises(DegenerateInputError, match=rf"^{name}: zero-norm hypervectors \(rows \[2\]\)$"):
            vsa_cyclic_loss(stacks["x"], stacks["cycled"])

    def test_equals_per_patch_loop_bitwise(self):
        rng = np.random.default_rng(1)
        xs, cs = rng.standard_normal((7, 96)), rng.standard_normal((7, 96))
        expected = float(np.mean([1.0 - cosine_similarity(a, b) for a, b in zip(xs, cs)]))
        assert vsa_cyclic_loss(xs, cs) == expected
        assert vsa_cyclic_loss(list(xs), list(cs)) == expected

    def test_single_vectors_rejected(self):
        with pytest.raises(InvalidArgumentError):
            vsa_cyclic_loss(np.ones(8), np.ones(8))

    def test_range(self):
        rng = np.random.default_rng(0)
        vs = list(rng.standard_normal((5, 64)))
        cs = list(rng.standard_normal((5, 64)))
        assert 0.0 <= vsa_cyclic_loss(vs, cs) <= 2.0


class TestGanNll:
    def test_perfect_discriminator_limit(self):
        d, _ = gan_loss_nll([1 - 1e-9], [1e-9], [1e-9])
        assert d == pytest.approx(0.0, abs=1e-6)

    def test_half_scores(self):
        d, g = gan_loss_nll([0.5], [0.5], [0.5])
        assert d == pytest.approx(3 * math.log(2))
        assert g == pytest.approx(2 * math.log(2))

    def test_w2_zero_reduces_to_two_term(self):
        cfg = LossConfig(fake_term_weights=(1.0, 0.0), variant="nll")
        d, g = gan_loss_nll([0.9, 0.8], [0.2, 0.1], [0.7, 0.6], cfg)
        expected_d = -(np.mean(np.log([0.9, 0.8])) + np.mean(np.log([0.8, 0.9])))
        assert d == pytest.approx(expected_d)
        assert g == pytest.approx(-np.mean(np.log([0.2, 0.1])))

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidArgumentError):
            gan_loss_nll([1.0], [0.5], [0.5])
        with pytest.raises(InvalidArgumentError):
            gan_loss_nll([0.5], [0.0], [0.5])

    def test_permutation_invariant(self):
        a = gan_loss_nll([0.9, 0.7], [0.2, 0.3], [0.4, 0.5])
        b = gan_loss_nll([0.7, 0.9], [0.3, 0.2], [0.5, 0.4])
        assert a == pytest.approx(b)


class TestGanHinge:
    def test_margin_satisfied(self):
        d, _ = gan_loss_hinge([1.5, 2.0], [-1.0, -3.0], [-1.2])
        assert d == 0.0

    def test_all_zero_scores(self):
        d, g = gan_loss_hinge([0.0], [0.0], [0.0])
        assert d == pytest.approx(3.0)
        assert g == pytest.approx(0.0)

    def test_g_loss_decreases_in_fake_scores(self):
        _, g_low = gan_loss_hinge([0.0], [-1.0], [-1.0])
        _, g_high = gan_loss_hinge([0.0], [1.0], [1.0])
        assert g_high < g_low

    def test_empty_batch_rejected(self):
        with pytest.raises(InvalidArgumentError):
            gan_loss_hinge([], [0.0], [0.0])

    def test_w2_zero_reduces_to_two_term(self):
        cfg = LossConfig(fake_term_weights=(1.0, 0.0))
        d, g = gan_loss_hinge([0.2], [0.3], [99.0], cfg)
        assert d == pytest.approx(0.8 + 1.3)
        assert g == pytest.approx(-0.3)


def written_out_nll(r, ft, fm, w1, w2):
    """The nll expressions as written out before both variants shared ``gan_loss``."""
    d = -(np.mean(np.log(r)) + w1 * np.mean(np.log1p(-ft)) + w2 * np.mean(np.log1p(-fm)))
    return d, -(w1 * np.mean(np.log(ft)) + w2 * np.mean(np.log(fm)))


def written_out_hinge(r, ft, fm, w1, w2):
    """The hinge expressions as written out before both variants shared ``gan_loss``."""
    d = (np.mean(np.maximum(0.0, 1.0 - r)) + w1 * np.mean(np.maximum(0.0, 1.0 + ft))
         + w2 * np.mean(np.maximum(0.0, 1.0 + fm)))
    return d, -(w1 * np.mean(ft) + w2 * np.mean(fm))


def gan_batches(variant):
    rng = np.random.default_rng(7)
    for sizes in ((1, 1, 1), (2, 5, 3), (17, 64, 64)):
        draw = (lambda n: rng.uniform(0.01, 0.99, n)) if variant == "nll" else (lambda n: 3 * rng.standard_normal(n))
        yield tuple(draw(n) for n in sizes)
    if variant == "hinge":
        yield np.array([0.0]), np.array([1.0, -1.0]), np.array([0.0])  # g is -0.0 at every weight


class TestGanBitwise:
    @pytest.mark.parametrize("weights", [(1.0, 1.0), (0.3, 2.5), (1.0, 0.0), (0.0, 0.0)])
    @pytest.mark.parametrize("variant,written_out,call,other", [
        ("nll", written_out_nll, gan_loss_nll, "hinge"), ("hinge", written_out_hinge, gan_loss_hinge, "nll"),
    ])
    def test_matches_written_out_expressions(self, variant, written_out, call, other, weights):
        for batches in gan_batches(variant):
            want = np.array(written_out(*batches, *weights)).tobytes()
            cfg = LossConfig(fake_term_weights=weights, variant=variant)
            assert np.array(gan_loss(*batches, cfg)).tobytes() == want
            for cfg_variant in (variant, other):
                got = call(*batches, LossConfig(fake_term_weights=weights, variant=cfg_variant))
                assert np.array(got).tobytes() == want


class TestTotalLoss:
    def test_lambda_zero(self):
        cfg = LossConfig(lam=0.0)
        assert total_loss(1.7, 0.9, cfg) == 1.7

    def test_gta_default(self):
        assert total_loss(1.0, 0.2, LossConfig(lam=10.0)) == pytest.approx(3.0)

    def test_other_experiments_default(self):
        assert total_loss(1.0, 0.2, LossConfig(lam=5.0)) == pytest.approx(2.0)

    @given(st.floats(0, 50), st.floats(-5, 5), st.floats(0, 2))
    def test_linear_in_lambda(self, lam, gan, vsa):
        assert total_loss(gan, vsa, LossConfig(lam=lam)) == pytest.approx(gan + lam * vsa)

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidArgumentError):
            total_loss(float("nan"), 0.0)


class TestLossConfig:
    def test_negative_lambda_rejected(self):
        with pytest.raises(InvalidArgumentError):
            LossConfig(lam=-1.0)

    def test_negative_weight_rejected(self):
        with pytest.raises(InvalidArgumentError):
            LossConfig(fake_term_weights=(-1.0, 1.0))

    def test_bad_variant_rejected(self):
        with pytest.raises(InvalidArgumentError):
            LossConfig(variant="wasserstein")

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_weights_rejected(self, value):
        with pytest.raises(InvalidArgumentError, match="lam must be finite"):
            LossConfig(lam=value)
        for weights in ((value, 1.0), (1.0, value)):
            with pytest.raises(InvalidArgumentError, match="fake_term_weights must be two finite"):
                LossConfig(fake_term_weights=weights)

    @pytest.mark.parametrize("value", [True, "one", None])
    def test_non_number_lam_rejected(self, value):
        with pytest.raises(InvalidArgumentError, match="lam must be finite"):
            LossConfig(lam=value)

    @pytest.mark.parametrize("weights", [(True, 1.0), (1.0, "one"), (None, 1.0), (1.0,), (1.0, 1.0, 1.0)])
    def test_non_number_fake_term_weight_rejected(self, weights):
        with pytest.raises(InvalidArgumentError, match="fake_term_weights must be two finite"):
            LossConfig(fake_term_weights=weights)

    @pytest.mark.parametrize("weights", [None, 1.0, np.float64(2.0), "12", b"12"])
    def test_non_pair_fake_term_weights_rejected(self, weights):
        # a scalar is not iterable, and a string's characters are not two weights
        with pytest.raises(InvalidArgumentError, match="fake_term_weights must be two finite"):
            LossConfig(fake_term_weights=weights)

    def test_number_fields_become_floats(self):
        cfg = LossConfig(lam="1", fake_term_weights=(2, np.float32(0.5)))
        assert (cfg.lam, cfg.fake_term_weights) == (1.0, (2.0, 0.5))
        assert all(type(v) is float for v in (cfg.lam, *cfg.fake_term_weights))


@pytest.mark.parametrize("batch", [["x", 1.0], [[1.0, 2.0], [3.0]], {"a": 1.0}, [10**400]])
def test_non_numeric_scores_rejected(batch):
    with pytest.raises(InvalidArgumentError, match="real"):
        gan_loss_hinge(batch, [0.5], [0.5])


def test_check_no_zero_vectors_reports_indices():
    vs = [np.ones(4), np.zeros(4), np.ones(4), np.zeros(4)]
    with pytest.raises(DegenerateInputError, match=r"\[1, 3\]"):
        check_no_zero_vectors(vs, "batch")


def test_check_no_zero_vectors_names_the_first_8_rows():
    with pytest.raises(DegenerateInputError) as info:
        check_no_zero_vectors(np.zeros((200_000, 2)), "x")
    assert str(info.value) == "x: zero-norm hypervectors (rows [0, 1, 2, 3, 4, 5, 6, 7] and 199992 more)"


@pytest.mark.parametrize("vs", ["ab", [[1.0], [1.0, 2.0]]])
def test_check_no_zero_vectors_rejects_non_numeric_rows(vs):
    with pytest.raises(InvalidArgumentError, match="batch must be equal-length"):
        check_no_zero_vectors(vs, "batch")


def test_check_no_zero_vectors_accepts_tiny_nonzero_rows():
    # the squared norm of this row underflows to 0, but the row is not zero
    check_no_zero_vectors(np.full((2, 4), 1e-200), "batch")


class TestFloat32Stacks:
    def test_cyclic_loss_matches_widened(self):
        x, cycled = float32_stack((9, 1031), 1), float32_stack((9, 1031), 2)
        got = vsa_cyclic_loss(x, cycled)
        assert got.hex() == vsa_cyclic_loss(x.astype(np.float64), cycled.astype(np.float64)).hex()

    def test_zero_rows_named_as_widened(self):
        vs = float32_stack((6, 64), 3)
        vs[1], vs[4] = 0.0, -0.0
        for call in (lambda v: check_no_zero_vectors(v, "x"), lambda v: vsa_cyclic_loss(v, v)):
            got = raised(call, vs)
            assert got == raised(call, vs.astype(np.float64))
            assert "[1, 4]" in got[1]

    def test_non_finite_rows_named_as_widened(self):
        vs = float32_stack((6, 64), 4)
        vs[3, 0] = np.inf
        got = raised(vsa_cyclic_loss, vs, vs)
        assert got == raised(vsa_cyclic_loss, vs.astype(np.float64), vs.astype(np.float64))
        assert "(rows [3])" in got[1]

    def test_zero_check_makes_no_float64_copy(self):
        vs = float32_stack((1024, 4096), 5)  # 16 MiB; a float64 copy would be 32 MiB
        assert traced_peak(lambda: check_no_zero_vectors(vs, "x")) < 1 << 20
