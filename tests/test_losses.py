import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from vsabench.errors import DegenerateInputError, InvalidArgumentError
from vsabench.hv import cosine_similarity, random_hypervector
from vsabench.losses import (
    LossConfig,
    check_no_zero_vectors,
    gan_loss_hinge,
    gan_loss_nll,
    total_loss,
    vsa_cyclic_loss,
)


class TestVsaCyclicLoss:
    def test_identical_is_zero(self):
        vs = [random_hypervector(256, seed=s) for s in range(4)]
        assert vsa_cyclic_loss(vs, vs) == pytest.approx(0.0, abs=1e-12)

    def test_antipodal_is_two(self):
        vs = [random_hypervector(256, seed=s) for s in range(4)]
        assert vsa_cyclic_loss(vs, [-v for v in vs]) == pytest.approx(2.0)

    def test_bipolar_round_trip_exact_zero(self):
        vs = [random_hypervector(512, seed=s) for s in range(3)]
        u = [random_hypervector(512, seed=100 + s) for s in range(3)]
        cycled = [v * w * w for v, w in zip(vs, u)]
        assert vsa_cyclic_loss(vs, cycled) == 0.0

    def test_positive_rescale_invariant(self):
        vs = [random_hypervector(128, seed=s) for s in range(3)]
        cycled = [random_hypervector(128, seed=10 + s) for s in range(3)]
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


def test_check_no_zero_vectors_accepts_tiny_nonzero_rows():
    # the squared norm of this row underflows to 0, but the row is not zero
    check_no_zero_vectors(np.full((2, 4), 1e-200), "batch")
