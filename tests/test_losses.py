import numpy as np
import pytest

from motionfuse import losses
from motionfuse.losses import GaussianParams, LossWeights
from motionfuse.tensor import SeededRng, ShapeError


class TestL2:
    def test_identical_is_zero(self):
        x = SeededRng(0).normals((3, 4))
        assert losses.l2_loss(x, x) == 0.0

    def test_mean_convention(self):
        assert losses.l2_loss(np.array([1.0, 2.0]), np.zeros(2)) == 2.5

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            losses.l2_loss(np.zeros(3), np.zeros(4))


class TestKL:
    def test_standard_normal_is_zero(self):
        q = GaussianParams(np.zeros((1, 4)), np.zeros((1, 4)))
        assert losses.kl_to_standard_normal(q) == 0.0

    def test_unit_mean_shift(self):
        q = GaussianParams(np.array([[1.0]]), np.array([[0.0]]))
        assert abs(losses.kl_to_standard_normal(q) - 0.5) < 1e-12

    def test_variance_two(self):
        q = GaussianParams(np.array([[0.0]]), np.array([[np.log(2.0)]]))
        expect = 0.5 * (2.0 - 1.0 - np.log(2.0))
        assert abs(losses.kl_to_standard_normal(q) - expect) < 1e-12
        assert abs(expect - 0.1534) < 5e-5

    def test_nonnegative_and_zero_only_at_prior(self):
        rng = SeededRng(1)
        for _ in range(20):
            q = GaussianParams(rng.normals((2, 5)), rng.normals((2, 5)))
            assert losses.kl_to_standard_normal(q) >= 0.0
        near = GaussianParams(np.full((1, 3), 1e-8), np.full((1, 3), 1e-8))
        assert losses.kl_to_standard_normal(near) < 1e-12

    def test_batch_mean_dimension_sum(self):
        q1 = GaussianParams(np.ones((1, 4)), np.zeros((1, 4)))
        q2 = GaussianParams(np.ones((2, 4)), np.zeros((2, 4)))
        assert abs(losses.kl_to_standard_normal(q1) - 2.0) < 1e-12
        assert abs(losses.kl_to_standard_normal(q2) - 2.0) < 1e-12

    def test_shape_guard(self):
        with pytest.raises(ShapeError):
            GaussianParams(np.zeros((1, 3)), np.zeros((1, 4)))


class TestAuxClassLoss:
    def test_uniform_logits(self):
        logits = np.zeros((1, 4))
        assert abs(losses.aux_class_loss(logits, [0]) - np.log(4)) < 1e-12

    def test_confident_margin_saturates(self):
        logits = np.zeros((1, 5))
        logits[0, 2] = 20.0
        assert losses.aux_class_loss(logits, [2]) < 1e-8

    def test_gradient_is_softmax_minus_onehot(self):
        rng = SeededRng(2)
        logits = rng.normals((3, 4))
        labels = np.array([1, 3, 0])
        g = losses.aux_class_loss_grad(logits, labels)
        p = np.exp(logits - logits.max(-1, keepdims=True))
        p /= p.sum(-1, keepdims=True)
        onehot = np.zeros_like(p)
        onehot[np.arange(3), labels] = 1.0
        assert np.allclose(g, (p - onehot) / 3, atol=1e-12)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            losses.aux_class_loss(np.zeros((1, 3)), [3])

    def test_cross_entropy_upper_bound_at_uniform(self):
        rng = SeededRng(3)
        k = 6
        uniform = losses.aux_class_loss(np.zeros((k, k)), np.arange(k))
        assert abs(uniform - np.log(k)) < 1e-12
        for _ in range(10):
            p = ops_softmax(rng.normals((k, k)))
            avg = -np.mean(np.log(p[np.arange(k), np.arange(k)]))
            assert avg >= uniform - 1e-9


def ops_softmax(x):
    e = np.exp(x - x.max(-1, keepdims=True))
    return e / e.sum(-1, keepdims=True)


class TestConsistency:
    def test_identical_pyramids(self):
        rng = SeededRng(4)
        pyr = [rng.normals((2, 4, 4)), rng.normals((2, 8, 8))]
        assert losses.content_consistency_loss(pyr, [p.copy() for p in pyr]) == 0.0

    def test_constant_offset_contribution(self):
        pyr = [np.zeros((1, 3, 3))]
        shifted = [np.full((1, 3, 3), 2.0)]
        assert abs(losses.content_consistency_loss(shifted, pyr) - 4.0) < 1e-12

    def test_matches_per_scale_sum(self):
        rng = SeededRng(5)
        a = [rng.normals((2, 4, 4)), rng.normals((2, 8, 8))]
        b = [rng.normals((2, 4, 4)), rng.normals((2, 8, 8))]
        total = losses.content_consistency_loss(a, b)
        expect = losses.l2_loss(a[0], b[0]) + losses.l2_loss(a[1], b[1])
        assert total == expect

    def test_config_mismatch(self):
        with pytest.raises(ValueError):
            losses.content_consistency_loss([np.zeros((1, 2, 2))], [])
        with pytest.raises(ShapeError):
            losses.content_consistency_loss([np.zeros((1, 2, 2))], [np.zeros((1, 3, 3))])


class TestWeights:
    def test_defaults_match_published_values(self):
        w = LossWeights()
        assert (w.l1, w.l2, w.l3, w.l4) == (1e4, 7.0, 1e2, 1e4)
        assert (w.l5_start, w.l5_end) == (2.0, 20.0)

    def test_content_total_example(self):
        total = losses.total_content_loss(LossWeights(), 0.01, 0.1)
        assert abs(total - 100.7) < 1e-9

    def test_zero_losses_give_zero(self):
        w = LossWeights()
        assert losses.total_content_loss(w, 0.0, 0.0) == 0.0
        assert losses.total_motion_loss(w, 0.0, 0.0, 0.0, w.l5_end) == 0.0

    def test_lambda5_schedule_endpoints_and_midpoint(self):
        w = LossWeights()
        assert w.lambda5_at(0, 1000) == 2.0
        assert w.lambda5_at(1000, 1000) == 20.0
        assert abs(w.lambda5_at(500, 1000) - 11.0) < 1e-12

    def test_lambda5_warm_up_delay(self):
        w = LossWeights(l5_delay=0.5)
        assert w.lambda5_at(0, 1000) == 0.0
        assert w.lambda5_at(499, 1000) == 0.0
        assert w.lambda5_at(500, 1000) == 2.0
        assert abs(w.lambda5_at(750, 1000) - 11.0) < 1e-12
        assert w.lambda5_at(1000, 1000) == 20.0
        with pytest.raises(ValueError):
            LossWeights(l5_delay=1.0)

    def test_weight_scaling_is_linear(self):
        w1 = LossWeights(l1=1.0, l2=1.0)
        w2 = LossWeights(l1=3.0, l2=1.0)
        a = losses.total_content_loss(w1, 0.5, 0.25)
        b = losses.total_content_loss(w2, 0.5, 0.25)
        assert abs((b - a) - 2.0 * 0.5) < 1e-12

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            LossWeights(l1=-1.0)
        with pytest.raises(ValueError):
            LossWeights(l5_start=5.0, l5_end=1.0)

    def test_motion_total_uses_schedule(self):
        w = LossWeights(l3=1.0, l4=1.0, l5_start=2.0, l5_end=20.0)
        total = losses.total_motion_loss(w, 1.0, 1.0, 1.0, w.lambda5_at(0, 100))
        assert abs(total - (1.0 + 1.0 + 2.0)) < 1e-12
        total = losses.total_motion_loss(w, 1.0, 1.0, 1.0, w.lambda5_at(100, 100))
        assert abs(total - (1.0 + 1.0 + 20.0)) < 1e-12
