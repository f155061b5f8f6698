"""Initialization, elementwise ops and losses."""

import math
import re

import numpy as np
import pytest

from hapticnet import evaluation, synth
from hapticnet.engine import (
    LayerParams,
    avg_pool,
    derive_seed,
    hinge_loss,
    inner_product,
    inner_product_backward,
    l2_normalize,
    logistic_loss,
    relu,
    relu_backward,
    xavier_init,
)
from hapticnet.errors import InvalidInputError, InvalidSpecError
from hapticnet.models import build_haptic_cnn, build_linear_classifier
from hapticnet.training import TrainSchedule, train

from oracles import max_rel_error, numerical_gradient


def with_seed(obj, seed):
    """``obj`` with its ``seed`` field set after construction, past the
    checks its constructor makes."""
    obj.seed = seed
    return obj


def split_with_seed(seed):
    labels = {o: {"absorbent": o in "ab"} for o in "abcd"}
    return evaluation.make_split(list("abcd"), labels, "absorbent", ratio=0.5, seed=seed)


class TestDeriveSeed:
    # every random stream of the package is keyed through derive_seed
    CALLS = {
        "split/absorbent/0": split_with_seed,
        "conv1.weights": lambda seed: build_haptic_cnn(seed=seed),
        "batch-shuffle": lambda seed: train(
            build_linear_classifier(2), np.ones((4, 2)), np.array([1.0, -1, 1, -1]),
            with_seed(TrainSchedule(epochs=1), seed)),
        "synth/adjective-weights": lambda seed: synth.object_factors(
            with_seed(synth.two_cue_config(n_objects=4, n_trials=1), seed)),
    }

    @pytest.mark.parametrize("seed", [1.0, True, np.float64(1), np.bool_(True), "1", None],
                             ids=["float", "bool", "np.float64", "np.bool_", "str", "None"])
    @pytest.mark.parametrize("label", sorted(CALLS))
    def test_a_seed_that_is_not_an_integer_is_rejected(self, label, seed):
        # 1.0 and True would key other streams than 1
        with pytest.raises(InvalidInputError, match=re.escape(
                f"seed {seed!r} for stream {label!r} is not an integer")):
            self.CALLS[label](seed)

    def test_numpy_integer_seeds_key_the_stream_of_the_int(self):
        assert derive_seed(np.int64(1), "x") == derive_seed(1, "x") != derive_seed(2, "x")
        assert split_with_seed(np.int32(3)).test_ids == split_with_seed(3).test_ids
        for (_, a), (_, b) in zip(build_haptic_cnn(seed=np.int64(1)).named_params(),
                                  build_haptic_cnn(seed=1).named_params()):
            assert np.array_equal(a, b)


class TestXavierInit:
    def test_bound_is_sqrt_3_over_fan_in(self):
        v = xavier_init([4], fan_in=3, seed=7)
        assert v.shape == (4,)
        assert np.all(np.abs(v) <= 1.0)  # sqrt(3/3) = 1

    def test_deterministic(self):
        a = xavier_init([8, 3], fan_in=5, seed=123)
        b = xavier_init([8, 3], fan_in=5, seed=123)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, xavier_init([8, 3], fan_in=5, seed=124))

    def test_variance_matches_one_over_fan_in(self):
        # reference: uniform on [-b, b] has variance b^2/3 = 1/fan_in
        v = xavier_init([1000], fan_in=12, seed=42)
        ref = np.random.default_rng(9).uniform(-0.5, 0.5, 1000)
        assert abs(v.var() - 1.0 / 12.0) < 0.2 / 12.0
        assert abs(v.var() - ref.var()) < 0.25 / 12.0

    def test_rejects_zero_fan_in_and_empty_shape(self):
        with pytest.raises(InvalidSpecError):
            xavier_init([4], fan_in=0, seed=1)
        with pytest.raises(InvalidSpecError):
            xavier_init([], fan_in=3, seed=1)


class TestRelu:
    def test_clips_negatives(self):
        assert np.array_equal(relu(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0])

    def test_positive_input_unchanged(self):
        x = np.array([0.5, 3.0, 1e6])
        assert np.array_equal(relu(x), x)
        assert np.all(np.isfinite(relu(x)))

    def test_backward_keeps_where_bits_on_special_values(self):
        payload_nans = np.array([0x7FF8000000000001, 0xFFF0000000000002, 0x7FF4000000000000],
                                dtype=np.uint64).view(np.float64)
        values = np.concatenate([[0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan,
                                  5e-324, -5e-324, 1e308, -1e308], payload_nans])
        x, g = np.meshgrid(values, values, indexing="ij")
        for xs, gs in ((x, g), (x.T, g.T)):
            expected = np.where(xs > 0.0, gs, 0.0)
            assert np.array_equal(relu_backward(xs, gs).view(np.uint64),
                                  expected.view(np.uint64))

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(20)
        x[np.abs(x) < 1e-3] += 0.1  # stay away from the kink
        probe = rng.standard_normal(20)
        g = relu_backward(x, probe)
        num = numerical_gradient(lambda xv: float(np.sum(probe * relu(xv))), x.copy(), step=1e-7)
        assert np.max(np.abs(g - num)) < 1e-6


class TestInnerProduct:
    def test_identity(self):
        params = LayerParams(weights=np.eye(3), bias=np.zeros(3))
        assert np.array_equal(inner_product(np.array([1.0, 2.0, 3.0]), params), [1.0, 2.0, 3.0])

    def test_hand_arithmetic(self):
        params = LayerParams(weights=np.array([[1.0, 1.0]]), bias=np.array([0.5]))
        assert inner_product(np.array([2.0, 3.0]), params) == pytest.approx([5.5])

    def test_rejects_dimension_mismatch(self):
        params = LayerParams(weights=np.ones((2, 3)), bias=np.zeros(2))
        with pytest.raises(InvalidSpecError):
            inner_product(np.ones(4), params)

    def test_rejects_bias_of_another_shape(self):
        params = LayerParams(weights=np.ones((2, 3)), bias=np.zeros(3))
        with pytest.raises(InvalidSpecError, match=r"bias shape \(3,\) != \(2,\)"):
            inner_product(np.ones(3), params)

    def test_backward_rejects_grad_of_another_shape(self):
        params = LayerParams(weights=np.ones((2, 3)), bias=np.zeros(2))
        with pytest.raises(InvalidSpecError, match=r"grad_out shape \(5, 3\) does not match"):
            inner_product_backward(np.ones((5, 3)), params, np.ones((5, 3)))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(11)
        params = LayerParams(weights=rng.standard_normal((4, 6)), bias=rng.standard_normal(4))
        x = rng.standard_normal(6)
        probe = rng.standard_normal(4)
        gx, gw, gb = inner_product_backward(x, params, probe)

        def with_w(wv):
            return float(np.sum(probe * inner_product(x, LayerParams(weights=wv, bias=params.bias))))

        assert max_rel_error(gx, numerical_gradient(
            lambda xv: float(np.sum(probe * inner_product(xv, params))), x.copy())) < 1e-4
        assert max_rel_error(gw, numerical_gradient(with_w, params.weights.copy())) < 1e-4


class TestPoolAndNormalize:
    def test_avg_pool_mean(self):
        fm = np.array([1.0, 2.0, 3.0, 4.0]).reshape(2, 2, 1)
        assert np.array_equal(avg_pool(fm), [2.5])

    def test_l2_normalize_3_4_5(self):
        v, degenerate = l2_normalize(np.array([3.0, 4.0]))
        assert np.allclose(v, [0.6, 0.8], rtol=0, atol=1e-15)
        assert not degenerate

    def test_l2_normalize_idempotent(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            u, _ = l2_normalize(rng.standard_normal(7))
            v, _ = l2_normalize(u)
            assert np.allclose(u, v, rtol=0, atol=1e-12)

    def test_zero_vector_flags_degenerate(self):
        v, degenerate = l2_normalize(np.zeros(5))
        assert degenerate and not v.any()


class TestLosses:
    def test_logistic_at_zero_is_ln2(self):
        loss, grad = logistic_loss(0.0, +1)
        assert loss == pytest.approx(math.log(2.0))
        assert grad == pytest.approx(-0.5)

    def test_hinge_piecewise(self):
        assert hinge_loss(2.0, +1) == (0.0, 0.0)
        loss, grad = hinge_loss(0.5, +1)
        assert loss == pytest.approx(0.5)
        assert grad == -1.0
        loss, grad = hinge_loss(0.5, -1)
        assert loss == pytest.approx(1.5)
        assert grad == 1.0

    def test_hinge_kink_subgradient_is_zero(self):
        assert hinge_loss(1.0, +1) == (0.0, 0.0)

    def test_logistic_no_overflow(self):
        # high-precision value: log(1 + exp(1000)) = 1000 + log1p(exp(-1000))
        loss, grad = logistic_loss(1000.0, -1)
        assert np.isfinite(loss) and loss == pytest.approx(1000.0)
        assert grad == pytest.approx(1.0)
        loss, _ = logistic_loss(1e6, +1)
        assert np.isfinite(loss) and loss == pytest.approx(0.0, abs=1e-12)

    def test_rejects_bad_label(self):
        with pytest.raises(InvalidInputError):
            logistic_loss(0.3, 0)
        with pytest.raises(InvalidInputError):
            hinge_loss(0.3, 2)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(8)
        for y in (-1, +1):
            s = rng.standard_normal(16) * 2.0
            _, grad = logistic_loss(s, y)
            num = numerical_gradient(lambda sv: float(np.sum(logistic_loss(sv, y)[0])), s.copy())
            assert max_rel_error(grad, num) < 1e-4

    def test_elementwise_arrays(self):
        losses, grads = hinge_loss(np.array([2.0, 0.5]), np.array([1.0, 1.0]))
        assert np.array_equal(losses, [0.0, 0.5])
        assert np.array_equal(grads, [0.0, -1.0])
