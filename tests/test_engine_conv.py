"""Grouped conv1d: forward examples, oracles, gradients, batch invariance."""

from dataclasses import replace

import numpy as np
import pytest

from hapticnet.engine import ConvSpec, LayerParams, conv1d_backward, conv1d_forward
from hapticnet.engine.conv import _im2col
from hapticnet.errors import InvalidInputError, InvalidSpecError
from hapticnet.haptic import RESAMPLE_LEN
from hapticnet.models import HAPTIC_CONV_SPECS, build_haptic_cnn
from hapticnet.training import TrainSchedule, train

from oracles import (
    instance_major_conv1d,
    instance_major_conv1d_backward,
    max_rel_error,
    naive_conv1d,
    naive_conv1d_backward,
    numerical_gradient,
)
from splits import pinned_split_instances


def make_params(spec, rng):
    w = rng.standard_normal(spec.weight_shape())
    b = rng.standard_normal(spec.out_channels)
    return LayerParams(weights=w, bias=b)


def forward(x, spec, params):
    return conv1d_forward(x, spec, params)[0]


def backward(x, spec, params, grad_out):
    """Gradients at ``x``: a forward pass for the cache, then conv1d_backward."""
    _, cache = conv1d_forward(x, spec, params)
    return conv1d_backward(spec, params, cache, grad_out)


def random_spec(rng):
    """A small grouped spec with random channels, groups, kernel, stride and pad,
    and an input length that fits it."""
    c_in = rng.choice([2, 4, 8])
    groups = rng.choice([1, 2, c_in])
    c_out = groups * rng.integers(1, 3)
    k = int(rng.integers(1, 5))
    stride = int(rng.integers(1, 3))
    pad = int(rng.integers(0, 3))
    t = int(rng.integers(max(k, 4), 33))
    return ConvSpec(int(c_in), int(c_out), k, stride=stride, pad=pad, groups=int(groups)), t


def haptic_layer_input_len(layer):
    t = RESAMPLE_LEN
    for earlier in HAPTIC_CONV_SPECS[:layer]:
        t = earlier.out_len(t)
    return t


class TestConvSpec:
    def test_rejects_channel_group_mismatch(self):
        with pytest.raises(InvalidSpecError):
            ConvSpec(in_channels=6, out_channels=4, kernel_len=3, groups=4)

    def test_rejects_zero_kernel(self):
        with pytest.raises(InvalidSpecError):
            ConvSpec(in_channels=2, out_channels=2, kernel_len=0)

    def test_rejects_groups_below_one(self):
        with pytest.raises(InvalidSpecError, match=r"groups must be positive .*groups=0\)"):
            ConvSpec(in_channels=2, out_channels=2, kernel_len=1, groups=0)

    def test_grouped_weight_count(self):
        # groups=G keeps exactly (C_in/G) * C_out * K weights: 1/G of ungrouped
        grouped = ConvSpec(32, 64, 5, groups=32)
        full = ConvSpec(32, 64, 5, groups=1)
        assert np.prod(grouped.weight_shape()) * 32 == np.prod(full.weight_shape())


class TestConvForward:
    def test_rejects_weights_and_bias_of_another_shape(self):
        spec = ConvSpec(4, 2, 3, groups=2)
        x = np.zeros((1, 4, 8))
        with pytest.raises(InvalidSpecError,
                           match=r"weights \(2, 4, 3\) do not match spec \(2, 2, 3\)"):
            conv1d_forward(x, spec, LayerParams(weights=np.zeros((2, 4, 3)), bias=np.zeros(2)))
        with pytest.raises(InvalidSpecError, match=r"bias shape \(4,\) != \(2,\)"):
            conv1d_forward(x, spec, LayerParams(weights=np.zeros((2, 2, 3)), bias=np.zeros(4)))

    def test_identity_kernel(self):
        spec = ConvSpec(1, 1, 1)
        params = LayerParams(weights=np.ones((1, 1, 1)), bias=np.zeros(1))
        out = forward(np.array([[1.0, 2.0, 3.0]]), spec, params)
        assert np.array_equal(out, [[1.0, 2.0, 3.0]])

    def test_difference_kernel(self):
        # hand-evaluated cross-correlation of [1,2,3,4] with [1,-1]
        spec = ConvSpec(1, 1, 2)
        params = LayerParams(weights=np.array([[[1.0, -1.0]]]), bias=np.zeros(1))
        x = np.array([[1.0, 2.0, 3.0, 4.0]])
        out = forward(x, spec, params)
        assert np.array_equal(out, [[-1.0, -1.0, -1.0]])
        assert np.array_equal(out, naive_conv1d(x, spec, params.weights, params.bias))

    def test_grouped_equals_full_with_zeroed_cross_blocks(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4, 12))
        grouped = ConvSpec(4, 4, 3, groups=2)
        gp = make_params(grouped, rng)
        full = ConvSpec(4, 4, 3, groups=1)
        # embed grouped weights into a full kernel with cross-group blocks zero
        fw = np.zeros(full.weight_shape())
        for o in range(4):
            g = o // 2
            fw[o, 2 * g:2 * g + 2, :] = gp.weights[o]
        fp = LayerParams(weights=fw, bias=gp.bias.copy())
        assert np.allclose(
            forward(x, grouped, gp),
            forward(x, full, fp),
            rtol=0, atol=1e-12,
        )

    @pytest.mark.parametrize("seed", range(12))
    def test_random_specs_agree_with_naive_loop(self, seed):
        rng = np.random.default_rng(seed)
        spec, t = random_spec(rng)
        params = make_params(spec, rng)
        x = rng.standard_normal((spec.in_channels, t))
        out = forward(x, spec, params)
        ref = naive_conv1d(x, spec, params.weights, params.bias)
        assert out.shape == ref.shape
        assert np.allclose(out, ref, rtol=1e-12, atol=1e-12)

    def test_output_length_formula(self):
        spec = ConvSpec(1, 1, 3, stride=2, pad=1)
        x = np.zeros((1, 10))
        params = LayerParams(weights=np.zeros((1, 1, 3)), bias=np.zeros(1))
        assert forward(x, spec, params).shape == (1, (10 + 2 - 3) // 2 + 1)

    def test_rejects_wrong_channel_count(self):
        spec = ConvSpec(2, 2, 3)
        params = make_params(spec, np.random.default_rng(0))
        with pytest.raises(InvalidSpecError):
            forward(np.zeros((3, 8)), spec, params)

    def test_rejects_too_short_input(self):
        spec = ConvSpec(1, 1, 5)
        params = make_params(spec, np.random.default_rng(0))
        with pytest.raises(InvalidInputError):
            forward(np.zeros((1, 3)), spec, params)

    def test_batched_matches_per_instance(self):
        rng = np.random.default_rng(3)
        spec = ConvSpec(4, 6, 3, stride=2, pad=1, groups=2)
        params = make_params(spec, rng)
        xs = rng.standard_normal((5, 4, 20))
        batched = forward(xs, spec, params)
        for i in range(5):
            assert np.array_equal(batched[i], forward(xs[i], spec, params))


class TestIm2col:
    """The window tensor equals one gathered by loops from an ``np.pad`` copy."""

    @staticmethod
    def reference(x, spec):
        xb = x[None] if x.ndim == 2 else x
        padded = np.pad(xb, ((0, 0), (0, 0), (spec.pad, spec.pad)))
        b, t_out = xb.shape[0], spec.out_len(xb.shape[-1])
        ipg, k_len = spec.in_per_group, spec.kernel_len
        stop = spec.stride * (t_out - 1) + 1
        cols = np.empty((spec.groups, ipg * k_len, b * t_out))
        for g in range(spec.groups):
            for c in range(ipg):
                for k in range(k_len):
                    for i in range(b):
                        cols[g, c * k_len + k, i * t_out:(i + 1) * t_out] = \
                            padded[i, g * ipg + c, k:k + stop:spec.stride]
        return cols

    @pytest.mark.parametrize("batch", [None, 1, 6])
    @pytest.mark.parametrize("pad", [0, 1, 3])
    @pytest.mark.parametrize("seed", range(4))
    def test_random_specs_match_np_pad_reference(self, seed, pad, batch):
        rng = np.random.default_rng(seed)
        spec, t = random_spec(rng)
        spec = replace(spec, pad=pad)
        x = rng.standard_normal((spec.in_channels, t) if batch is None
                                else (batch, spec.in_channels, t))
        cols, _ = _im2col(x, spec)
        assert np.array_equal(cols.view(np.int64), self.reference(x, spec).view(np.int64))

    @pytest.mark.parametrize("layer", range(len(HAPTIC_CONV_SPECS)))
    def test_haptic_layers_match_np_pad_reference(self, layer):
        spec = HAPTIC_CONV_SPECS[layer]
        x = np.random.default_rng(layer).standard_normal(
            (3, spec.in_channels, haptic_layer_input_len(layer)))
        for xs in (x, x[0]):
            cols, _ = _im2col(xs, spec)
            assert np.array_equal(cols.view(np.int64), self.reference(xs, spec).view(np.int64))


class TestConvBackward:
    def test_zero_grad_out_gives_zero_gradients(self):
        rng = np.random.default_rng(1)
        spec = ConvSpec(2, 4, 3, groups=2)
        params = make_params(spec, rng)
        x = rng.standard_normal((2, 9))
        gx, gw, gb = backward(x, spec, params, np.zeros((4, 7)))
        assert not gx.any() and not gw.any() and not gb.any()

    def test_identity_kernel_passes_gradient_through(self):
        spec = ConvSpec(1, 1, 1)
        params = LayerParams(weights=np.ones((1, 1, 1)), bias=np.zeros(1))
        g = np.random.default_rng(2).standard_normal((1, 6))
        gx, _, _ = backward(np.zeros((1, 6)), spec, params, g)
        assert np.array_equal(gx, g)

    def test_rejects_bad_grad_shape(self):
        spec = ConvSpec(1, 1, 1)
        params = LayerParams(weights=np.ones((1, 1, 1)), bias=np.zeros(1))
        with pytest.raises(InvalidSpecError):
            backward(np.zeros((1, 6)), spec, params, np.zeros((1, 5)))

    def test_gradients_match_finite_differences_32x20(self):
        # the full-size case: random 32x20 input through a grouped layer
        rng = np.random.default_rng(7)
        spec = ConvSpec(32, 16, 5, stride=2, pad=2, groups=8)
        params = make_params(spec, rng)
        x = rng.standard_normal((32, 20))
        probe = rng.standard_normal((16, spec.out_len(20)))

        gx, gw, gb = backward(x, spec, params, probe)

        def loss_x(xv):
            return float(np.sum(probe * forward(xv, spec, params)))

        def loss_w(wv):
            return float(np.sum(probe * forward(
                x, spec, LayerParams(weights=wv, bias=params.bias))))

        def loss_b(bv):
            return float(np.sum(probe * forward(
                x, spec, LayerParams(weights=params.weights, bias=bv))))

        assert max_rel_error(gx, numerical_gradient(loss_x, x.copy())) < 1e-4
        assert max_rel_error(gw, numerical_gradient(loss_w, params.weights.copy())) < 1e-4
        assert max_rel_error(gb, numerical_gradient(loss_b, params.bias.copy())) < 1e-4

    def test_batched_params_gradient_sums_over_instances(self):
        rng = np.random.default_rng(9)
        spec = ConvSpec(4, 4, 3, stride=1, pad=1, groups=2)
        params = make_params(spec, rng)
        xs = rng.standard_normal((3, 4, 10))
        gs = rng.standard_normal((3, 4, 10))
        gx, gw, gb = backward(xs, spec, params, gs)
        gw_sum = np.zeros_like(gw)
        gb_sum = np.zeros_like(gb)
        for i in range(3):
            gxi, gwi, gbi = backward(xs[i], spec, params, gs[i])
            assert np.allclose(gx[i], gxi, rtol=0, atol=1e-12)
            gw_sum += gwi
            gb_sum += gbi
        assert np.allclose(gw, gw_sum, rtol=1e-12, atol=1e-12)
        assert np.allclose(gb, gb_sum, rtol=1e-12, atol=1e-12)


class TestFastPath:
    """The im2col kernel must agree with the nested-loop oracles to rounding."""

    @pytest.mark.parametrize("seed", range(8))
    def test_forward_agrees_with_reference(self, seed):
        rng = np.random.default_rng(100 + seed)
        spec = ConvSpec(8, 12, 5, stride=2, pad=2, groups=4)
        params = make_params(spec, rng)
        x = rng.standard_normal((6, 8, 40))
        fast = forward(x, spec, params)
        ref = np.stack([naive_conv1d(xi, spec, params.weights, params.bias) for xi in x])
        assert np.allclose(fast, ref, rtol=1e-12, atol=1e-12)
        single = forward(x[0], spec, params)
        assert np.allclose(single, ref[0], rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_backward_agrees_with_reference(self, seed):
        rng = np.random.default_rng(200 + seed)
        spec = ConvSpec(6, 6, 3, stride=2, pad=1, groups=3)
        params = make_params(spec, rng)
        x = rng.standard_normal((4, 6, 21))
        t_out = spec.out_len(21)
        g = rng.standard_normal((4, 6, t_out))
        gx_f, gw_f, gb_f = backward(x, spec, params, g)
        refs = [naive_conv1d_backward(x[i], spec, params.weights, g[i]) for i in range(4)]
        gx_r = np.stack([r[0] for r in refs])
        gw_r = sum(r[1] for r in refs)
        gb_r = sum(r[2] for r in refs)
        assert np.allclose(gx_f, gx_r, rtol=1e-12, atol=1e-12)
        assert np.allclose(gw_f, gw_r, rtol=1e-12, atol=1e-12)
        assert np.allclose(gb_f, gb_r, rtol=1e-12, atol=1e-12)

    def test_group_isolation_is_exact(self):
        rng = np.random.default_rng(33)
        spec = ConvSpec(8, 8, 3, stride=1, pad=1, groups=8)
        params = make_params(spec, rng)
        x = rng.standard_normal((2, 8, 16))
        bumped = x.copy()
        bumped[:, 3] += 1.0
        base = forward(x, spec, params)
        moved = forward(bumped, spec, params)
        changed = np.unique(np.nonzero(np.any(moved != base, axis=(0, 2)))[0])
        assert set(changed) <= {3}


@pytest.mark.parametrize("layer", range(len(HAPTIC_CONV_SPECS)))
def test_haptic_layer_output_is_batch_invariant(layer):
    # one instance alone gives bitwise its row of a batch of 1, 7 or 128
    spec = HAPTIC_CONV_SPECS[layer]
    t = haptic_layer_input_len(layer)
    rng = np.random.default_rng(40 + layer)
    params = make_params(spec, rng)
    xs = rng.standard_normal((128, spec.in_channels, t))
    singles = [forward(x, spec, params) for x in xs]
    for n in (1, 7, 128):
        batched = forward(xs[:n], spec, params)
        for i in range(n):
            assert np.array_equal(batched[i], singles[i]), (n, i)


def assert_matches_instance_major(x, spec, params, grad_out, exact=True):
    """Group-major against instance-major.  The bias gradient is always the
    same numpy sum; with ``exact`` the output and input gradient must be
    bitwise equal too, otherwise they and the weight gradient agree to 1e-12."""
    y, cache = conv1d_forward(x, spec, params)
    y_ref, cache_ref = instance_major_conv1d(x, spec, params)
    gx, gw, gb = conv1d_backward(spec, params, cache, grad_out)
    gx_ref, gw_ref, gb_ref = instance_major_conv1d_backward(spec, params, cache_ref, grad_out)
    assert np.array_equal(gb, gb_ref)
    if exact:
        assert np.array_equal(y, y_ref)
        assert np.array_equal(gx, gx_ref)
    assert np.allclose(y, y_ref, rtol=1e-12, atol=1e-12)
    assert np.allclose(gx, gx_ref, rtol=1e-12, atol=1e-12)
    assert np.allclose(gw, gw_ref, rtol=1e-12, atol=1e-12)


class TestGroupMajorMatchesInstanceMajor:
    """The group-major kernel against the instance-major kernel it replaced.

    For the haptic layers, outputs, input gradients and bias gradients are
    bitwise equal: each element is the same short dot product or sum.  The
    weight gradient sums over B*T_out in one GEMM per group instead of per
    instance and then over the batch, so it agrees to rounding only (rtol =
    atol = 1e-12).  Bitwise equality of the GEMM products rests on BLAS
    rounding each dot product alike whatever the matrix width, which holds
    for the haptic shapes but not for every spec: a spec with one output
    channel per group runs as a matrix-vector product, and OpenBLAS picks
    its kernels by problem size.  The random sweep therefore checks outputs
    and input gradients to rounding.
    """

    @pytest.mark.parametrize("batch", [1, 7, 42, 128])
    @pytest.mark.parametrize("layer", range(len(HAPTIC_CONV_SPECS)))
    def test_haptic_layer(self, layer, batch):
        spec = HAPTIC_CONV_SPECS[layer]
        t = haptic_layer_input_len(layer)
        rng = np.random.default_rng(60 + 4 * layer + batch)
        params = make_params(spec, rng)
        x = rng.standard_normal((batch, spec.in_channels, t))
        g = rng.standard_normal((batch, spec.out_channels, spec.out_len(t)))
        assert_matches_instance_major(x, spec, params, g)

    @pytest.mark.parametrize("seed", range(12))
    def test_random_specs(self, seed):
        rng = np.random.default_rng(seed)
        spec, t = random_spec(rng)
        params = make_params(spec, rng)
        batch = int(rng.integers(1, 6))
        x = rng.standard_normal((batch, spec.in_channels, t))
        g = rng.standard_normal((batch, spec.out_channels, spec.out_len(t)))
        assert_matches_instance_major(x, spec, params, g, exact=False)
        assert_matches_instance_major(x[0], spec, params, g[0], exact=False)

    @pytest.mark.parametrize("layer", range(len(HAPTIC_CONV_SPECS)))
    def test_without_input_grad_the_parameter_gradients_are_unchanged(self, layer):
        spec = HAPTIC_CONV_SPECS[layer]
        t = haptic_layer_input_len(layer)
        rng = np.random.default_rng(80 + layer)
        params = make_params(spec, rng)
        x = rng.standard_normal((9, spec.in_channels, t))
        g = rng.standard_normal((9, spec.out_channels, spec.out_len(t)))
        _, cache = conv1d_forward(x, spec, params)
        _, gw, gb = conv1d_backward(spec, params, cache, g)
        gx_none, gw_only, gb_only = conv1d_backward(spec, params, cache, g, input_grad=False)
        assert gx_none is None
        assert np.array_equal(gw_only, gw)
        assert np.array_equal(gb_only, gb)


def test_two_phase_training_matches_the_instance_major_kernel(monkeypatch):
    """Training the CNN with either kernel gives the same run to rounding.

    Not bitwise: the weight gradients of the two kernels sum over the batch
    in different orders and differ in the last bits, and SGD carries that
    into every later step.  On this split the two runs differ by about 1e-16
    in loss and parameters; the test allows 1e-12.
    """
    x, y = pinned_split_instances()
    schedule = TrainSchedule(epochs=3, finetune_epochs=2, batch_size=16, seed=4)
    fast = train(build_haptic_cnn(seed=4), x, y, schedule)
    monkeypatch.setattr("hapticnet.models.conv1d_forward", instance_major_conv1d)
    monkeypatch.setattr("hapticnet.models.conv1d_backward", instance_major_conv1d_backward)
    ref = train(build_haptic_cnn(seed=4), x, y, schedule)
    assert len(fast.loss_curve) == 5 and not fast.diverged and not ref.diverged
    assert np.allclose(fast.loss_curve, ref.loss_curve, rtol=1e-12, atol=1e-12)
    for (name, value), (_, value_ref) in zip(fast.model.named_params(),
                                             ref.model.named_params()):
        assert np.allclose(value, value_ref, rtol=1e-12, atol=1e-12), name
