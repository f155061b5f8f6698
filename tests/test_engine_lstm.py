"""LSTM recurrence and BPTT gradients."""

import re

import numpy as np
import pytest

from hapticnet.engine import LstmParams, logistic_loss, lstm_backward, lstm_forward, sigmoid
from hapticnet.errors import InvalidInputError, InvalidSpecError
from hapticnet.models import build_haptic_lstm
from hapticnet.training import TrainSchedule, train

from oracles import masked_sigmoid, max_rel_error, numerical_gradient, reference_lstm_forward
from splits import pinned_split_instances


def hand_two_step(seq, wx, wh, b):
    """Scalar H=1 recurrence written out longhand."""
    h = c = 0.0
    for t in range(seq.shape[0]):
        z = wx @ seq[t] + wh * h + b
        i, f, o = (1.0 / (1.0 + np.exp(-z[k])) for k in range(3))
        g = np.tanh(z[3])
        c = f * c + i * g
        h = o * np.tanh(c)
    return h


class TestLstmForward:
    def test_zero_weights_give_zero_hidden(self):
        params = LstmParams(w_x=np.zeros((4, 3)), w_h=np.zeros((4, 1)), bias=np.zeros(4))
        h = lstm_forward(np.random.default_rng(0).standard_normal((6, 3)), params)
        assert np.array_equal(h, [0.0])

    def test_scalar_two_step_matches_hand_recurrence(self):
        rng = np.random.default_rng(21)
        wx = rng.standard_normal((4, 2))
        wh = rng.standard_normal((4, 1))
        b = rng.standard_normal(4)
        params = LstmParams(w_x=wx, w_h=wh, bias=b)
        seq = rng.standard_normal((2, 2))
        h = lstm_forward(seq, params)
        expected = hand_two_step(seq, wx, wh[:, 0], b)
        assert abs(h[0] - expected) < 1e-12

    def test_rejects_empty_sequence(self):
        params = LstmParams.create(3, 2, seed=0)
        with pytest.raises(InvalidInputError):
            lstm_forward(np.zeros((0, 3)), params)

    @pytest.mark.parametrize("shape", [(2, 3, 4, 3), (3,)])
    def test_rejects_a_sequence_of_another_rank(self, shape):
        params = LstmParams.create(3, 2, seed=0)
        with pytest.raises(InvalidInputError, match=re.escape(f"got shape {shape}")):
            lstm_forward(np.zeros(shape), params)

    def test_rejects_input_of_another_size(self):
        params = LstmParams.create(3, 2, seed=0)
        with pytest.raises(InvalidSpecError, match="sequence dim 4 != params input size 3"):
            lstm_forward(np.zeros((5, 4)), params)

    @pytest.mark.parametrize("w_x, w_h, bias", [
        ((6, 3), (6, 1), (6,)),     # 4H not a multiple of 4
        ((8, 3), (8, 3), (8,)),     # w_h not (4H, H)
        ((8, 3), (8, 2), (4,)),     # bias not (4H,)
    ])
    def test_params_reject_inconsistent_gate_shapes(self, w_x, w_h, bias):
        with pytest.raises(InvalidSpecError, match=re.escape(
                f"inconsistent gate shapes: w_x {w_x}, w_h {w_h}, bias {bias}")):
            LstmParams(w_x=np.zeros(w_x), w_h=np.zeros(w_h), bias=np.zeros(bias))

    def test_finite_for_huge_inputs(self):
        params = LstmParams.create(4, 3, seed=5)
        h = lstm_forward(np.full((10, 4), 1e6), params)
        assert np.all(np.isfinite(h))
        assert np.all(np.isfinite(sigmoid(np.array([-1e6, 0.0, 1e6]))))

    def test_batched_matches_per_sequence(self):
        rng = np.random.default_rng(3)
        params = LstmParams.create(5, 4, seed=1)
        seqs = rng.standard_normal((6, 8, 5))
        batched = lstm_forward(seqs, params)
        for i in range(6):
            single = lstm_forward(seqs[i], params)
            assert np.allclose(batched[i], single, rtol=0, atol=1e-12)


class TestLstmBackward:
    def test_bptt_matches_finite_differences(self):
        rng = np.random.default_rng(17)
        t_len, d, h_size = 5, 4, 3
        params = LstmParams.create(d, h_size, seed=2)
        seq = rng.standard_normal((t_len, d))
        probe = rng.standard_normal(h_size)

        h, cache = lstm_forward(seq, params, return_cache=True)
        grad_seq, grad_wx, grad_wh, grad_b = lstm_backward(params, cache, probe)

        def loss_seq(sv):
            return float(np.sum(probe * lstm_forward(sv, params)))

        def loss_wx(wv):
            p = LstmParams(w_x=wv, w_h=params.w_h, bias=params.bias)
            return float(np.sum(probe * lstm_forward(seq, p)))

        def loss_wh(wv):
            p = LstmParams(w_x=params.w_x, w_h=wv, bias=params.bias)
            return float(np.sum(probe * lstm_forward(seq, p)))

        def loss_b(bv):
            p = LstmParams(w_x=params.w_x, w_h=params.w_h, bias=bv)
            return float(np.sum(probe * lstm_forward(seq, p)))

        assert max_rel_error(grad_seq, numerical_gradient(loss_seq, seq.copy())) < 1e-4
        assert max_rel_error(grad_wx, numerical_gradient(loss_wx, params.w_x.copy())) < 1e-4
        assert max_rel_error(grad_wh, numerical_gradient(loss_wh, params.w_h.copy())) < 1e-4
        assert max_rel_error(grad_b, numerical_gradient(loss_b, params.bias.copy())) < 1e-4

    def test_batched_gradients_sum_over_sequences(self):
        rng = np.random.default_rng(23)
        params = LstmParams.create(3, 2, seed=4)
        seqs = rng.standard_normal((4, 6, 3))
        probes = rng.standard_normal((4, 2))
        _, cache = lstm_forward(seqs, params, return_cache=True)
        gseq, gwx, gwh, gb = lstm_backward(params, cache, probes)
        swx = np.zeros_like(gwx)
        swh = np.zeros_like(gwh)
        sb = np.zeros_like(gb)
        for i in range(4):
            _, ci = lstm_forward(seqs[i], params, return_cache=True)
            gsi, wxi, whi, bi = lstm_backward(params, ci, probes[i])
            assert np.allclose(gseq[i], gsi, rtol=1e-12, atol=1e-12)
            swx += wxi
            swh += whi
            sb += bi
        assert np.allclose(gwx, swx, rtol=1e-10, atol=1e-12)
        assert np.allclose(gwh, swh, rtol=1e-10, atol=1e-12)
        assert np.allclose(gb, sb, rtol=1e-10, atol=1e-12)

    def test_without_input_grad_the_parameter_gradients_are_unchanged(self):
        rng = np.random.default_rng(29)
        params = LstmParams.create(32, 10, seed=5)
        seqs = rng.standard_normal((6, 150, 32))
        probes = rng.standard_normal((6, 10))
        _, cache = lstm_forward(seqs, params, return_cache=True)
        full = lstm_backward(params, cache, probes)
        skipped = lstm_backward(params, cache, probes, input_grad=False)
        assert full[0].shape == seqs.shape and skipped[0] is None
        for got, want in zip(skipped[1:], full[1:]):
            assert np.array_equal(got, want)


def bits(a):
    """The float64 bit patterns of a, so NaN payloads and signs compare too."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan,
                     5e-324, -5e-324, 1e308, -1e308, 709.8, -709.8, 745.2, -745.2])
# 100,800 points out to +-800, where exp(|z|) overflows float64
GRID = np.concatenate([SPECIALS, np.linspace(-800.0, 800.0, 100_786)])


class TestSigmoidContract:
    """sigmoid is bitwise the masked two-branch formula it replaced."""

    def test_bitwise_on_grid_3h_rows(self):
        z = GRID.reshape(-1, 30)  # (B, 3H) at H = 10
        assert np.array_equal(bits(sigmoid(z)), bits(masked_sigmoid(z)))

    def test_bitwise_on_gate_slices(self):
        # the LSTM step passes z[..., :3H], a strided view of (..., 4H)
        z4 = np.zeros((GRID.size // 30, 40))
        z4[:, :30] = GRID.reshape(-1, 30)
        for z in (z4[:, :30], z4[0, :30], z4[-1, :30]):
            assert np.array_equal(bits(sigmoid(z)), bits(masked_sigmoid(z)))

    def test_bitwise_on_0d_inputs(self):
        for v in np.concatenate([SPECIALS, GRID[::997]]):
            z = np.array(v)
            out = sigmoid(z)
            assert out.shape == () and out.dtype == np.float64
            assert bits(out) == bits(masked_sigmoid(z))

    def test_no_overflow_or_invalid_warnings(self):
        # exp may underflow to 0 far out, which numpy ignores by default
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            sigmoid(GRID)

    def test_float64_result_for_int_and_0d_inputs(self):
        ints = np.arange(-40, 41)
        out = sigmoid(ints)
        assert out.dtype == np.float64
        assert np.array_equal(bits(out), bits(masked_sigmoid(ints.astype(np.float64))))
        assert sigmoid(np.array(3)).dtype == np.float64
        assert sigmoid(np.float64(-2.5)).dtype == np.float64
        assert sigmoid(np.linspace(-1, 1, 5)).dtype == np.float64

    def test_logistic_loss_gradient_matches_masked_oracle(self):
        scores = np.concatenate([SPECIALS[np.isfinite(SPECIALS)], np.linspace(-800.0, 800.0, 4001)])
        for y in (1.0, -1.0):
            labels = np.full(scores.shape, y)
            _, grad = logistic_loss(scores, labels)
            expected = -labels * masked_sigmoid(-(labels * scores))
            assert np.array_equal(bits(grad), bits(expected))
            for s in scores[::401]:
                _, g = logistic_loss(float(s), y)
                assert bits(g) == bits(-y * masked_sigmoid(np.array(-(y * s))))


def _assert_same_forward_and_bptt(seq, params, probe):
    h, cache = lstm_forward(seq, params, return_cache=True)
    h_ref, cache_ref = reference_lstm_forward(seq, params, return_cache=True)
    assert np.array_equal(h, h_ref)
    assert cache[0] is seq and cache_ref[0] is seq
    assert len(cache[1]) == len(cache_ref[1]) == seq.shape[-2]
    for step, step_ref in zip(cache[1], cache_ref[1]):
        assert len(step) == len(step_ref) == 7
        for got, want in zip(step, step_ref):
            assert np.array_equal(got, want)
    assert np.array_equal(lstm_forward(seq, params), h)
    for got, want in zip(lstm_backward(params, cache, probe),
                         lstm_backward(params, cache_ref, probe)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("scale", [1.0, 191.0, 1e6])
def test_batch_of_one_is_bitwise_the_sequence(scale):
    rng = np.random.default_rng(31)
    params = LstmParams.create(32, 10, seed=7)
    params.bias[:] = rng.standard_normal(params.bias.shape)
    seq = scale * rng.standard_normal((150, 32))
    probe = rng.standard_normal(10)
    h, cache = lstm_forward(seq, params, return_cache=True)
    h1, cache1 = lstm_forward(seq[None], params, return_cache=True)
    assert h.shape == (10,) and h1.shape == (1, 10)
    assert np.array_equal(bits(h1[0]), bits(h))
    for step, step1 in zip(cache[1], cache1[1], strict=True):
        for got, want in zip(step1, step, strict=True):
            assert got.shape == (1,) + want.shape
            assert np.array_equal(bits(got[0]), bits(want))
    grads = lstm_backward(params, cache, probe)
    grads1 = lstm_backward(params, cache1, probe[None])
    assert np.array_equal(bits(grads1[0][0]), bits(grads[0]))
    for got, want in zip(grads1[1:], grads[1:]):
        assert np.array_equal(bits(got), bits(want))


class TestStackedGatesMatchReference:
    """One stacked sigmoid per step is bitwise the per-gate recurrence."""

    @pytest.mark.parametrize("shape", [(9, 5), (150, 32), (7, 150, 32), (128, 150, 32)])
    @pytest.mark.parametrize("scale", [1.0, 191.0])
    def test_forward_cache_and_gradients(self, shape, scale):
        rng = np.random.default_rng(shape[-1] * 1000 + len(shape))
        params = LstmParams.create(shape[-1], 10 if shape[-1] == 32 else 3, seed=len(shape))
        params.bias[:] = rng.standard_normal(params.bias.shape)
        seq = scale * rng.standard_normal(shape)
        probe = rng.standard_normal(shape[:-2] + (params.hidden_size,))
        _assert_same_forward_and_bptt(seq, params, probe)

    @pytest.mark.parametrize("shape", [(150, 32), (7, 150, 32), (128, 150, 32)])
    def test_saturating_inputs(self, shape):
        rng = np.random.default_rng(11)
        params = LstmParams.create(32, 10, seed=6)
        seq = 1e6 * np.where(rng.random(shape) < 0.5, -1.0, 1.0)
        probe = rng.standard_normal(shape[:-2] + (10,))
        _assert_same_forward_and_bptt(seq, params, probe)


def test_two_phase_training_is_bitwise_the_reference(monkeypatch):
    x, y = pinned_split_instances()
    schedule = TrainSchedule(epochs=3, finetune_epochs=2, batch_size=16, seed=4)
    fast = train(build_haptic_lstm(seed=4), x, y, schedule)
    monkeypatch.setattr("hapticnet.models.lstm_forward", reference_lstm_forward)
    ref = train(build_haptic_lstm(seed=4), x, y, schedule)
    assert len(fast.loss_curve) == 5 and not fast.diverged
    assert np.array_equal(fast.loss_curve, ref.loss_curve)
    for (name, value), (_, value_ref) in zip(fast.model.named_params(),
                                             ref.model.named_params()):
        assert np.array_equal(value, value_ref), name
