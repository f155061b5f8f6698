"""Grouped 1-D convolution (cross-correlation) with exact analytic gradients.

One kernel serves single instances and batches.  The im2col windows are laid
out group-major, (G, ipg*K, B*T_out), so a layer makes one GEMM per group over
every instance's output steps rather than one small GEMM per (instance,
group).  Only the parameter gradients sum across instances; the weight
gradient does so in one GEMM over B*T_out per group.

Batch invariance rests on this: each output element is one dot product of
length ipg*K, a weight row against one window column, and no sum runs
across instances.  An instance's output is then bitwise the same alone as
in any batch provided BLAS rounds that dot product alike at every matrix
width.  It does for the haptic layers (``HAPTIC_CONV_SPECS``), which
``test_haptic_layer_output_is_batch_invariant`` and
``test_conv3_tap_is_batch_invariant`` pin.  It need not for other specs:
with one output channel per group numpy runs a matrix-vector product, and
OpenBLAS picks kernels by problem size.
"""

from dataclasses import dataclass

import numpy as np

from ..errors import InvalidInputError, InvalidSpecError
from .init import xavier_init


@dataclass(frozen=True)
class ConvSpec:
    """Shape contract of a grouped temporal convolution layer."""

    in_channels: int
    out_channels: int
    kernel_len: int
    stride: int = 1
    pad: int = 0
    groups: int = 1

    def __post_init__(self):
        if self.kernel_len < 1 or self.stride < 1 or self.pad < 0:
            raise InvalidSpecError(f"bad kernel/stride/pad in {self}")
        if self.groups < 1:
            raise InvalidSpecError(f"groups must be positive in {self}")
        if self.in_channels % self.groups or self.out_channels % self.groups:
            raise InvalidSpecError(
                f"channels not divisible by groups: in={self.in_channels} "
                f"out={self.out_channels} groups={self.groups}"
            )

    @property
    def in_per_group(self) -> int:
        return self.in_channels // self.groups

    @property
    def out_per_group(self) -> int:
        return self.out_channels // self.groups

    def out_len(self, t: int) -> int:
        if t + 2 * self.pad < self.kernel_len:
            raise InvalidInputError(
                f"input length {t} too short for kernel {self.kernel_len} with pad {self.pad}"
            )
        return (t + 2 * self.pad - self.kernel_len) // self.stride + 1

    def weight_shape(self) -> tuple:
        # groups=G stores only within-group weights: 1/G of the ungrouped count
        return (self.out_channels, self.in_per_group, self.kernel_len)


@dataclass
class LayerParams:
    """Weights + bias of a linear layer (conv or dense)."""

    weights: np.ndarray
    bias: np.ndarray

    @classmethod
    def for_conv(cls, spec: ConvSpec, seed: int) -> "LayerParams":
        fan_in = spec.in_per_group * spec.kernel_len
        w = xavier_init(spec.weight_shape(), fan_in, seed)
        return cls(weights=w, bias=np.zeros(spec.out_channels))

    @classmethod
    def for_dense(cls, in_dim: int, out_dim: int, seed: int) -> "LayerParams":
        w = xavier_init((out_dim, in_dim), in_dim, seed)
        return cls(weights=w, bias=np.zeros(out_dim))


def _im2col(x, spec: ConvSpec):
    """Group-major window tensor (G, ipg*K, B*T_out) built from K slice copies.

    Row (c, k) of group g holds input channel g*ipg + c at tap k, and column
    b*T_out + t is instance b's output step t, so one GEMM per group covers
    every instance of the batch.
    """
    if x.ndim not in (2, 3):
        raise InvalidInputError(
            f"conv input must be (C, T) or (B, C, T), got shape {x.shape}"
        )
    if x.shape[-2] != spec.in_channels:
        raise InvalidSpecError(
            f"input has {x.shape[-2]} channels, spec expects {spec.in_channels}"
        )
    squeeze = x.ndim == 2
    xb = x[None] if squeeze else x
    b, _, t = xb.shape
    t_out = spec.out_len(t)
    k_len = spec.kernel_len
    xc = xb.transpose(1, 0, 2)  # (C, B, T)
    if spec.pad:
        p = spec.pad
        padded = np.empty((spec.in_channels, b, t + 2 * p), dtype=xc.dtype)
        padded[..., :p] = 0.0
        padded[..., p + t:] = 0.0
        padded[..., p:p + t] = xc
        xc = padded
    xg = xc.reshape(spec.groups, spec.in_per_group, b, -1)
    cols = np.empty((spec.groups, spec.in_per_group, k_len, b, t_out))
    stop = spec.stride * (t_out - 1) + 1
    for k in range(k_len):
        cols[:, :, k] = xg[..., k:k + stop:spec.stride]
    cols = cols.reshape(spec.groups, spec.in_per_group * k_len, b * t_out)
    return cols, (b, t, t_out, squeeze)


def conv1d_forward(x, spec: ConvSpec, params: LayerParams):
    """Grouped cross-correlation over the last axis, one GEMM per group.

    ``x`` is (C_in, T) or (B, C_in, T); the output is (C_out, T_out) or
    (B, C_out, T_out) with T_out = floor((T + 2*pad - K)/stride) + 1.  No
    kernel flip.  Output channels in group g read only input channels of
    group g.  Each output element is one dot product of length ipg*K, so an
    instance's output does not depend on the batch it runs in, up to how
    BLAS rounds that product at different widths (see the module docstring;
    ``test_haptic_layer_output_is_batch_invariant`` pins the haptic layers).
    Returns (output, cache); the cache keeps the window tensor for
    conv1d_backward.
    """
    if params.weights.shape != spec.weight_shape():
        raise InvalidSpecError(
            f"weights {params.weights.shape} do not match spec {spec.weight_shape()}"
        )
    if params.bias.shape != (spec.out_channels,):
        raise InvalidSpecError(f"bias shape {params.bias.shape} != ({spec.out_channels},)")
    cols, dims = _im2col(x, spec)
    b, _, t_out, squeeze = dims
    w = params.weights.reshape(spec.groups, spec.out_per_group, -1)
    y = w @ cols  # (G,opg,ipg*K) @ (G,ipg*K,B*T_out) -> (G,opg,B*T_out)
    y = y.reshape(spec.out_channels, b, t_out).transpose(1, 0, 2)
    # a C-ordered output keeps the memory layout, and so the summation order,
    # of everything downstream, the bias gradients included
    out = np.empty((b, spec.out_channels, t_out))
    np.add(y, params.bias[:, None], out=out)
    return (out[0] if squeeze else out), (cols, dims)


def conv1d_backward(spec: ConvSpec, params: LayerParams, cache, grad_out, input_grad=True):
    """Analytic gradients of conv1d_forward from its cache.

    Returns (grad_input, grad_weights, grad_bias); the batch axis of
    ``grad_out`` is summed into the parameter gradients.  With
    ``input_grad=False`` grad_input is not computed and is None.
    """
    cols, (b, t, t_out, squeeze) = cache
    out_shape = (spec.out_channels, t_out) if squeeze else (b, spec.out_channels, t_out)
    if grad_out.shape != out_shape:
        raise InvalidSpecError(
            f"grad_out shape {grad_out.shape} does not match forward output {out_shape}"
        )
    go = grad_out[None] if squeeze else grad_out
    grad_b = go.sum(axis=(0, -1))
    go_g = go.transpose(1, 0, 2).reshape(spec.groups, spec.out_per_group, b * t_out)
    # (G,opg,B*T_out) @ (G,B*T_out,ipg*K): one sum over every instance's steps
    grad_w = (go_g @ cols.swapaxes(-1, -2)).reshape(spec.weight_shape())
    if not input_grad:
        return None, grad_w, grad_b
    w = params.weights.reshape(spec.groups, spec.out_per_group, -1)
    grad_cols = w.swapaxes(-1, -2) @ go_g  # (G,ipg*K,B*T_out)
    grad_cols = grad_cols.reshape(spec.groups, spec.in_per_group, spec.kernel_len,
                                  b, t_out)
    grad_xg = np.zeros((spec.groups, spec.in_per_group, b, t + 2 * spec.pad))
    stop = spec.stride * (t_out - 1) + 1
    for k in range(spec.kernel_len):
        grad_xg[..., k:k + stop:spec.stride] += grad_cols[:, :, k]
    grad_x = grad_xg.reshape(spec.in_channels, b, -1)[..., spec.pad:spec.pad + t]
    grad_x = grad_x.transpose(1, 0, 2)
    return (grad_x[0] if squeeze else grad_x), grad_w, grad_b
