"""Grouped 1-D convolution (cross-correlation) with exact analytic gradients.

One kernel serves single instances and batches: im2col windows, then one
GEMM per (instance, group).
"""

from dataclasses import dataclass, field

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

    def to_dict(self) -> dict:
        return {
            "in_channels": self.in_channels,
            "out_channels": self.out_channels,
            "kernel_len": self.kernel_len,
            "stride": self.stride,
            "pad": self.pad,
            "groups": self.groups,
        }


@dataclass
class LayerParams:
    """Weights + bias of a linear layer, with matching momentum buffers."""

    weights: np.ndarray
    bias: np.ndarray
    w_vel: np.ndarray = field(default=None)
    b_vel: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.w_vel is None:
            self.w_vel = np.zeros_like(self.weights)
        if self.b_vel is None:
            self.b_vel = np.zeros_like(self.bias)
        if self.w_vel.shape != self.weights.shape or self.b_vel.shape != self.bias.shape:
            raise InvalidSpecError("velocity shape must equal parameter shape")

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
    """Window tensor (B, G, ipg*K, T_out) built from K contiguous slice copies."""
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
    if spec.pad:
        xb = np.pad(xb, ((0, 0), (0, 0), (spec.pad, spec.pad)))
    xg = xb.reshape(b, spec.groups, spec.in_per_group, -1)
    cols = np.empty((b, spec.groups, spec.in_per_group, k_len, t_out))
    stop = spec.stride * (t_out - 1) + 1
    for k in range(k_len):
        cols[..., k, :] = xg[..., k:k + stop:spec.stride]
    cols = cols.reshape(b, spec.groups, spec.in_per_group * k_len, t_out)
    return cols, (b, t, t_out, squeeze)


def conv1d_forward(x, spec: ConvSpec, params: LayerParams):
    """Grouped cross-correlation over the last axis, one GEMM per (instance, group).

    ``x`` is (C_in, T) or (B, C_in, T); the output is (C_out, T_out) or
    (B, C_out, T_out) with T_out = floor((T + 2*pad - K)/stride) + 1.  No
    kernel flip.  Output channels in group g read only input channels of
    group g.  Each instance's windows go through their own GEMMs, so an
    instance's output is bitwise the same alone as in any batch.  Returns
    (output, cache); the cache keeps the window tensor for conv1d_backward.
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
    y = w @ cols  # (G,opg,ipg*K) @ (B,G,ipg*K,T_out) -> (B,G,opg,T_out)
    y = y.reshape(b, spec.out_channels, t_out) + params.bias[:, None]
    return (y[0] if squeeze else y), (cols, dims)


def conv1d_backward(spec: ConvSpec, params: LayerParams, cache, grad_out):
    """Analytic gradients of conv1d_forward from its cache.

    Returns (grad_input, grad_weights, grad_bias); the batch axis of
    ``grad_out`` is summed into the parameter gradients.
    """
    cols, (b, t, t_out, squeeze) = cache
    out_shape = (spec.out_channels, t_out) if squeeze else (b, spec.out_channels, t_out)
    if grad_out.shape != out_shape:
        raise InvalidSpecError(
            f"grad_out shape {grad_out.shape} does not match forward output {out_shape}"
        )
    go = grad_out[None] if squeeze else grad_out
    grad_b = go.sum(axis=(0, -1))
    go_g = go.reshape(b, spec.groups, spec.out_per_group, t_out)
    # (B,G,opg,T_out) @ (B,G,T_out,ipg*K) summed over the batch
    grad_w = (go_g @ cols.swapaxes(-1, -2)).sum(axis=0).reshape(spec.weight_shape())
    w = params.weights.reshape(spec.groups, spec.out_per_group, -1)
    grad_cols = w.swapaxes(-1, -2) @ go_g  # (B,G,ipg*K,T_out)
    grad_cols = grad_cols.reshape(b, spec.groups, spec.in_per_group,
                                  spec.kernel_len, t_out)
    grad_xg = np.zeros((b, spec.groups, spec.in_per_group, t + 2 * spec.pad))
    stop = spec.stride * (t_out - 1) + 1
    for k in range(spec.kernel_len):
        grad_xg[..., k:k + stop:spec.stride] += grad_cols[..., k, :]
    grad_x = grad_xg.reshape(b, spec.in_channels, -1)
    if spec.pad:
        grad_x = grad_x[..., spec.pad:spec.pad + t]
    return (grad_x[0] if squeeze else grad_x), grad_w, grad_b
