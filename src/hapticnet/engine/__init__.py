"""Minimal deterministic neural-network engine.

Plain float64 numpy arrays are the tensor type throughout; every operation
is a pure function, so forward passes are reentrant and safe to parallelize.
"""

from .conv import ConvSpec, LayerParams, conv1d_backward, conv1d_forward
from .init import derive_seed, xavier_init
from .losses import LOSSES, hinge_loss, logistic_loss
from .lstm import LstmParams, lstm_backward, lstm_forward, sigmoid
from .ops import (
    avg_pool,
    inner_product,
    inner_product_backward,
    l2_normalize,
    relu,
    relu_backward,
)

__all__ = [
    "ConvSpec",
    "LayerParams",
    "LstmParams",
    "LOSSES",
    "avg_pool",
    "conv1d_backward",
    "conv1d_forward",
    "derive_seed",
    "hinge_loss",
    "inner_product",
    "inner_product_backward",
    "l2_normalize",
    "logistic_loss",
    "lstm_backward",
    "lstm_forward",
    "relu",
    "relu_backward",
    "sigmoid",
    "xavier_init",
]
