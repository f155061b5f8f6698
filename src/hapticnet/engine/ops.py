"""ReLU, inner product, average pooling, and L2 normalization."""

import numpy as np

from ..errors import InvalidSpecError
from .conv import LayerParams


def relu(x: np.ndarray) -> np.ndarray:
    """Elementwise max(0, x)."""
    return np.maximum(x, 0.0)


def relu_backward(x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """Pass gradient where input > 0; subgradient at 0 is 0.

    Bitwise ``np.where(x > 0.0, grad_out, 0.0)`` for float64 gradients, NaN
    payloads and -0.0 included, computed as an AND of the gradient's bits
    with a mask that is all ones where x > 0 and all zeros elsewhere.
    """
    mask = (x > 0.0).astype(np.uint64)
    np.negative(mask, out=mask)  # 1 -> 0xFF..FF, 0 -> 0
    grad = np.asarray(grad_out, dtype=np.float64)
    np.bitwise_and(grad.view(np.uint64), mask, out=mask)
    return mask.view(np.float64)


def inner_product(x: np.ndarray, params: LayerParams) -> np.ndarray:
    """Affine map W.x + b for x of shape (..., D), W of shape (M, D)."""
    w = params.weights
    if w.ndim != 2 or x.shape[-1] != w.shape[1]:
        raise InvalidSpecError(
            f"inner_product: input dim {x.shape[-1]} vs weight shape {w.shape}"
        )
    if params.bias.shape != (w.shape[0],):
        raise InvalidSpecError(f"bias shape {params.bias.shape} != ({w.shape[0]},)")
    return x @ w.T + params.bias


def inner_product_backward(x, params: LayerParams, grad_out, input_grad=True):
    """Gradients of inner_product; batch axes sum into parameter gradients.

    Returns (grad_x, grad_w, grad_b).  With ``input_grad=False`` grad_x is
    not computed and is None.
    """
    w = params.weights
    if grad_out.shape != x.shape[:-1] + (w.shape[0],):
        raise InvalidSpecError(
            f"grad_out shape {grad_out.shape} does not match forward output"
        )
    grad_x = grad_out @ w if input_grad else None
    go2 = grad_out.reshape(-1, w.shape[0])
    x2 = x.reshape(-1, w.shape[1])
    grad_w = go2.T @ x2
    grad_b = go2.sum(axis=0)
    return grad_x, grad_w, grad_b


def avg_pool(featmap: np.ndarray) -> np.ndarray:
    """Average over all non-channel positions; channels are the last axis."""
    c = featmap.shape[-1]
    return featmap.reshape(-1, c).mean(axis=0)


def l2_normalize(v: np.ndarray):
    """Scale v to unit L2 norm.

    Returns (unit_vector, degenerate).  A zero vector is returned unchanged
    with degenerate=True instead of dividing by an epsilon; downstream
    classifiers treat it as an all-zero feature.
    """
    norm = np.linalg.norm(v)
    if norm == 0.0:
        return np.zeros_like(v), True
    return v / norm, False
