"""SGD with classical momentum."""

import numpy as np

from ..errors import NonFiniteGradientError


def sgd_momentum_step(value: np.ndarray, velocity: np.ndarray, grad: np.ndarray, *,
                      lr: float, momentum: float, name: str) -> None:
    """In-place update: v <- mu*v - lr*g; w <- w + v.

    Requires exclusive access to (value, velocity).  Non-finite gradients
    abort with a diagnostic naming the parameter.
    """
    if not np.all(np.isfinite(grad)):
        bad = int(np.size(grad) - np.count_nonzero(np.isfinite(grad)))
        raise NonFiniteGradientError(
            f"non-finite gradient for {name}: {bad} bad entries"
        )
    velocity *= momentum
    velocity -= lr * grad
    value += velocity
