"""Binary classification losses on raw scores with labels in {-1, +1}.

Each returns (loss, gradient d/ds) as float64 numpy values with the
broadcast shape of score and label; scalar input gives shape ().
"""

import numpy as np

from ..errors import InvalidInputError
from .lstm import sigmoid


def _check_labels(label):
    arr = np.asarray(label, dtype=np.float64)
    if not np.all(np.abs(arr) == 1.0):
        raise InvalidInputError(f"labels must be -1 or +1, got {label!r}")
    return arr


def logistic_loss(score, label):
    """log(1 + exp(-y*s)) and its gradient d/ds, elementwise.

    Computed as logaddexp(0, -y*s), which stays finite for |s| up to
    float64 range (loss ~= |s| in the deep mislabeled regime).
    """
    y = _check_labels(label)
    s = np.asarray(score, dtype=np.float64)
    margin = y * s
    loss = np.logaddexp(0.0, -margin)
    grad = -y * sigmoid(np.asarray(-margin))
    return loss, grad


def hinge_loss(score, label):
    """max(0, 1 - y*s) and its gradient d/ds; subgradient at the kink is 0."""
    y = _check_labels(label)
    s = np.asarray(score, dtype=np.float64)
    margin = y * s
    loss = np.maximum(0.0, 1.0 - margin)
    grad = np.where(margin < 1.0, -y, 0.0)
    return loss, grad


LOSSES = {"logistic": logistic_loss, "hinge": hinge_loss}
