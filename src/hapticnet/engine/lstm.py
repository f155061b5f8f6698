"""LSTM forward recurrence and backpropagation through time.

The forward step makes one matmul for the hidden-to-gate terms and one
``sigmoid`` call over the stacked [input | forget | output] pre-activations;
the candidate gate gets its own ``tanh``.  The step input's gate terms are
added into the matmul's result in place.  For one sequence the gates are
views of the pre-activations; for a batch the pre-activations get one
gate-major copy first, so that each gate is contiguous.  At hidden size 10 a step
works on a few dozen numbers, so the fixed cost of each numpy call, not
arithmetic, sets its time.
"""

from dataclasses import dataclass

import numpy as np

from ..errors import InvalidInputError, InvalidSpecError
from .init import xavier_init


def sigmoid(z) -> np.ndarray:
    """Logistic sigmoid in float64, stable for |z| up to float64 range.

    With e = exp(-|z|) <= 1 this is 1/(1+e) for z >= 0 and e/(1+e) below,
    so exp never overflows.  The numerator is picked per element, without
    masks or gathers.  Takes any shape, 0-d included.
    """
    z = np.asarray(z, dtype=np.float64)
    # min(z, -z) is -|z|, but keeps the sign bit of a NaN input
    e = np.exp(np.minimum(z, -z))
    # e <= 1, so the larger of e and (z >= 0) is 1 there and e below
    return np.maximum(e, z >= 0) / (1.0 + e)


@dataclass
class LstmParams:
    """Stacked gate parameters: rows [input | forget | output | candidate].

    w_x maps the step input (D) to the 4H gate pre-activations, w_h maps the
    previous hidden state (H).  All four gate blocks share hidden_size, and
    the three sigmoid gates come first so that one call covers them.
    """

    w_x: np.ndarray  # (4H, D)
    w_h: np.ndarray  # (4H, H)
    bias: np.ndarray  # (4H,)

    def __post_init__(self):
        h4 = self.w_x.shape[0]
        if h4 % 4 or self.w_h.shape != (h4, h4 // 4) or self.bias.shape != (h4,):
            raise InvalidSpecError(
                f"inconsistent gate shapes: w_x {self.w_x.shape}, "
                f"w_h {self.w_h.shape}, bias {self.bias.shape}"
            )

    @property
    def hidden_size(self) -> int:
        return self.w_x.shape[0] // 4

    @property
    def input_size(self) -> int:
        return self.w_x.shape[1]

    @classmethod
    def create(cls, input_size: int, hidden_size: int, seed: int) -> "LstmParams":
        w_x = xavier_init((4 * hidden_size, input_size), input_size, seed)
        w_h = xavier_init((4 * hidden_size, hidden_size), hidden_size, seed + 1)
        return cls(w_x=w_x, w_h=w_h, bias=np.zeros(4 * hidden_size))


def lstm_forward(sequence: np.ndarray, params: LstmParams, return_cache: bool = False):
    """Run the LSTM over (..., T, D) and return the final hidden state (..., H).

    Standard recurrence with zero initial hidden and cell states:
    gates i,f,o via sigmoid, candidate g via tanh,
    c_t = f*c_{t-1} + i*g,  h_t = o*tanh(c_t).
    """
    if sequence.ndim < 2 or sequence.shape[-2] == 0:
        raise InvalidInputError(f"LSTM needs a non-empty (..., T, D) sequence, got {sequence.shape}")
    if sequence.shape[-1] != params.input_size:
        raise InvalidSpecError(
            f"sequence dim {sequence.shape[-1]} != params input size {params.input_size}"
        )
    t_len = sequence.shape[-2]
    h_size = params.hidden_size
    lead = sequence.shape[:-2]

    # One big matmul for all input-to-gate terms, then step the recurrence.
    zx = sequence @ params.w_x.T + params.bias  # (..., T, 4H)
    w_h_t = params.w_h.T
    gate_shape = (4,) + lead + (h_size,)
    h = np.zeros(lead + (h_size,))
    c = np.zeros(lead + (h_size,))
    steps = []
    for t in range(t_len):
        z = h @ w_h_t
        z += zx[..., t, :]
        if lead:
            # one gate-major copy makes each batched gate contiguous, which
            # the elementwise work here and in lstm_backward runs faster on
            z = z.reshape(-1, 4, h_size).swapaxes(0, 1).copy().reshape(gate_shape)
            i, f, o = sigmoid(z[:3])
            g = np.tanh(z[3])
        else:
            # 1-D slices: a ufunc call on a (3, H) array costs more than on 3H
            ifo = sigmoid(z[:3 * h_size])
            i, f, o = ifo[:h_size], ifo[h_size:2 * h_size], ifo[2 * h_size:]
            g = np.tanh(z[3 * h_size:])
        c_prev = c
        h_prev = h
        c = f * c_prev + i * g
        tc = np.tanh(c)
        h = o * tc
        if return_cache:
            steps.append((i, f, o, g, c_prev, h_prev, tc))
    if return_cache:
        return h, (sequence, steps)
    return h


def lstm_backward(params: LstmParams, cache, grad_h_final: np.ndarray, input_grad=True):
    """BPTT through lstm_forward's cache.

    Returns (grad_sequence, grad_w_x, grad_w_h, grad_bias).  With
    ``input_grad=False`` grad_sequence is not computed and is None.
    """
    sequence, steps = cache
    t_len = len(steps)
    h_size = params.hidden_size

    dh = grad_h_final
    dc = np.zeros_like(dh)
    dz_all = np.zeros(sequence.shape[:-1] + (4 * h_size,))
    for t in range(t_len - 1, -1, -1):
        i, f, o, g, c_prev, h_prev, tc = steps[t]
        do = dh * tc
        dc = dc + dh * o * (1.0 - tc * tc)
        di = dc * g
        df = dc * c_prev
        dg = dc * i
        dz = dz_all[..., t, :]
        dz[..., 0 * h_size:1 * h_size] = di * i * (1.0 - i)
        dz[..., 1 * h_size:2 * h_size] = df * f * (1.0 - f)
        dz[..., 2 * h_size:3 * h_size] = do * o * (1.0 - o)
        dz[..., 3 * h_size:4 * h_size] = dg * (1.0 - g * g)
        dh = dz @ params.w_h
        dc = dc * f

    grad_seq = dz_all @ params.w_x if input_grad else None
    dz2 = dz_all.reshape(-1, 4 * h_size)
    x2 = sequence.reshape(-1, params.input_size)
    grad_wx = dz2.T @ x2
    grad_b = dz2.sum(axis=0)
    # hidden-to-gate gradient pairs dz_t with h_{t-1}
    h_prevs = np.stack([s[5] for s in steps], axis=-2)  # (..., T, H)
    grad_wh = dz2.T @ h_prevs.reshape(-1, h_size)
    return grad_seq, grad_wx, grad_wh, grad_b
