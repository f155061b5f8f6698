"""LSTM forward recurrence and backpropagation through time.

One loop body serves one sequence and a batch: the hidden and cell states
are columns, (H,) or (H, B), so a step's gate pre-activations, ``w_h @ h``
plus the step input's terms, form one (4H,) or (4H, B) array whose gates
are contiguous row blocks [input | forget | output | candidate].  One
``sigmoid`` call covers the first three blocks and one ``tanh`` the last.
The cache keeps the batch-major (..., H) layout, as transposed views, and
the backward pass transposes those back to do its elementwise work on rows.
At hidden size 10 a step works on a few dozen numbers, so the fixed cost of
each numpy call, not arithmetic, sets its time.
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
    """Run the LSTM over (T, D) or (B, T, D) and return the final hidden state, (H,) or (B, H).

    Standard recurrence with zero initial hidden and cell states:
    gates i,f,o via sigmoid, candidate g via tanh,
    c_t = f*c_{t-1} + i*g,  h_t = o*tanh(c_t).
    """
    if sequence.ndim not in (2, 3) or sequence.shape[-2] == 0:
        raise InvalidInputError(
            f"LSTM needs a non-empty (T, D) sequence or (B, T, D) batch, got shape {sequence.shape}"
        )
    if sequence.shape[-1] != params.input_size:
        raise InvalidSpecError(
            f"sequence dim {sequence.shape[-1]} != params input size {params.input_size}"
        )
    h_size = params.hidden_size

    # One big matmul for all input-to-gate terms, (T, 4H) or (T, B, 4H);
    # zx[t].T is step t's terms as (4H,) or (4H, B) rows.
    zx = np.swapaxes(sequence @ params.w_x.T + params.bias, 0, -2)
    h = np.zeros((h_size,) + zx.shape[1:-1])
    c = np.zeros_like(h)
    steps = []
    for t in range(len(zx)):
        z = params.w_h @ h
        z += zx[t].T
        ifo = sigmoid(z[:3 * h_size])
        i, f, o = ifo[:h_size], ifo[h_size:2 * h_size], ifo[2 * h_size:]
        g = np.tanh(z[3 * h_size:])
        c_prev = c
        h_prev = h
        c = f * c_prev + i * g
        tc = np.tanh(c)
        h = o * tc
        if return_cache:
            steps.append((i.T, f.T, o.T, g.T, c_prev.T, h_prev.T, tc.T))
    h = np.ascontiguousarray(h.T)
    if return_cache:
        return h, (sequence, steps)
    return h


def lstm_backward(params: LstmParams, cache, grad_h_final: np.ndarray, input_grad=True):
    """BPTT through lstm_forward's cache.

    Returns (grad_sequence, grad_w_x, grad_w_h, grad_bias).  With
    ``input_grad=False`` grad_sequence is not computed and is None.
    """
    sequence, steps = cache
    h_size = params.hidden_size

    dh = grad_h_final.T
    dc = np.zeros_like(dh)
    dz_all = np.zeros(sequence.shape[:-1] + (4 * h_size,))
    for t in range(len(steps) - 1, -1, -1):
        i, f, o, g, c_prev, _, tc = (a.T for a in steps[t])
        do = dh * tc
        dc = dc + dh * o * (1.0 - tc * tc)
        di = dc * g
        df = dc * c_prev
        dg = dc * i
        dz = dz_all[..., t, :]
        rows = dz.T
        rows[0 * h_size:1 * h_size] = di * i * (1.0 - i)
        rows[1 * h_size:2 * h_size] = df * f * (1.0 - f)
        rows[2 * h_size:3 * h_size] = do * o * (1.0 - o)
        rows[3 * h_size:4 * h_size] = dg * (1.0 - g * g)
        # BLAS sums in another order when handed the transposed rows, so the
        # recurrent product runs on the batch-major slice
        dh = (dz @ params.w_h).T
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
