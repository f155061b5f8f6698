"""Independent reference implementations used to check the fast paths.

Everything here is deliberately naive (nested loops, per-coordinate finite
differences, pairwise counting, one row of text at a time) and stays
independent of the code under test.
"""

import numpy as np


def naive_conv1d(x, spec, weights, bias):
    """Five-nested-loop grouped cross-correlation, (C_in, T) -> (C_out, T_out).

    Accumulates bias first, then in-channel-major / kernel-minor.  The
    im2col kernel sums in another order, so the two agree to rounding.
    """
    c_in, t = x.shape
    ipg = spec.in_channels // spec.groups
    opg = spec.out_channels // spec.groups
    t_out = (t + 2 * spec.pad - spec.kernel_len) // spec.stride + 1
    xp = np.zeros((c_in, t + 2 * spec.pad))
    xp[:, spec.pad:spec.pad + t] = x
    y = np.zeros((spec.out_channels, t_out))
    for g in range(spec.groups):
        for oo in range(opg):
            o = g * opg + oo
            for ti in range(t_out):
                acc = bias[o]
                for c in range(ipg):
                    for k in range(spec.kernel_len):
                        acc += weights[o, c, k] * xp[g * ipg + c, ti * spec.stride + k]
                y[o, ti] = acc
    return y


def naive_conv1d_backward(x, spec, weights, grad_out):
    """Gradients of naive_conv1d by the same nested loops, for a (C_in, T) input.

    Each output element's gradient is scattered to the bias, to the weights
    and to the input positions it read.  Returns (grad_x, grad_weights,
    grad_bias).
    """
    c_in, t = x.shape
    ipg = spec.in_channels // spec.groups
    opg = spec.out_channels // spec.groups
    t_out = (t + 2 * spec.pad - spec.kernel_len) // spec.stride + 1
    xp = np.zeros((c_in, t + 2 * spec.pad))
    xp[:, spec.pad:spec.pad + t] = x
    grad_xp = np.zeros_like(xp)
    grad_w = np.zeros(np.shape(weights))
    grad_b = np.zeros(spec.out_channels)
    for g in range(spec.groups):
        for oo in range(opg):
            o = g * opg + oo
            for ti in range(t_out):
                go = grad_out[o, ti]
                grad_b[o] += go
                for c in range(ipg):
                    for k in range(spec.kernel_len):
                        pos = ti * spec.stride + k
                        grad_w[o, c, k] += go * xp[g * ipg + c, pos]
                        grad_xp[g * ipg + c, pos] += go * weights[o, c, k]
    return grad_xp[:, spec.pad:spec.pad + t], grad_w, grad_b


def instance_major_conv1d(x, spec, params):
    """The grouped conv with instance-major im2col: one GEMM per (instance, group).

    This is the kernel hapticnet shipped before its windows went group-major,
    kept as the bitwise reference: on the haptic layers, forward outputs and
    input gradients must match it exactly, and weight gradients to rounding,
    since its batch sum runs per instance.  Same contract as ``conv1d_forward``: (C, T) or
    (B, C, T) input, returns (output, cache).
    """
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
    w = params.weights.reshape(spec.groups, spec.out_per_group, -1)
    y = w @ cols  # (G,opg,ipg*K) @ (B,G,ipg*K,T_out) -> (B,G,opg,T_out)
    y = y.reshape(b, spec.out_channels, t_out) + params.bias[:, None]
    return (y[0] if squeeze else y), (cols, (b, t, t_out, squeeze))


def instance_major_conv1d_backward(spec, params, cache, grad_out, input_grad=True):
    """Gradients of instance_major_conv1d; same contract as ``conv1d_backward``."""
    cols, (b, t, t_out, squeeze) = cache
    go = grad_out[None] if squeeze else grad_out
    grad_b = go.sum(axis=(0, -1))
    go_g = go.reshape(b, spec.groups, spec.out_per_group, t_out)
    # (B,G,opg,T_out) @ (B,G,T_out,ipg*K) summed over the batch
    grad_w = (go_g @ cols.swapaxes(-1, -2)).sum(axis=0).reshape(spec.weight_shape())
    if not input_grad:
        return None, grad_w, grad_b
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


def numerical_gradient(f, x, step=1e-5):
    """Central-difference gradient of scalar f at x, coordinate by coordinate."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        fp = f(x)
        flat[i] = orig - step
        fm = f(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * step)
    return grad


def max_rel_error(analytic, numeric):
    """max over coordinates of |a - n| / max(1, |a|, |n|)."""
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(n)))
    return float(np.max(np.abs(a - n) / denom)) if a.size else 0.0


def pair_count_auc(scores, labels):
    """AUC by direct enumeration of (positive, negative) pairs; ties get 0.5."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels > 0]
    neg = scores[labels <= 0]
    wins = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def eigh_pca(samples, k):
    """PCA reference via dense symmetric eigendecomposition of the covariance.

    Returns (mean, components (D, k), explained_variance_ratio (k,)), with
    each component's largest-magnitude entry made positive.
    """
    x = np.asarray(samples, dtype=np.float64)
    mean = x.mean(axis=0)
    centered = x - mean
    cov = centered.T @ centered / (x.shape[0] - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    eigvals = eigvals[order]
    eigvecs = eigvecs[:, order]
    comps = eigvecs[:, :k].copy()
    for j in range(k):
        i = np.argmax(np.abs(comps[:, j]))
        if comps[i, j] < 0:
            comps[:, j] = -comps[:, j]
    total = eigvals.sum()
    ratios = eigvals[:k] / total
    return mean, comps, ratios


def reference_instance(trial, finger, offset, pca):
    """32x150 instance of one (finger, offset) view, built channel by channel.

    Every series is z-scored, decimated, projected and subsampled on its own
    with 1-D calls of hapticnet's primitives, nothing shared between
    channels or offsets.  The primitives' own values are pinned by their
    tests; this pins the composition, so the block path that normalizes
    stacked channels once per (finger, EP) must match it bit for bit.
    """
    from hapticnet.haptic import (
        BASE_CHANNELS, ELECTRODES, EPS, RESAMPLE_LEN,
        decimate_pac, pca_project, resample_fixed, zscore_normalize,
    )

    rows = []
    for ep in EPS:
        chans = trial.signals[(finger, ep)]
        pac = decimate_pac(zscore_normalize(chans["P_AC"]))
        rows.append(resample_fixed(pac, RESAMPLE_LEN, offset))
        for name in BASE_CHANNELS[1:]:
            rows.append(resample_fixed(zscore_normalize(chans[name]), RESAMPLE_LEN, offset))
        elec = np.stack([zscore_normalize(chans[e]) for e in ELECTRODES], axis=1)  # (T, 19)
        projected = pca_project(pca[ep], elec)
        for j in range(projected.shape[1]):
            rows.append(resample_fixed(projected[:, j], RESAMPLE_LEN, offset))
    return np.stack(rows)


def masked_sigmoid(z):
    """Logistic sigmoid by boolean masks: each branch sees only its own side."""
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def reference_lstm_forward(sequence, params, return_cache=False):
    """LSTM forward with one masked sigmoid call per gate.

    Same recurrence, cache layout and accumulation order as
    ``hapticnet.engine.lstm_forward``, which evaluates the three sigmoid
    gates in one stacked call and must match this bit for bit.
    """
    from hapticnet.errors import InvalidInputError, InvalidSpecError

    if sequence.ndim < 2 or sequence.shape[-2] == 0:
        raise InvalidInputError(f"LSTM needs a non-empty (..., T, D) sequence, got {sequence.shape}")
    if sequence.shape[-1] != params.input_size:
        raise InvalidSpecError(
            f"sequence dim {sequence.shape[-1]} != params input size {params.input_size}"
        )
    t_len = sequence.shape[-2]
    h_size = params.hidden_size
    lead = sequence.shape[:-2]

    zx = sequence @ params.w_x.T + params.bias  # (..., T, 4H)
    h = np.zeros(lead + (h_size,))
    c = np.zeros(lead + (h_size,))
    steps = []
    for t in range(t_len):
        z = zx[..., t, :] + h @ params.w_h.T
        i = masked_sigmoid(z[..., 0 * h_size:1 * h_size])
        f = masked_sigmoid(z[..., 1 * h_size:2 * h_size])
        o = masked_sigmoid(z[..., 2 * h_size:3 * h_size])
        g = np.tanh(z[..., 3 * h_size:4 * h_size])
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


def reference_two_phase_sgd(x, y, model_seed, schedule):
    """``train`` of ``build_linear_classifier(D, model_seed)`` as a plain loop.

    Returns (loss curve, weights (D,), bias).  Only the seeds come from the
    package: the initial and the reinitialized classifier weights are its
    xavier draws, and the batch order is its seeded shuffle.  Losses,
    gradients and the momentum step are written out here, and each phase
    starts its momentum from zero.
    """
    from hapticnet.engine import derive_seed, xavier_init

    n, d = x.shape
    batch = min(schedule.batch_size, n)
    order_rng = np.random.Generator(np.random.PCG64(derive_seed(schedule.seed, "batch-shuffle")))
    w = xavier_init((1, d), d, derive_seed(model_seed, "fc.weights"))[0]
    b = 0.0
    curve = []

    def phase(loss, epochs):
        nonlocal w, b
        vel_w, vel_b = np.zeros(d), 0.0
        for _ in range(epochs):
            order = order_rng.permutation(n)
            total = 0.0
            for start in range(0, n, batch):
                idx = order[start:start + batch]
                xb, yb = x[idx], y[idx]
                margin = yb * (xb @ w + b)
                if loss == "logistic":
                    total += np.sum(np.log1p(np.exp(-margin)))
                    grad_s = -yb / (1.0 + np.exp(margin))
                else:
                    total += np.sum(np.maximum(0.0, 1.0 - margin))
                    grad_s = np.where(margin < 1.0, -yb, 0.0)
                grad_s = grad_s / idx.size
                vel_w = schedule.momentum * vel_w - schedule.lr * (grad_s @ xb)
                vel_b = schedule.momentum * vel_b - schedule.lr * np.sum(grad_s)
                w = w + vel_w
                b = b + vel_b
            curve.append(total / n)

    if schedule.phase == "hinge-finetune":
        phase("hinge", schedule.epochs)
    else:
        phase("logistic", schedule.epochs)
        w = xavier_init((1, d), d, derive_seed(schedule.seed, "fc.reinit"))[0]
        b = 0.0
        phase("hinge", schedule.finetune_epochs)
    return curve, w, b


def rowwise_write_trial_file(path, channels: dict) -> None:
    """Trial-file writer that formats one cell at a time and trims each row's
    trailing empty cells in a loop: the reference for ``write_trial_file``
    on finite channels whose lengths do not grow along ``CHANNELS``."""
    from hapticnet.haptic import CHANNELS

    series = [np.asarray(channels[c], dtype=np.float64) for c in CHANNELS]
    n_rows = max(s.size for s in series)
    cells = np.full((n_rows, len(CHANNELS)), "", dtype=object)
    for j, s in enumerate(series):
        cells[:s.size, j] = np.char.mod("%.8g", s)
    lines = [",".join(CHANNELS)]
    for row in cells:
        last = len(row)
        while last > 0 and row[last - 1] == "":
            last -= 1
        lines.append(",".join(row[:last]))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def rowwise_read_trial_file(path) -> dict:
    """Trial-file reader that splits and converts one line at a time: the
    reference for ``read_trial_file``, except that it accepts cells that
    parse to NaN or infinity."""
    from hapticnet.errors import UnsupportedFormatError
    from hapticnet.haptic import CHANNELS

    with open(path) as fh:
        lines = [line.rstrip("\n") for line in fh]
    if not lines:
        raise UnsupportedFormatError(f"{path}: empty trial file")
    names = lines[0].split(",")
    if len(names) != len(CHANNELS) or set(names) != set(CHANNELS):
        raise UnsupportedFormatError(f"{path}: header does not list the expected channels")
    columns = [[] for _ in names]
    width = len(names)  # columns still running
    for ln, line in enumerate(lines[1:], start=2):
        cells = line.split(",")  # a blank line is a row in which every column has ended
        if len(cells) != width or "" in cells:
            cells = _row_prefix(path, ln, names, cells, width)
            width = len(cells)
        try:
            for column, cell in zip(columns, cells):
                column.append(float(cell))
        except ValueError:
            j = cells.index(cell)  # an equal cell further left would have failed first
            raise UnsupportedFormatError(
                f"{path}:{ln}: column {j + 1} ({names[j]}): {cell!r} is not a number") from None
    return {n: np.asarray(v, dtype=np.float64) for n, v in zip(names, columns)}


def _row_prefix(path, ln, names, cells, width) -> list:
    """The filled cells of a row that is not a full row of ``width`` cells."""
    from hapticnet.errors import UnsupportedFormatError

    n = len(cells)
    while n and cells[n - 1] == "":
        n -= 1
    if "" in cells[:n]:
        j = cells.index("")
        raise UnsupportedFormatError(
            f"{path}:{ln}: column {j + 1} ({names[j]}) is empty but a column right of it is not")
    if n > len(names):
        raise UnsupportedFormatError(f"{path}:{ln}: more cells than header columns")
    if n > width:
        raise UnsupportedFormatError(
            f"{path}:{ln}: column {width + 1} ({names[width]}) has a value after it ended")
    return cells[:n]
