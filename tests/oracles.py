"""Independent reference implementations used to check the fast paths.

Everything here is deliberately naive (nested loops, per-coordinate finite
differences, pairwise counting) and stays independent of the code under
test.
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


def svd_pca(samples, k):
    """PCA reference via the SVD of the centred samples, which never forms
    their Gram matrix and so keeps its accuracy at a large sigma_1 / sigma_k.

    Returns (mean, components (D, k), explained_variance_ratio (k,)), with
    each component's largest-magnitude entry made positive.  No rank check:
    a rank-deficient input gives noise components and ratios near zero.
    """
    x = np.asarray(samples, dtype=np.float64)
    mean = x.mean(axis=0)
    _, svals, vt = np.linalg.svd(x - mean, full_matrices=False)
    comps = vt[:k].T.copy()
    for j in range(k):
        i = np.argmax(np.abs(comps[:, j]))
        if comps[i, j] < 0:
            comps[:, j] = -comps[:, j]
    variances = svals ** 2
    return mean, comps, variances[:k] / variances.sum()


def reference_instance(trial, finger, offset, pca):
    """32x150 instance of one (finger, offset) view, built channel by channel.

    Every series is z-scored, decimated and projected on its own with 1-D
    calls of hapticnet's primitives, and subsampled by ``subsample``, nothing
    shared between channels or offsets.  The primitives' own values are
    pinned by their tests; this pins the composition, so the block path that
    normalizes stacked channels once per (finger, EP) must match it bit for
    bit.  Subsampling only copies samples, so equal indices give equal bits.
    """
    from hapticnet.haptic import (
        BASE_CHANNELS, ELECTRODES, EPS, decimate_pac, pca_project, zscore_normalize,
    )

    rows = []
    for ep in EPS:
        chans = trial.signals[(finger, ep)]
        rows.append(subsample(decimate_pac(zscore_normalize(chans["P_AC"])), offset))
        for name in BASE_CHANNELS[1:]:
            rows.append(subsample(zscore_normalize(chans[name]), offset))
        elec = np.stack([zscore_normalize(chans[e]) for e in ELECTRODES], axis=1)  # (T, 19)
        projected = pca_project(pca[ep], elec)
        for j in range(projected.shape[1]):
            rows.append(subsample(projected[:, j], offset))
    return np.stack(rows)


def subsample(series, offset):
    """150 samples of a 1-D series, one at a time: sample j is at index
    offset + round(j * (len - 1 - offset) / 149), half to even."""
    span = len(series) - 1 - offset
    return np.array([series[offset + round(j * span / 149)] for j in range(150)])


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


def reference_two_phase_sgd(x, y, model_seed, schedule, hidden=None):
    """``train`` of a dense net as a plain loop.

    With ``hidden`` None the net is ``build_linear_classifier(D,
    model_seed)``: its one layer is the classifier, so it runs the hinge
    phase alone for ``finetune_epochs``.  Otherwise it is ``fc1`` (D ->
    hidden, ReLU) then ``fc2`` (hidden -> 1), each layer's weights drawn
    from ``derive_seed(model_seed, "<layer>.weights")``; it runs logistic
    pretraining for ``epochs``, redraws ``fc2`` and runs hinge for
    ``finetune_epochs``.

    Returns (loss curve, [(weights, bias)] per layer).  Only the seeds come
    from the package: the initial and the reinitialized weights are its
    xavier draws, and the batch order is its seeded shuffle.  Losses,
    gradients, the step size of 0.01 and the momentum of 0.9 are written
    out here, and each phase starts its momentum from zero.
    """
    from hapticnet.engine import derive_seed, xavier_init

    lr, momentum = 0.01, 0.9
    n, d = x.shape
    batch = min(schedule.batch_size, n)
    order_rng = np.random.Generator(np.random.PCG64(derive_seed(schedule.seed, "batch-shuffle")))
    names = ("fc",) if hidden is None else ("fc1", "fc2")
    widths = (d,) if hidden is None else (d, hidden)
    outs = widths[1:] + (1,)
    params = [[xavier_init((o, i), i, derive_seed(model_seed, f"{name}.weights")), np.zeros(o)]
              for name, i, o in zip(names, widths, outs)]
    curve = []

    def phase(loss, epochs):
        vels = [[np.zeros_like(w), np.zeros_like(b)] for w, b in params]
        for _ in range(epochs):
            order = order_rng.permutation(n)
            total = 0.0
            for start in range(0, n, batch):
                idx = order[start:start + batch]
                xb, yb = x[idx], y[idx]
                inputs, pres = [xb], []
                for w, b in params[:-1]:
                    pres.append(inputs[-1] @ w.T + b)
                    inputs.append(np.maximum(pres[-1], 0.0))
                w_out, b_out = params[-1]
                margin = yb * (inputs[-1] @ w_out[0] + b_out[0])
                if loss == "logistic":
                    total += np.sum(np.log1p(np.exp(-margin)))
                    grad_s = -yb / (1.0 + np.exp(margin))
                else:
                    total += np.sum(np.maximum(0.0, 1.0 - margin))
                    grad_s = np.where(margin < 1.0, -yb, 0.0)
                grad = (grad_s / idx.size)[:, None]  # d loss / d layer output
                grads = []
                for k in range(len(params) - 1, -1, -1):
                    grads.append((grad.T @ inputs[k], grad.sum(axis=0)))
                    if k:
                        grad = np.where(pres[k - 1] > 0.0, grad @ params[k][0], 0.0)
                for (w, b), (vw, vb), (gw, gb) in zip(params, vels, grads[::-1]):
                    vw[:] = momentum * vw - lr * gw
                    vb[:] = momentum * vb - lr * gb
                    w += vw
                    b += vb
            curve.append(total / n)

    if hidden is None:
        phase("hinge", schedule.finetune_epochs)
    else:
        phase("logistic", schedule.epochs)
        params[-1] = [xavier_init((1, hidden), hidden, derive_seed(schedule.seed, "fc2.reinit")),
                      np.zeros(1)]
        phase("hinge", schedule.finetune_epochs)
    return curve, [(w, b) for w, b in params]


def reference_zscore_normalize(series):
    """z-score along the last axis by ``ndarray.std`` and ``ndarray.mean``:
    the reference for ``zscore_normalize``, which shares one mean between the
    two and must match this bit for bit."""
    s = np.asarray(series, dtype=np.float64)
    std = s.std(axis=-1, keepdims=True)
    flat = (std == 0.0) | (s.max(axis=-1, keepdims=True) == s.min(axis=-1, keepdims=True))
    return np.where(flat, 0.0, (s - s.mean(axis=-1, keepdims=True)) / np.where(flat, 1.0, std))


def _synth_rng(config, *parts):
    from hapticnet.engine import derive_seed

    return np.random.Generator(np.random.PCG64(
        derive_seed(config.seed, "synth/" + "/".join(str(p) for p in parts))))


def _smooth_shape(rng, u, components=2):
    out = np.zeros_like(u)
    for _ in range(components):
        amp = rng.uniform(0.4, 1.0)
        freq = rng.uniform(0.5, 3.0)
        phase = rng.uniform(0, 2 * np.pi)
        out += amp * np.sin(2 * np.pi * freq * u + phase)
    return out


def _bump(rng, u):
    center = rng.uniform(0.15, 0.85)
    width = rng.uniform(0.06, 0.15)
    sign = rng.choice([-1.0, 1.0])
    return sign * np.exp(-0.5 * ((u - center) / width) ** 2)


def _factor_morphs(config, ep, channel, u):
    morphs = []
    for f in range(config.n_factors):
        rng = _synth_rng(config, "morph", ep, channel, f)
        morphs.append(_bump(rng, u) + 0.3 * _smooth_shape(rng, u, components=1))
    return morphs


def _cue(config, z, morphs, leak):
    from hapticnet.synth import CUE_AMP

    total = np.zeros_like(morphs[0])
    for f in range(config.n_factors):
        total += z[f] * leak[f] * morphs[f]
    return CUE_AMP * total


def _ep_lengths(config, object_id, trial_index, ep):
    from hapticnet.haptic import DECIMATION
    from hapticnet.synth import BASE_LEN, SQUEEZE_LEN_RANGE

    rng = _synth_rng(config, "length", object_id, trial_index, ep)
    if ep == "squeeze":
        lo, hi = SQUEEZE_LEN_RANGE
        base = int(rng.integers(lo, hi + 1))
    else:
        base = BASE_LEN + int(rng.integers(-2, 3))
    pac = DECIMATION * base + int(rng.integers(-DECIMATION // 2, DECIMATION // 2 + 1))
    return base, pac


def reference_make_trial(config, object_id, z, trial_index):
    """One synthetic trial with a fresh generator per drawn shape, evaluated
    one sinusoid at a time: the reference for ``synth.make_trial``, which
    draws the object-independent shapes once per config, evaluates them in
    batches and must match this bit for bit."""
    from hapticnet.haptic import BASE_CHANNELS, ELECTRODES, EPS, FINGERS, HapticTrial

    signals = {}
    for finger in FINGERS:
        for ep in EPS:
            base_len, pac_len = _ep_lengths(config, object_id, f"{trial_index}/{finger}", ep)
            u = np.linspace(0.0, 1.0, base_len)
            u_pac = np.linspace(0.0, 1.0, pac_len)
            noise_rng = _synth_rng(config, "noise", object_id, trial_index, finger, ep)
            wobble_rng = _synth_rng(config, "wobble", object_id, trial_index, finger, ep)
            chans = {}

            shape_rng = _synth_rng(config, "shape", ep, "P_AC")
            base = _smooth_shape(shape_rng, u_pac)
            cue = _cue(config, z, _factor_morphs(config, ep, "P_AC", u_pac),
                       config.haptic_leak)
            carrier = 0.5 * np.sin(2 * np.pi * 0.21 * np.arange(pac_len))
            wobble = config.noise * _smooth_shape(wobble_rng, u_pac, components=1)
            chans["P_AC"] = base + cue + carrier + wobble + \
                config.noise * noise_rng.standard_normal(pac_len)

            for name in BASE_CHANNELS[1:]:
                shape_rng = _synth_rng(config, "shape", ep, name)
                base = _smooth_shape(shape_rng, u)
                cue = _cue(config, z, _factor_morphs(config, ep, name, u),
                           config.haptic_leak)
                wobble = config.noise * _smooth_shape(wobble_rng, u, components=1)
                chans[name] = base + cue + wobble + \
                    config.noise * noise_rng.standard_normal(base_len)

            latent_rng = _synth_rng(config, "shape", ep, "latent")
            latent = np.stack([_smooth_shape(latent_rng, u) for _ in range(4)], axis=1)
            latent[:, 0] += _cue(config, z, _factor_morphs(config, ep, "latent0", u),
                                 config.haptic_leak)
            mixing = _synth_rng(config, "mixing", ep).standard_normal((19, 4))
            panel = latent @ mixing.T
            panel += config.noise * noise_rng.standard_normal(panel.shape)
            panel += config.noise * _smooth_shape(wobble_rng, u, components=1)[:, None]
            for i, name in enumerate(ELECTRODES):
                chans[name] = panel[:, i]

            signals[(finger, ep)] = chans
    return HapticTrial(object_id=object_id, trial_index=trial_index, signals=signals)
