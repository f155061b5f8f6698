"""Independent references the benchmark checks hapticnet's outputs against.

Written from the method's definition in plain numpy and Python, without
calling the code under test: pairwise AUC counting, the per-channel
instance recipe, and PCA by eigendecomposition of the covariance.
"""

import numpy as np

EPS = ("squeeze", "hold", "slow_slide", "fast_slide")
BASE_CHANNELS = ("P_AC", "P_DC", "T_AC", "T_DC")
ELECTRODES = tuple(f"E_{i}" for i in range(1, 20))
WINDOW = 22
LENGTH = 150


def pair_count_auc(scores, labels):
    """Share of (positive, negative) pairs ranked correctly; ties count 1/2."""
    pos = [s for s, y in zip(scores, labels) if y > 0]
    neg = [s for s, y in zip(scores, labels) if y <= 0]
    wins = 0.0
    for p in pos:
        for n in neg:
            wins += 1.0 if p > n else 0.5 if p == n else 0.0
    return wins / (len(pos) * len(neg))


def zscore(series):
    s = np.asarray(series, dtype=np.float64)
    sd = s.std()
    return np.zeros_like(s) if sd == 0.0 else (s - s.mean()) / sd


def window_means(series, width=WINDOW):
    n = len(series) // width
    return np.array([np.mean(series[i * width:(i + 1) * width]) for i in range(n)])


def subsample(series, offset, length=LENGTH):
    """Indices offset + round(j * (len - 1 - offset) / (length - 1)), half to even."""
    span = len(series) - 1 - offset
    return np.array([series[offset + round(j * span / (length - 1))] for j in range(length)])


def electrode_matrix(chans):
    """(T, 19) z-scored electrode samples of one (finger, EP)."""
    return np.stack([zscore(chans[e]) for e in ELECTRODES], axis=1)


def instance(signals, finger, offset, pca):
    """32x150 instance of one (finger, offset) view.

    `signals[(finger, ep)]` maps channel -> samples; `pca[ep]` is a
    (mean (19,), components (19, 4)) pair.
    """
    rows = []
    for ep in EPS:
        chans = signals[(finger, ep)]
        rows.append(subsample(window_means(zscore(chans["P_AC"])), offset))
        for name in BASE_CHANNELS[1:]:
            rows.append(subsample(zscore(chans[name]), offset))
        mean, comps = pca[ep]
        projected = (electrode_matrix(chans) - mean) @ comps
        rows.extend(subsample(projected[:, j], offset) for j in range(comps.shape[1]))
    return np.stack(rows)


def eigh_pca(samples, k):
    """(mean, top-k components (D, k), explained-variance ratios) via eigh."""
    x = np.asarray(samples, dtype=np.float64)
    mean = x.mean(axis=0)
    centered = x - mean
    vals, vecs = np.linalg.eigh(centered.T @ centered)
    order = np.argsort(vals)[::-1]
    return mean, vecs[:, order[:k]], vals[order[:k]] / vals.sum()


def pca_matches(mean, comps, ratios, ref, tol=1e-6):
    """Problems found comparing a fitted PCA with an eigh refit (empty if none)."""
    ref_mean, ref_comps, ref_ratios = ref
    problems = []
    k = ref_comps.shape[1]
    if comps.shape != ref_comps.shape:
        return [f"components shape {comps.shape}, refit {ref_comps.shape}"]
    gram = comps.T @ comps
    if not np.allclose(gram, np.eye(k), atol=1e-10):
        problems.append("components are not orthonormal")
    if not np.allclose(mean, ref_mean, rtol=0, atol=1e-10):
        problems.append("mean differs from the refit")
    cos = np.abs(np.sum(comps * ref_comps, axis=0))
    if np.any(cos < 1.0 - tol):
        problems.append(f"components differ from the refit beyond sign: |cos| {cos.round(8)}")
    if not np.allclose(ratios, ref_ratios, rtol=1e-8, atol=0):
        problems.append("explained-variance ratios differ from the refit")
    return problems
