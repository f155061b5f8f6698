"""Synthetic dataset generator.

Objects carry a small latent factor vector; adjective labels are signs of
linear functionals of the factors.  Haptic channels are smooth shared
templates morphed by the factors (to the degree the per-factor haptic leak
allows), and visual feature grids are low-rank patterns whose per-view gain
makes some factors invisible from single viewpoints.  Signal lengths, the
cue amplitude and the feature-grid shape are fixed module constants; the
config sets the dataset size, the latent structure and what each modality
sees.  Everything derives from the config seed, so datasets are
byte-identical across runs.
"""

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .engine import derive_seed
from .errors import InvalidInputError
from .evaluation import ADJECTIVES
from .haptic import (
    BASE_CHANNELS,
    DECIMATION,
    ELECTRODES,
    EPS,
    FINGERS,
    HapticTrial,
)
from .io import formats
from .io.manifest import DatasetManifest, save_manifest
from .visual import N_VIEWS

CUE_AMP = 0.8                  # amplitude of a factor's cue in either modality
BASE_LEN = 165                 # 100 Hz samples of a hold or slide (+-2 per trial)
SQUEEZE_LEN_RANGE = (160, 215)  # inclusive 100 Hz length range of a squeeze
FEATURE_GRID = (4, 4, 12)      # H, W, C of the ingested feature maps


@dataclass
class SynthConfig:
    """Dataset size, latent structure, and what each modality sees of it."""

    n_objects: int = 20
    n_trials: int = 3
    n_factors: int = 2
    noise: float = 0.05
    seed: int = 0
    haptic_leak: tuple = (1.0, 0.15)
    visual_leak: tuple = (0.15, 1.0)
    name: str = "synthetic"

    def __post_init__(self):
        if self.n_objects < 2 or self.n_trials < 1:
            raise InvalidInputError(f"need >=2 objects and >=1 trial, got {self}")
        if self.noise < 0:
            raise InvalidInputError(f"noise must be >= 0, got {self.noise}")
        if len(self.haptic_leak) != self.n_factors or len(self.visual_leak) != self.n_factors:
            raise InvalidInputError("leak vectors must have one entry per factor")


def separable_config(n_objects=24, n_trials=3, seed=0) -> SynthConfig:
    """Single factor, fully visible to both modalities, near-noiseless."""
    return SynthConfig(
        n_objects=n_objects, n_trials=n_trials, n_factors=1, noise=0.02,
        seed=seed, haptic_leak=(1.0,), visual_leak=(1.0,), name="separable")


def two_cue_config(n_objects=48, n_trials=3, seed=0) -> SynthConfig:
    """Two factors: haptic mostly sees the first, visual mostly the second."""
    return SynthConfig(
        n_objects=n_objects, n_trials=n_trials, n_factors=2, noise=0.05,
        seed=seed, haptic_leak=(1.0, 0.15), visual_leak=(0.15, 1.0), name="two-cue")


def _rng(config, *parts) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(
        derive_seed(config.seed, "synth/" + "/".join(str(p) for p in parts))))


def adjective_weights(config) -> np.ndarray:
    """(24, n_factors) unit rows mapping factors to adjective labels.

    The first n_factors adjectives are pure single-factor labels; the next
    one mixes all factors equally; the rest are random unit directions.
    """
    f = config.n_factors
    w = np.zeros((len(ADJECTIVES), f))
    rng = _rng(config, "adjective-weights")
    for k in range(len(ADJECTIVES)):
        if k < f:
            w[k, k] = 1.0
        elif k == f:
            w[k, :] = 1.0 / math.sqrt(f)
        else:
            v = rng.standard_normal(f)
            w[k] = v / np.linalg.norm(v)
    return w


def object_factors(config):
    """Object ids, latent factors (N, F), and per-object adjective labels.

    Redraws (deterministically) until the first n_factors+1 adjectives have
    at least two objects of each class, so the canonical test adjectives
    are always split-feasible.
    """
    ids = [f"obj{i:03d}" for i in range(config.n_objects)]
    weights = adjective_weights(config)
    guarded = min(config.n_factors + 1, len(ADJECTIVES))
    for attempt in range(64):
        rng = _rng(config, "factors", attempt)
        z = rng.uniform(-1.0, 1.0, size=(config.n_objects, config.n_factors))
        signs = z @ weights.T > 0  # (N, 24)
        counts_ok = all(
            2 <= signs[:, k].sum() <= config.n_objects - 2 for k in range(guarded)
        )
        if counts_ok:
            break
    labels = []
    for i, obj in enumerate(ids):
        labels.append((obj, f"object-{i:03d}",
                       {a: bool(signs[i, k]) for k, a in enumerate(ADJECTIVES)}))
    return ids, z, labels


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
    """One fixed morph shape per factor for this (ep, channel)."""
    morphs = []
    for f in range(config.n_factors):
        rng = _rng(config, "morph", ep, channel, f)
        morphs.append(_bump(rng, u) + 0.3 * _smooth_shape(rng, u, components=1))
    return morphs


def _cue(config, z, morphs, leak):
    total = np.zeros_like(morphs[0])
    for f in range(config.n_factors):
        total += z[f] * leak[f] * morphs[f]
    return CUE_AMP * total


def _ep_lengths(config, object_id, trial_index, ep):
    rng = _rng(config, "length", object_id, trial_index, ep)
    if ep == "squeeze":
        lo, hi = SQUEEZE_LEN_RANGE
        base = int(rng.integers(lo, hi + 1))
    else:
        base = BASE_LEN + int(rng.integers(-2, 3))
    pac = DECIMATION * base + int(rng.integers(-DECIMATION // 2, DECIMATION // 2 + 1))
    return base, pac


def make_trial(config, object_id, z, trial_index) -> HapticTrial:
    """Generate one full trial (both fingers, all EPs) for an object."""
    signals = {}
    for finger in FINGERS:
        for ep in EPS:
            base_len, pac_len = _ep_lengths(config, object_id, f"{trial_index}/{finger}", ep)
            u = np.linspace(0.0, 1.0, base_len)
            u_pac = np.linspace(0.0, 1.0, pac_len)
            noise_rng = _rng(config, "noise", object_id, trial_index, finger, ep)
            wobble_rng = _rng(config, "wobble", object_id, trial_index, finger, ep)
            chans = {}

            # high-rate pressure: smooth base + cue + fast carrier
            shape_rng = _rng(config, "shape", ep, "P_AC")
            base = _smooth_shape(shape_rng, u_pac)
            cue = _cue(config, z, _factor_morphs(config, ep, "P_AC", u_pac),
                       config.haptic_leak)
            carrier = 0.5 * np.sin(2 * np.pi * 0.21 * np.arange(pac_len))
            wobble = config.noise * _smooth_shape(wobble_rng, u_pac, components=1)
            chans["P_AC"] = base + cue + carrier + wobble + \
                config.noise * noise_rng.standard_normal(pac_len)

            for name in BASE_CHANNELS[1:]:
                shape_rng = _rng(config, "shape", ep, name)
                base = _smooth_shape(shape_rng, u)
                cue = _cue(config, z, _factor_morphs(config, ep, name, u),
                           config.haptic_leak)
                wobble = config.noise * _smooth_shape(wobble_rng, u, components=1)
                chans[name] = base + cue + wobble + \
                    config.noise * noise_rng.standard_normal(base_len)

            # electrodes: rank-4 latent panel, cue injected into the first latent
            latent_rng = _rng(config, "shape", ep, "latent")
            latent = np.stack([_smooth_shape(latent_rng, u) for _ in range(4)], axis=1)
            latent[:, 0] += _cue(config, z, _factor_morphs(config, ep, "latent0", u),
                                 config.haptic_leak)
            mixing = _rng(config, "mixing", ep).standard_normal((19, 4))
            panel = latent @ mixing.T
            panel += config.noise * noise_rng.standard_normal(panel.shape)
            panel += config.noise * _smooth_shape(wobble_rng, u, components=1)[:, None]
            for i, name in enumerate(ELECTRODES):
                chans[name] = panel[:, i]

            signals[(finger, ep)] = chans
    return HapticTrial(object_id=object_id, trial_index=trial_index, signals=signals)


def _view_gain(view: int, factor: int) -> float:
    """How visible a factor is from a viewpoint; some views see nothing."""
    return max(0.0, math.cos(2 * math.pi * (view - 4 * factor) / N_VIEWS))


def make_visual_grids(config, object_id, z) -> np.ndarray:
    """(views, H, W, C) feature grids with factor cues gated per view."""
    h, w, c = FEATURE_GRID
    grids = np.zeros((N_VIEWS, h, w, c))
    noise_rng = _rng(config, "visual-noise", object_id)
    for f_idx in range(config.n_factors):
        pattern_rng = _rng(config, "visual-pattern", f_idx)
        channel_pattern = pattern_rng.standard_normal(c)
        spatial = 1.0 + 0.2 * pattern_rng.standard_normal((h, w))
        cue = CUE_AMP * z[f_idx] * config.visual_leak[f_idx]
        for v in range(N_VIEWS):
            grids[v] += _view_gain(v, f_idx) * cue * spatial[:, :, None] * channel_pattern
    for v in range(N_VIEWS):
        base_rng = _rng(config, "visual-base", v)
        grids[v] += 1.5 + 0.5 * base_rng.standard_normal((h, w, c))
        grids[v] += config.noise * noise_rng.standard_normal((h, w, c))
    return grids


def synth_generate(config: SynthConfig, out_dir) -> Path:
    """Write a complete on-disk dataset; returns the manifest path."""
    out = Path(out_dir)
    (out / "trials").mkdir(parents=True, exist_ok=True)
    (out / "visual").mkdir(parents=True, exist_ok=True)
    ids, z, labels = object_factors(config)

    formats.write_labels_csv(out / "labels.csv", labels)

    trial_index = []
    for i, obj in enumerate(ids):
        for t in range(config.n_trials):
            trial = make_trial(config, obj, z[i], t)
            for finger in FINGERS:
                for ep in EPS:
                    rel = f"trials/{obj}_t{t}_f{finger}_{ep}.csv"
                    formats.write_trial_file(out / rel, trial.channels(finger, ep))
                    trial_index.append({"object_id": obj, "trial": t,
                                        "finger": finger, "ep": ep, "path": rel})

    visual_index = []
    for i, obj in enumerate(ids):
        rel = f"visual/{obj}.vfm"
        formats.write_feature_maps(out / rel, make_visual_grids(config, obj, z[i]))
        visual_index.append({"object_id": obj, "path": rel})

    manifest = DatasetManifest(
        name=config.name,
        objects=[{"id": obj, "name": name} for obj, name, _ in labels],
        labels_path="labels.csv",
        trials=trial_index,
        visual=visual_index,
        trials_per_object=config.n_trials,
        views_per_object=N_VIEWS,
    )
    path = out / "manifest.json"
    save_manifest(path, manifest)
    return path
