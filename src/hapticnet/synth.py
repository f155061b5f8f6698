"""Synthetic dataset generator.

Objects carry a small latent factor vector; adjective labels are signs of
linear functionals of the factors.  Haptic channels are smooth shared
templates morphed by the factors (to the degree the per-factor haptic leak
allows), and visual feature grids are low-rank patterns whose per-view gain
makes some factors invisible from single viewpoints.  Signal lengths, the
cue amplitude and the feature-grid shape are fixed module constants; the
config sets the dataset size, the noise and what each modality sees.  Its two
leak vectors hold one weight per latent factor, so their common length is the
factor count.  Everything derives from the config seed, so datasets are
byte-identical across runs.

Each random stream is a PCG64 generator keyed by the config seed and a path
(``_rng``), and each is drawn in a fixed order; a changed key or draw order
changes every dataset.  Two kinds of stream make a trial:

- Per-config templates, independent of the object: ``shape/<ep>/<channel>``
  (two sinusoids for each of P_AC, P_DC, T_AC and T_DC; eight, two per
  latent, for ``latent``), ``morph/<ep>/<channel>/<factor>`` (a bump, then
  one sinusoid, for P_AC, P_DC, T_AC, T_DC and ``latent0``) and
  ``mixing/<ep>`` (the 19x4 electrode mixing).  They are drawn once per
  (seed, n_factors) and cached as parameters, never as evaluated signals.
- Per-trial streams, keyed by object, trial, finger and EP:
  ``length/<object>/<trial>/<finger>/<ep>``,
  ``noise/<object>/<trial>/<finger>/<ep>`` (P_AC, then P_DC, T_AC and T_DC,
  then the electrode panel) and ``wobble/...`` on the same path (one
  sinusoid each for P_AC, P_DC, T_AC, T_DC and the panel, in that order).
"""

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from numbers import Integral, Real
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

# P_AC's fast carrier at the longest P_AC the length rules allow (the longest
# squeeze and half a window); a trial's carrier is a prefix of it
_CARRIER = 0.5 * np.sin(
    2 * np.pi * 0.21 * np.arange(DECIMATION * SQUEEZE_LEN_RANGE[1] + DECIMATION // 2))
_CARRIER.setflags(write=False)


def _finite(value: Real) -> bool:
    """Whether the real number ``value`` is finite as a float: an int beyond
    float range, which ``math.isfinite`` cannot convert, is not."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


@dataclass
class SynthConfig:
    """Dataset size, noise, and each modality's leak: one weight per latent
    factor, scaling its cue, so the leak vectors' length is ``n_factors``."""

    n_objects: int = 20
    n_trials: int = 3
    noise: float = 0.05
    seed: int = 0
    haptic_leak: tuple = (1.0, 0.15)
    visual_leak: tuple = (0.15, 1.0)
    name: str = "synthetic"

    def __post_init__(self):
        for field in ("n_objects", "n_trials"):
            value = getattr(self, field)
            if isinstance(value, bool) or not isinstance(value, Integral):  # a bool is not a count
                raise InvalidInputError(f"{field} must be an int, got {value!r}")
        if isinstance(self.seed, bool) or not isinstance(self.seed, Integral):
            raise InvalidInputError(f"seed must be an integer, got {self.seed!r}")
        if self.n_objects < 2 or self.n_trials < 1:
            raise InvalidInputError(f"need >=2 objects and >=1 trial, got {self}")
        if isinstance(self.noise, bool) or not isinstance(self.noise, Real):
            raise InvalidInputError(f"noise must be a real number, got {self.noise!r}")
        if not _finite(self.noise):
            raise InvalidInputError(f"noise must be finite, got {self.noise}")
        if self.noise < 0:
            raise InvalidInputError(f"noise must be >= 0, got {self.noise}")
        for field in ("haptic_leak", "visual_leak"):
            leak = getattr(self, field)
            if not isinstance(leak, Sequence):
                raise InvalidInputError(f"{field} must be a sequence of numbers, got {leak!r}")
            for i, weight in enumerate(leak):
                if not (isinstance(weight, Real) and _finite(weight)):
                    raise InvalidInputError(
                        f"{field}[{i}] must be a finite real number, got {weight!r}")
        if not self.haptic_leak or len(self.haptic_leak) != len(self.visual_leak):
            raise InvalidInputError(
                f"leak vectors must have one entry per factor and at least one factor, got "
                f"haptic_leak {self.haptic_leak} and visual_leak {self.visual_leak}")

    @property
    def n_factors(self) -> int:
        return len(self.haptic_leak)


def separable_config(n_objects=24, n_trials=3, seed=0) -> SynthConfig:
    """Single factor, fully visible to both modalities, near-noiseless."""
    return SynthConfig(
        n_objects=n_objects, n_trials=n_trials, noise=0.02,
        seed=seed, haptic_leak=(1.0,), visual_leak=(1.0,), name="separable")


def two_cue_config(n_objects=48, n_trials=3, seed=0) -> SynthConfig:
    """Two factors: haptic mostly sees the first, visual mostly the second."""
    return SynthConfig(
        n_objects=n_objects, n_trials=n_trials, noise=0.05,
        seed=seed, haptic_leak=(1.0, 0.15), visual_leak=(0.15, 1.0), name="two-cue")


def _rng(seed, *parts) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(
        derive_seed(seed, "synth/" + "/".join(str(p) for p in parts))))


def adjective_weights(config) -> np.ndarray:
    """(24, n_factors) unit rows mapping factors to adjective labels.

    The first n_factors adjectives are pure single-factor labels; the next
    one mixes all factors equally; the rest are random unit directions.
    """
    f = config.n_factors
    w = np.zeros((len(ADJECTIVES), f))
    rng = _rng(config.seed, "adjective-weights")
    for k in range(len(ADJECTIVES)):
        if k < f:
            w[k, k] = 1.0
        elif k == f:
            w[k, :] = 1.0 / math.sqrt(f)
        else:
            v = rng.standard_normal(f)
            w[k] = v / np.linalg.norm(v)
    return w


_FACTOR_DRAWS = 64  # draws object_factors tries before it gives up


def object_factors(config):
    """Object ids, latent factors (N, F), and per-object adjective labels.

    Redraws (deterministically, up to _FACTOR_DRAWS times) until the first
    n_factors+1 adjectives have at least two objects of each class, so the
    canonical test adjectives are always split-feasible.  With 4 or more
    objects, no qualifying draw raises InvalidInputError naming the seed
    and the adjective.  Below 4 objects no draw can qualify, and the last
    one is kept, so such datasets stay as they were.
    """
    ids = [f"obj{i:03d}" for i in range(config.n_objects)]
    weights = adjective_weights(config)
    guarded = min(config.n_factors + 1, len(ADJECTIVES))
    for attempt in range(_FACTOR_DRAWS):
        rng = _rng(config.seed, "factors", attempt)
        z = rng.uniform(-1.0, 1.0, size=(config.n_objects, config.n_factors))
        signs = z @ weights.T > 0  # (N, 24)
        positives = signs[:, :guarded].sum(axis=0)
        short = np.flatnonzero((positives < 2) | (positives > config.n_objects - 2))
        if not short.size:
            break
    else:
        if config.n_objects >= 4:
            raise InvalidInputError(
                f"seed {config.seed}: none of {_FACTOR_DRAWS} draws of {config.n_objects} "
                f"objects gives the first {guarded} adjectives two objects of each class; "
                f"the last leaves adjective {ADJECTIVES[short[0]]!r} short")
    labels = []
    for i, obj in enumerate(ids):
        labels.append((obj, f"object-{i:03d}",
                       {a: bool(signs[i, k]) for k, a in enumerate(ADJECTIVES)}))
    return ids, z, labels


def _draw_sines(rng, n) -> np.ndarray:
    """(3, n) amplitude, angular frequency and phase of n sinusoids, drawn
    from one stream in the order amplitude, frequency, phase per sinusoid."""
    rows = []
    for _ in range(n):
        amp = rng.uniform(0.4, 1.0)
        freq = rng.uniform(0.5, 3.0)
        phase = rng.uniform(0, 2 * np.pi)
        rows.append((amp, 2 * np.pi * freq, phase))
    return np.array(rows).T


def _sines(params, u) -> np.ndarray:
    """Each sinusoid of ``params`` (3, n) over the time base u, as (n, len(u)) rows."""
    amp, w, phase = params
    return amp[:, None] * np.sin(w[:, None] * u + phase[:, None])


def _bumps(params, u) -> np.ndarray:
    """Each Gaussian bump of ``params`` (3, n) (centre, width, sign) over u, as rows."""
    center, width, sign = params
    return sign[:, None] * np.exp(-0.5 * ((u - center[:, None]) / width[:, None]) ** 2)


def _morph_params(seed, ep, channels, n_factors):
    """Bumps (3, C*F) and sinusoids (3, C*F) of each channel's factor morphs,
    channel-major: one stream per (channel, factor)."""
    bumps, sines = [], []
    for name in channels:
        for f in range(n_factors):
            rng = _rng(seed, "morph", ep, name, f)
            bumps.append((rng.uniform(0.15, 0.85), rng.uniform(0.06, 0.15),
                          rng.choice([-1.0, 1.0])))
            sines.append(_draw_sines(rng, 1))
    return np.array(bumps).T, np.concatenate(sines, axis=1)


@dataclass(frozen=True)
class _EpTemplate:
    """The object-independent parameters of one EP's channels."""

    pac: np.ndarray         # (3, 2 + F): P_AC's two shape sinusoids, then its morphs'
    pac_bumps: np.ndarray   # (3, F)
    base: np.ndarray        # (3, 14 + 4F): two shape sinusoids each of P_DC, T_AC,
                            # T_DC and latents 0-3, then the morphs' of P_DC, T_AC,
                            # T_DC and latent 0, factor-minor
    base_bumps: np.ndarray  # (3, 4F)
    mixing: np.ndarray      # (19, 4): latent -> electrode


@functools.lru_cache(maxsize=8)
def _templates(seed, n_factors) -> tuple:
    """One _EpTemplate per EP, in EPS order, with read-only arrays.

    Only parameters are kept: evaluating them needs each trial's lengths.
    """
    templates = []
    for ep in EPS:
        pac_bumps, pac_morphs = _morph_params(seed, ep, ("P_AC",), n_factors)
        base_bumps, base_morphs = _morph_params(seed, ep, BASE_CHANNELS[1:] + ("latent0",),
                                                n_factors)
        shapes = [_draw_sines(_rng(seed, "shape", ep, name), 2) for name in BASE_CHANNELS[1:]]
        shapes.append(_draw_sines(_rng(seed, "shape", ep, "latent"), 8))
        arrays = dict(
            pac=np.concatenate((_draw_sines(_rng(seed, "shape", ep, "P_AC"), 2), pac_morphs),
                               axis=1),
            pac_bumps=pac_bumps,
            base=np.concatenate(shapes + [base_morphs], axis=1),
            base_bumps=base_bumps,
            mixing=_rng(seed, "mixing", ep).standard_normal((len(ELECTRODES), 4)),
        )
        for a in arrays.values():
            a.setflags(write=False)
        templates.append(_EpTemplate(**arrays))
    return tuple(templates)


def _cues(config, z, morphs) -> np.ndarray:
    """Each channel's cue from its (C, F, T) factor morphs, as (C, T) rows."""
    total = np.zeros((morphs.shape[0], morphs.shape[2]))
    for f in range(config.n_factors):
        total += z[f] * config.haptic_leak[f] * morphs[:, f]
    return CUE_AMP * total


def _ep_lengths(config, object_id, trial_index, ep):
    rng = _rng(config.seed, "length", object_id, trial_index, ep)
    if ep == "squeeze":
        lo, hi = SQUEEZE_LEN_RANGE
        base = int(rng.integers(lo, hi + 1))
    else:
        base = BASE_LEN + int(rng.integers(-2, 3))
    pac = DECIMATION * base + int(rng.integers(-DECIMATION // 2, DECIMATION // 2 + 1))
    return base, pac


def make_trial(config, object_id, z, trial_index) -> HapticTrial:
    """Generate one full trial (both fingers, all EPs) for an object.

    Per (finger, EP) the sinusoids of one time base go through one ``np.sin``
    call; each channel still sums its terms in a fixed order.
    """
    f = config.n_factors
    noise = config.noise
    signals = {}
    for finger in FINGERS:
        for ep, tpl in zip(EPS, _templates(config.seed, f)):
            base_len, pac_len = _ep_lengths(config, object_id, f"{trial_index}/{finger}", ep)
            u = np.linspace(0.0, 1.0, base_len)
            u_pac = np.linspace(0.0, 1.0, pac_len)
            noise_rng = _rng(config.seed, "noise", object_id, trial_index, finger, ep)
            wobble = _draw_sines(
                _rng(config.seed, "wobble", object_id, trial_index, finger, ep), 5)
            chans = {}
            # Sums start from 0.0, as accumulating into zeros did, which turns
            # a -0.0 term into +0.0; every channel keeps its order of terms.

            # high-rate pressure: smooth base + cue + fast carrier + wobble
            rows = _sines(np.concatenate((tpl.pac, wobble[:, :1]), axis=1), u_pac)
            morphs = _bumps(tpl.pac_bumps, u_pac) + 0.3 * (0.0 + rows[2:2 + f])
            chans["P_AC"] = (0.0 + rows[0] + rows[1]) + _cues(config, z, morphs[None])[0] \
                + _CARRIER[:pac_len] + noise * (0.0 + rows[-1]) \
                + noise * noise_rng.standard_normal(pac_len)

            # 100 Hz: P_DC, T_AC, T_DC and the four electrode latents
            rows = _sines(np.concatenate((tpl.base, wobble[:, 1:]), axis=1), u)
            shapes = 0.0 + rows[0:14:2] + rows[1:14:2]
            morphs = _bumps(tpl.base_bumps, u) + 0.3 * (0.0 + rows[14:14 + 4 * f])
            cues = _cues(config, z, morphs.reshape(4, f, base_len))
            wobbles = noise * (0.0 + rows[14 + 4 * f:])
            for k, name in enumerate(BASE_CHANNELS[1:]):
                chans[name] = shapes[k] + cues[k] + wobbles[k] + \
                    noise * noise_rng.standard_normal(base_len)

            # electrodes: rank-4 latent panel, cue injected into the first latent
            latent = shapes[3:].T.copy()  # C-contiguous (T, 4), as the matmul has always had
            latent[:, 0] += cues[3]
            panel = latent @ tpl.mixing.T
            panel += noise * noise_rng.standard_normal(panel.shape)
            panel += wobbles[3][:, None]
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
    noise_rng = _rng(config.seed, "visual-noise", object_id)
    for f_idx in range(config.n_factors):
        pattern_rng = _rng(config.seed, "visual-pattern", f_idx)
        channel_pattern = pattern_rng.standard_normal(c)
        spatial = 1.0 + 0.2 * pattern_rng.standard_normal((h, w))
        cue = CUE_AMP * z[f_idx] * config.visual_leak[f_idx]
        for v in range(N_VIEWS):
            grids[v] += _view_gain(v, f_idx) * cue * spatial[:, :, None] * channel_pattern
    for v in range(N_VIEWS):
        base_rng = _rng(config.seed, "visual-base", v)
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
                    rel = f"trials/{obj}_t{t}_f{finger}_{ep}.htr"
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
    )
    path = out / "manifest.json"
    save_manifest(path, manifest)
    return path
