"""Raw tactile trials -> 32x150 network input.

Per channel the pipeline is: z-score normalize, decimate the high-rate
pressure channel to the common rate, PCA-project the 19 electrode channels
to 4 per time step, subsample every series to a fixed length, and stack in
a fixed channel order.  Two fingers x five subsampling offsets turn each
trial into 10 training instances.

Only the subsampling depends on the offset, so each (finger, EP) block is
normalized, decimated and projected once at full length.  One index table
then holds every offset's sample indices, and one gather per block fills
that block's rows of all of a finger's instances at once.  ``zscore_normalize``
and the gather work along the last axis, so the 22 channels at the common
rate go through them as one (22, T) array; row by row the result is
bitwise that of normalizing and subsampling each channel on its own.

An index table depends only on the series length, and block lengths
repeat across trials, so the tables are cached.  A cached
table is read-only; every gather from it makes a new array, so no output
shares memory with the cache.
"""

import functools
import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .errors import InvalidInputError

# Exploratory procedures, in the fixed channel-stacking order.
EPS = ("squeeze", "hold", "slow_slide", "fast_slide")
FINGERS = (0, 1)
OFFSETS = (0, 1, 2, 3, 4)

ELECTRODES = tuple(f"E_{i}" for i in range(1, 20))
BASE_CHANNELS = ("P_AC", "P_DC", "T_AC", "T_DC")
CHANNELS = BASE_CHANNELS + ELECTRODES

PAC_RATE = 2200
BASE_RATE = 100
DECIMATION = PAC_RATE // BASE_RATE  # 22
RESAMPLE_LEN = 150
PCA_COMPONENTS = 4
# the shortest 100 Hz block that every subsampling offset fits in
MIN_BLOCK_LEN = RESAMPLE_LEN + max(OFFSETS)  # 154
# a row whose std exceeds this times its |mean| is not constant; see zscore_normalize
_FLAT_BOUND = 1e-6

INSTANCE_CHANNELS = (len(BASE_CHANNELS) + PCA_COMPONENTS) * len(EPS)  # 32


@dataclass
class HapticTrial:
    """One exploration of one object: all channels for both fingers and EPs.

    ``signals[(finger, ep)]`` maps channel name -> 1-D array.  The 100 Hz
    channels within one (finger, ep) must share a length of at least
    MIN_BLOCK_LEN; P_AC is ~22x longer (one 100 Hz sample of slack
    tolerated) and decimates to at least MIN_BLOCK_LEN samples too.
    """

    object_id: str
    trial_index: int
    signals: dict

    def channels(self, finger: int, ep: str) -> dict:
        try:
            return self.signals[(finger, ep)]
        except KeyError:
            raise InvalidInputError(
                f"trial {self.object_id}/{self.trial_index} is missing (finger={finger}, ep={ep})"
            ) from None

    def checked_channels(self, finger: int, ep: str) -> dict:
        """``channels(finger, ep)`` after checking it against ``block_problems``;
        the first problem raises, naming the trial, finger and EP."""
        chans = self.channels(finger, ep)
        problems = block_problems(chans)
        if problems:
            raise InvalidInputError(
                f"trial {self.object_id}/{self.trial_index} finger {finger} ep {ep}: "
                f"{problems[0][1]}")
        return chans


def block_problems(chans: dict) -> list:
    """[(field, message)] for each way a (finger, EP) block of channels breaks
    the trial-block rule, or [] for a good block.

    The rule: every channel is present, the 100 Hz channels share one
    non-zero length, and P_AC is ~22x as long (one 100 Hz sample of slack).
    Both the 100 Hz length and the decimated P_AC length must be at least
    MIN_BLOCK_LEN, so that ``augment`` can subsample at every offset; a
    P_AC at the wrong rate is reported as that alone.
    Only lengths are compared, so the check costs nothing next to the data.
    """
    missing = [c for c in CHANNELS if c not in chans]
    if missing:
        return [("channels", f"missing channels {missing}")]
    base_len = len(chans["P_DC"])
    problems = []
    for c in CHANNELS[2:]:
        if len(chans[c]) != base_len:
            problems.append(("lengths", f"channel {c} has length {len(chans[c])}, "
                                        f"expected {base_len} as P_DC"))
            break
    pac_len = len(chans["P_AC"])
    if not base_len:
        problems.append(("lengths", "empty 100 Hz channels"))
    elif abs(pac_len - DECIMATION * base_len) > DECIMATION:
        problems.append(("sample-rate",
                         f"channel P_AC length {pac_len} is not ~{DECIMATION}x the "
                         f"100 Hz length {base_len} "
                         f"(P_AC/P_DC length ratio {pac_len / base_len:.1f})"))
    elif min(base_len, pac_len // DECIMATION) < MIN_BLOCK_LEN:
        problems.append(("lengths",
                         f"100 Hz length {base_len} and decimated P_AC length "
                         f"{pac_len // DECIMATION} must both be at least {MIN_BLOCK_LEN} "
                         f"to subsample {RESAMPLE_LEN} samples at offsets up to {max(OFFSETS)}"))
    return problems


@dataclass
class PcaModel:
    """Per-EP electrode PCA: channel means, top-k components, variance ratios."""

    mean: np.ndarray           # (19,)
    components: np.ndarray     # (19, k), orthonormal columns
    explained_variance_ratio: np.ndarray  # (k,), non-increasing


@dataclass
class InstanceMatrix:
    """Preprocessed 32x150 network input with provenance tags."""

    values: np.ndarray
    object_id: str
    trial_index: int
    finger: int
    offset: int

    def __post_init__(self):
        if self.values.shape != (INSTANCE_CHANNELS, RESAMPLE_LEN):
            raise InvalidInputError(
                f"instance must be {INSTANCE_CHANNELS}x{RESAMPLE_LEN}, got {self.values.shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise InvalidInputError("instance contains non-finite values")


def _real_array(values, action: str) -> np.ndarray:
    """``values`` as a float64 array: the one input conversion of the public
    functions here.  Values that are not real numbers, complex ones included
    (the conversion would keep their real part and only warn), raise
    InvalidInputError naming their dtype, or their type if not an array."""
    try:
        array = np.asarray(values)
        if array.dtype.kind != "c":
            return array.astype(np.float64, copy=False)
        reason = "complex values have an imaginary part"
    except (TypeError, ValueError) as e:
        reason = str(e)
    kind = (f"dtype {values.dtype}" if isinstance(values, np.ndarray)
            else f"type {type(values).__name__}")
    raise InvalidInputError(f"cannot {action} of {kind}: {reason}")


def zscore_normalize(series: np.ndarray) -> np.ndarray:
    """(s - mean) / population std along the last axis.

    Each 1-D series (each row of a stack) is normalized on its own; a
    constant one, or one whose std is zero, normalizes to all zeros.  The
    result is bitwise that of ``ndarray.mean`` and ``ndarray.std``.

    Only a constant row needs the max/min "flat" test, and a row whose std
    is finite and above ``_FLAT_BOUND`` (1e-6) times its |mean| is provably
    not constant, so it is divided at once.  The reason: n copies of a value
    v sum to n*v within a relative (n - 1) * 2**-53 in any summation order
    (Higham, "The accuracy of floating point summation", SIAM J. Sci.
    Comput. 1993).  So a constant row's mean is off v by at most
    n * 2**-53 * |v|, every centred sample is that one error, and the std is
    that error again: below 2.5e-7 * |mean| for any row of fewer than 2**31
    samples.  Where the mean rounds to a subnormal its error can be larger
    next to v, but the error's square then rounds to zero, and so does the
    std.  The std must be finite too: near overflow a constant row's error
    can square to inf, and dividing by that gives -0.0 where the flat test
    gives 0.0.  Every other row (a constant, a NaN or an infinity, a square
    that overflows, a spread under 1e-6 of a large mean) takes the flat
    test.  A 1-D series computes its mean, std and guard on Python floats,
    whose division and ``math.sqrt`` round as numpy's do.
    """
    s = _real_array(series, "normalize a series")
    if s.ndim == 0 or s.size == 0:
        raise InvalidInputError(f"cannot normalize an empty series (shape {s.shape})")
    # one mean serves the centring and the std; the sums, the divisions by n
    # and the squaring are ndarray.mean's and ndarray.std's own, so the
    # result is bitwise theirs
    n = s.shape[-1]
    if s.ndim == 1:
        mean = float(np.add.reduce(s)) / n
        centred = s - mean
        std = math.sqrt(float(np.add.reduce(np.square(centred))) / n)
        if _FLAT_BOUND * abs(mean) < std < math.inf:
            return np.divide(centred, std, out=centred)
    mean = np.add.reduce(s, axis=-1, keepdims=True) / n
    centred = s - mean
    std = np.sqrt(np.add.reduce(np.square(centred), axis=-1, keepdims=True) / n)
    if ((_FLAT_BOUND * np.abs(mean) < std) & (std < math.inf)).all():
        return np.divide(centred, std, out=centred)
    # the mean of a constant such as 0.1 can round off it, which leaves a
    # std of ~1e-17 and would blow the rounding error up to +/-1
    flat = (std == 0.0) | (np.maximum.reduce(s, axis=-1, keepdims=True)
                           == np.minimum.reduce(s, axis=-1, keepdims=True))
    return np.where(flat, 0.0, centred / np.where(flat, 1.0, std))


def decimate_pac(series: np.ndarray) -> np.ndarray:
    """2200 Hz -> 100 Hz by non-overlapping 22-sample window means.

    A trailing partial window is dropped; window means double as a crude
    anti-alias filter for the high-frequency vibration channel.
    """
    s = _real_array(series, "decimate a series")
    if s.ndim != 1:
        raise InvalidInputError(f"cannot decimate a series of shape {s.shape}; it must be 1-D")
    n = s.size // DECIMATION
    if n == 0:
        raise InvalidInputError(
            f"series of length {s.size} is shorter than one {DECIMATION}-sample window"
        )
    # the sum and the division are ndarray.mean's own, without its wrapper
    return np.add.reduce(s[:n * DECIMATION].reshape(n, DECIMATION), axis=1) / DECIMATION


@functools.lru_cache(maxsize=256)
def _subsample_index(n: int) -> np.ndarray:
    """(len(OFFSETS), RESAMPLE_LEN) int64 table, read-only: row i holds the
    indices ``o + round(j * (n - 1 - o) / (RESAMPLE_LEN - 1))``, j = 0..149,
    into a series of length ``n`` at offset ``o = OFFSETS[i]``.  Rounding is
    half-to-even, so every row starts at ``o`` and ends at the last sample.
    A call that raises caches nothing."""
    if n < MIN_BLOCK_LEN:
        raise InvalidInputError(
            f"series of length {n} too short for length={RESAMPLE_LEN}, offset={max(OFFSETS)}"
        )
    off = np.asarray(OFFSETS, dtype=np.int64)[:, None]
    j = np.arange(RESAMPLE_LEN, dtype=np.float64)
    # int64 spans convert to float64 exactly, so each row is bitwise the
    # scalar-offset arithmetic
    table = off + np.rint(j * (n - 1 - off) / (RESAMPLE_LEN - 1)).astype(np.int64)
    table.setflags(write=False)
    return table


def pca_fit(samples: np.ndarray) -> PcaModel:
    """Fit the top PCA_COMPONENTS principal components of (N, 19) electrode samples.

    Components are eigenvectors of the column-centred Gram matrix
    ``centred.T @ centred`` (19 x 19), from ``np.linalg.eigh``, in descending
    eigenvalue order; the sign of each component is fixed so its
    largest-magnitude entry is positive.  The explained-variance ratios are
    the top eigenvalues over the sum of all of them.

    Components agree with the SVD of the centred samples to rounding.
    Forming the Gram matrix squares the condition number, so the error of
    component k grows with sigma_1 / sigma_k, the ratio of the largest
    singular value to its own (Golub and Van Loan, Matrix Computations,
    section 8.6); on z-scored electrodes the two forms differ by at most
    about 1e-14.  The result is bitwise the same under any BLAS thread
    count, which the SVD's was not.

    An eigenvalue at or below lambda_max * max(N, 19) * eps is rounding
    noise: numpy.linalg.matrix_rank's tolerance on the squared scale.
    Fewer than PCA_COMPONENTS above it raise InvalidInputError naming the
    rank, as do samples that are not real numbers, hold a NaN or an infinity
    (named by row and column), or are so large that their squares overflow.
    """
    k = PCA_COMPONENTS
    x = _real_array(samples, "fit a PCA to samples")
    if x.ndim != 2:
        raise InvalidInputError(f"samples must be 2-D, got shape {x.shape}")
    n, d = x.shape
    if n < k:
        raise InvalidInputError(f"need at least {k} samples to fit {k} components, got {n}")
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        mean = x.mean(axis=0)
        centered = x - mean
        gram = centered.T @ centered
    # a NaN or an infinity in the samples always reaches the mean, so the
    # mean is the cheap test and the element scan runs only on failure
    if not np.isfinite(mean).all():
        bad = np.argwhere(~np.isfinite(x))
        if bad.size:
            row, col = bad[0]
            raise InvalidInputError(
                f"electrode sample row {row} column {col} is {x[row, col]}, not finite")
    if not np.isfinite(gram).all():
        raise InvalidInputError("electrode samples are too large: their squares overflow")
    vals, vecs = np.linalg.eigh(gram)
    vals, vecs = vals[::-1], vecs[:, ::-1]  # descending
    with np.errstate(over="ignore"):
        total = vals.sum()
    if not np.isfinite(total):
        raise InvalidInputError("electrode samples are too large: their squares overflow")
    tol = vals[0] * (max(n, d) * np.finfo(np.float64).eps)
    rank = int(np.count_nonzero(vals > tol))
    if rank < k:
        raise InvalidInputError(
            f"electrode samples have rank {rank}; cannot fit {k} components"
        )
    comps = vecs[:, :k].copy()
    peak = np.argmax(np.abs(comps), axis=0)
    comps *= np.where(comps[peak, np.arange(k)] < 0, -1.0, 1.0)
    return PcaModel(mean=mean, components=comps, explained_variance_ratio=vals[:k] / total)


def pca_project(model: PcaModel, vec: np.ndarray) -> np.ndarray:
    """Project a 19-vector (or (..., 19) stack) onto the fitted components."""
    v = _real_array(vec, "project a vector")
    if v.shape[-1] != model.mean.shape[0]:
        raise InvalidInputError(
            f"vector dim {v.shape[-1]} != model dim {model.mean.shape[0]}"
        )
    return (v - model.mean) @ model.components


def _finger_instances(trial: HapticTrial, finger: int, pca: dict) -> list:
    """One finger's instances at each offset of OFFSETS.

    Per EP, in EPS order: P_AC is z-scored and decimated, and the (22, T)
    stack of the other channels is z-scored, with the projection written
    over its first electrode rows.  One gather over each length's index
    table then fills that EP's rows of one (len(OFFSETS), 32, 150) array;
    P_AC keeps its own length, which may be one sample off T.
    """
    missing = [ep for ep in EPS if ep not in pca]
    if missing:
        raise InvalidInputError(f"no PCA model for EPs: {missing}")
    values = np.empty((len(OFFSETS), INSTANCE_CHANNELS, RESAMPLE_LEN))
    rows = INSTANCE_CHANNELS // len(EPS)
    for start, ep in zip(range(0, INSTANCE_CHANNELS, rows), EPS):
        shape = pca[ep].components.shape
        if shape != (len(ELECTRODES), PCA_COMPONENTS):
            raise InvalidInputError(f"PCA model for EP {ep} has components of shape {shape}, "
                                    f"not {(len(ELECTRODES), PCA_COMPONENTS)}")
        chans = trial.checked_channels(finger, ep)
        pac = decimate_pac(zscore_normalize(chans["P_AC"]))
        values[:, start] = pac[_subsample_index(pac.shape[-1])]
        # (22, T)
        z = zscore_normalize(np.array([chans[c] for c in CHANNELS[1:]], dtype=np.float64))
        # a C-contiguous (T, 19) operand keeps the projection bitwise equal
        # to projecting the per-channel stack; it is a copy, so the
        # projection overwrites the electrode rows it was read from
        projected = pca_project(pca[ep], np.ascontiguousarray(z[3:].T))  # (T, 4)
        z[3:3 + PCA_COMPONENTS] = projected.T
        idx = _subsample_index(z.shape[-1])
        values[:, start + 1:start + rows] = z[:3 + PCA_COMPONENTS, idx].swapaxes(0, 1)
    return [InstanceMatrix(values=v, object_id=trial.object_id, trial_index=trial.trial_index,
                           finger=finger, offset=offset)
            for v, offset in zip(values, OFFSETS)]


def assemble_instance(trial: HapticTrial, finger: int, offset: int, pca: dict) -> InstanceMatrix:
    """The 32x150 input for one (finger, offset) view of a trial: that
    finger's instance at ``offset`` from ``augment``'s gather.

    ``pca`` maps EP name -> fitted PcaModel.  Channel order per EP is
    (P_AC, P_DC, T_AC, T_DC, E-pc1..E-pc4), EPs stacked in EPS order.  An
    offset that is not an integer of OFFSETS, 2.0 and True included, raises
    InvalidInputError.
    """
    if isinstance(offset, bool) or not isinstance(offset, Integral) or offset not in OFFSETS:
        raise InvalidInputError(f"offset must be an integer of {OFFSETS}, got {offset!r}")
    return _finger_instances(trial, finger, pca)[OFFSETS.index(offset)]


def augment(trial: HapticTrial, pca: dict) -> list:
    """All 10 instances of a trial: 2 fingers x 5 subsampling offsets.

    Each finger's blocks are preprocessed once and subsampled at every offset.
    """
    return [inst for finger in FINGERS for inst in _finger_instances(trial, finger, pca)]
