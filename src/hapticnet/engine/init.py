"""Weight initialization and deterministic seed derivation."""

import hashlib
from numbers import Integral

import numpy as np

from ..errors import InvalidInputError, InvalidSpecError


def derive_seed(base_seed: int, label: str) -> int:
    """Derive a stable 64-bit sub-seed from a base seed and a string label.

    Uses blake2b so the mapping is identical across platforms and sessions;
    every named parameter / pipeline stage gets its own stream this way.
    The base seed must be an integer (numpy's included) and not a bool:
    ``1.0`` or ``True`` would name another stream than ``1``, so they raise
    InvalidInputError naming the value and the label.
    """
    if isinstance(base_seed, bool) or not isinstance(base_seed, Integral):
        raise InvalidInputError(
            f"seed {base_seed!r} for stream {label!r} is not an integer")
    digest = hashlib.blake2b(f"{base_seed}/{label}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def xavier_init(shape, fan_in: int, seed: int) -> np.ndarray:
    """Draw i.i.d. uniform values on [-sqrt(3/fan_in), +sqrt(3/fan_in)].

    The bound gives variance 1/fan_in (fan-in-only uniform variant).
    Identical (shape, fan_in, seed) triples give bitwise-identical output.
    """
    shape = tuple(int(s) for s in shape)
    if fan_in < 1:
        raise InvalidSpecError(f"xavier_init requires fan_in >= 1, got {fan_in}")
    if len(shape) == 0 or any(s < 1 for s in shape):
        raise InvalidSpecError(f"xavier_init requires a non-empty shape, got {shape}")
    bound = np.sqrt(3.0 / fan_in)
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.uniform(-bound, bound, size=shape).astype(np.float64)
