"""Array conventions, the shape error, and the deterministic RNG.

Arrays are plain numpy ndarrays, kept C-contiguous (row-major) and at most
rank 4, interpreted as (batch, channel, height, width) where that matters.
float32 is the working precision for training and data; float64 is used by
every gradient-check path.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ShapeError",
    "SeededRng",
    "split_seed",
]


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible. Carries both shapes."""

    def __init__(self, message, shapes=()):
        super().__init__(message)
        self.shapes = tuple(shapes)


# Counter-based generator. Each output is splitmix64's finalizer applied to
# seed + i * GOLDEN, so the stream is a pure function of (seed, draw index)
# and replays identically on any platform for the same precision.
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)
_SPLIT_SALT = np.uint64(0xD1B54A32D192ED03)
_U53_INV = 2.0**-53


def _mix64(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * _MIX_1
    z = (z ^ (z >> np.uint64(27))) * _MIX_2
    return z ^ (z >> np.uint64(31))


class SeededRng:
    """Deterministic counter-based random stream.

    Draw i of the stream is ``_mix64(seed + (i+1) * GOLDEN)`` over uint64
    wrap-around arithmetic (splitmix64). Uniforms take the top 53 bits;
    normal variates use the Box-Muller transform on two uniform draws,
    emitted as (r*cos, r*sin) pairs. An odd-sized normal request still
    consumes a full pair of uniforms for its last element.
    """

    def __init__(self, seed: int):
        self.seed = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
        self._counter = 0

    def _raw(self, n: int) -> np.ndarray:
        idx = np.arange(self._counter + 1, self._counter + n + 1, dtype=np.uint64)
        self._counter += n
        return _mix64(self.seed + idx * _GOLDEN)

    def uniforms(self, shape=None) -> np.ndarray:
        """Uniform float64 samples in [0, 1)."""
        n = 1 if shape is None else int(np.prod(shape))
        u = (self._raw(n) >> np.uint64(11)).astype(np.float64) * _U53_INV
        return float(u[0]) if shape is None else u.reshape(shape)

    def normals(self, shape, dtype=np.float64) -> np.ndarray:
        """Standard normal samples via Box-Muller on paired uniforms."""
        n = int(np.prod(shape))
        m = (n + 1) // 2
        raw = self._raw(2 * m)
        # u1 in (0, 1] so log never sees zero; u2 in [0, 1)
        u1 = ((raw[:m] >> np.uint64(11)).astype(np.float64) + 1.0) * _U53_INV
        u2 = (raw[m:] >> np.uint64(11)).astype(np.float64) * _U53_INV
        r = np.sqrt(-2.0 * np.log(u1))
        theta = (2.0 * np.pi) * u2
        out = np.empty(2 * m, dtype=np.float64)
        out[0::2] = r * np.cos(theta)
        out[1::2] = r * np.sin(theta)
        return out[:n].reshape(shape).astype(dtype)

    def integers(self, low: int, high: int, shape=None):
        """Uniform integers in [low, high)."""
        if high <= low:
            raise ValueError(f"empty integer range [{low}, {high})")
        u = self.uniforms(shape if shape is not None else (1,))
        vals = (np.floor(u * (high - low)) + low).astype(np.int64)
        return int(vals[0]) if shape is None else vals


def split_seed(master: int, index: int) -> int:
    """64-bit mix of (master, index) used to key independent substreams."""
    mask = 0xFFFFFFFFFFFFFFFF
    z = (((master & mask) ^ int(_SPLIT_SALT)) + (index + 1) * int(_GOLDEN)) & mask
    return int(_mix64(np.array([z], dtype=np.uint64))[0])

