"""Array conventions, the shape error, and the deterministic RNG.

Arrays are plain numpy ndarrays, kept C-contiguous (row-major) and at most
rank 4, interpreted as (batch, channel, height, width) where that matters.
float32 is the working precision for training and data; float64 is used by
every gradient-check path.
"""

from __future__ import annotations

import math
import operator

import numpy as np

__all__ = [
    "ShapeError",
    "SeededRng",
    "split_seed",
]


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible; the message names them."""


# Counter-based generator. Each output is splitmix64's finalizer applied to
# seed + i * GOLDEN, so the stream is a pure function of (seed, draw index)
# and replays identically on any platform for the same precision.
_MASK = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_1 = 0xBF58476D1CE4E5B9
_MIX_2 = 0x94D049BB133111EB
_SPLIT_SALT = 0xD1B54A32D192ED03
_U53_INV = 2.0**-53


def _mix64(z):
    """splitmix64's finalizer of a Python int in [0, 2^64) or a uint64 array.
    The masks keep an int's products to 64 bits, as uint64 arithmetic wraps."""
    z = ((z ^ (z >> 30)) * _MIX_1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX_2) & _MASK
    return z ^ (z >> 31)


class SeededRng:
    """Deterministic counter-based random stream.

    Draw i of the stream is ``_mix64(seed + (i+1) * GOLDEN)`` over uint64
    wrap-around arithmetic (splitmix64). Uniforms take the top 53 bits;
    normal variates use the Box-Muller transform on two uniform draws,
    emitted as (r*cos, r*sin) pairs. An odd-sized normal request still
    consumes a full pair of uniforms for its last element. A scalar draw
    runs on Python ints and floats, and gives the bits the same draw would
    in an array.
    """

    def __init__(self, seed: int):
        self.seed = operator.index(seed) & _MASK  # a Python int, numpy ints too
        self._counter = 0

    def _raw(self, n: int) -> np.ndarray:
        idx = np.arange(self._counter + 1, self._counter + n + 1, dtype=np.uint64)
        self._counter += n
        return _mix64(self.seed + idx * _GOLDEN)

    def _uniform(self) -> float:
        """The next draw as one uniform, on Python ints."""
        self._counter += 1
        return (_mix64((self.seed + self._counter * _GOLDEN) & _MASK) >> 11) * _U53_INV

    def uniforms(self, shape=None) -> np.ndarray:
        """Uniform float64 samples in [0, 1)."""
        if shape is None:
            return self._uniform()
        u = (self._raw(int(np.prod(shape))) >> 11).astype(np.float64) * _U53_INV
        return u.reshape(shape)

    def normals(self, shape, dtype=np.float64) -> np.ndarray:
        """Standard normal samples via Box-Muller on paired uniforms."""
        n = int(np.prod(shape))
        m = (n + 1) // 2
        raw = self._raw(2 * m)
        # u1 in (0, 1] so log never sees zero; u2 in [0, 1)
        u1 = ((raw[:m] >> 11).astype(np.float64) + 1.0) * _U53_INV
        u2 = (raw[m:] >> 11).astype(np.float64) * _U53_INV
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
        if shape is None:
            # floor(u * span) + low in float64, as the array path rounds it
            return int(math.floor(self._uniform() * (high - low)) + float(low))
        u = self.uniforms(shape)
        return (np.floor(u * (high - low)) + low).astype(np.int64)


def split_seed(master: int, index: int) -> int:
    """64-bit mix of (master, index) used to key independent substreams."""
    return _mix64((((master & _MASK) ^ _SPLIT_SALT) + (index + 1) * _GOLDEN) & _MASK)

