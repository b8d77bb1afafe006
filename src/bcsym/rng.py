"""Counter-based uniform random numbers with splittable streams.

Each (seed, stream_id) pair indexes an independent sequence; draw i is a
pure function of (seed, stream_id, i) through a splitmix64-style mixer, so
sequences are bit-reproducible across platforms, processes, and worker
counts.  Instances are immutable and carry no cursor: any slice of the
sequence can be generated on any machine without coordination, which makes
sharing an instance across threads or processes safe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["RngStream"]

_MASK = (1 << 64) - 1
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_STREAM_SALT = 0x6A09E667F3BCC909
_INTEGER = (int, np.integer)  # the types a count or a position may take


def _mix(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * _M1
    z = (z ^ (z >> np.uint64(27))) * _M2
    return z ^ (z >> np.uint64(31))


def _mix_int(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


@dataclass(frozen=True)
class RngStream:
    """Deterministic uniform generator for one (seed, stream_id) pair."""

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        if not isinstance(self.seed, int) or not isinstance(self.stream_id, int):
            raise TypeError("seed and stream_id must be integers")
        if self.seed < 0 or self.stream_id < 0:
            raise ValueError("seed and stream_id must be nonnegative")

    def _key(self) -> int:
        k = _mix_int(self.seed)
        return _mix_int(k ^ _mix_int(self.stream_id ^ _STREAM_SALT))

    def uniforms(self, n: int, start: int = 0) -> np.ndarray:
        """Draws start, ..., start+n-1 of this stream, each in open (0, 1).

        Values are centered on the 2^-53 lattice, so 0.0 and 1.0 never occur
        and inverse-cdf sampling is safe.
        """
        if not isinstance(n, _INTEGER) or not isinstance(start, _INTEGER):
            raise TypeError("n and start must be integers")
        if n < 0 or start < 0:
            raise ValueError("n and start must be nonnegative")
        n, start = int(n), int(start)  # numpy int64 + uint64 would be float64
        idx = np.arange(start + 1, start + n + 1, dtype=np.uint64)
        bits = _mix(np.uint64(self._key()) + idx * _GOLDEN)
        return ((bits >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53

    def split(self, child: int) -> "RngStream":
        """Independent child stream, deterministically derived."""
        if child < 0:
            raise ValueError("child index must be nonnegative")
        return RngStream(seed=_mix_int(self._key() ^ _mix_int(child)), stream_id=child)
