"""Additive secret sharing of ring matrices (uint64 arrays, see ring).

A value is split into n shares that sum to it mod 2^64; any n-1 shares are
jointly uniform, so nothing short of the full set carries information.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidPartyCount


def share_matrix(x: np.ndarray, n: int, rng) -> list[np.ndarray]:
    """Split x into n additive shares; the first n-1 are fresh uniform draws."""
    if n < 2:
        raise InvalidPartyCount(f"need at least 2 parties, got {n}")
    shares = [rng.u64_array(x.size).reshape(x.shape) for _ in range(n - 1)]
    last = x
    for s in shares:
        last = last - s
    shares.append(last)
    return shares


def zero_shares(rows: int, cols: int, n: int, rng) -> list[np.ndarray]:
    """Additive sharing of the zero matrix (pairwise masks)."""
    return share_matrix(np.zeros((rows, cols), dtype=np.uint64), n, rng)
