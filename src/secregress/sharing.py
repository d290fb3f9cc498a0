"""Additive secret sharing of ring matrices.

A value is split into n shares that sum to it mod 2^64; any n-1 shares are
jointly uniform, so nothing short of the full set carries information.
"""

from __future__ import annotations

from .errors import InvalidPartyCount
from .ring import MASK, RingMatrix, mat_sub, uniform_matrix


def share_matrix(x: RingMatrix, n: int, rng) -> list[RingMatrix]:
    """Split x into n additive shares; the first n-1 are fresh uniform draws."""
    if n < 2:
        raise InvalidPartyCount(f"need at least 2 parties, got {n}")
    shares = [uniform_matrix(x.rows, x.cols, rng) for _ in range(n - 1)]
    last = x
    for s in shares:
        last = mat_sub(last, s)
    shares.append(last)
    return shares


def zero_shares(rows: int, cols: int, n: int, rng) -> list[RingMatrix]:
    """Additive sharing of the zero matrix (pairwise masks)."""
    return share_matrix(RingMatrix.zeros(rows, cols), n, rng)


def share_raw(raw: int, n: int, rng) -> list[int]:
    """Scalar variant used for control values."""
    if n < 2:
        raise InvalidPartyCount(f"need at least 2 parties, got {n}")
    parts = [rng.u64() for _ in range(n - 1)]
    parts.append((raw - sum(parts)) & MASK)
    return parts
