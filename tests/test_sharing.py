"""Additive sharing: reconstruction, shape checks, share uniformity smoke."""

import collections

import pytest
from hypothesis import given
from hypothesis import strategies as st

from secregress.errors import DimensionMismatch, InvalidPartyCount
from secregress.ring import MASK, RingMatrix, uniform_matrix
from secregress.rng import CounterDrbg
from secregress import sharing

from oracles import reconstruct, share_raw


def share_matrix(x: RingMatrix, n: int, rng) -> list[RingMatrix]:
    return [RingMatrix.wrap(s) for s in sharing.share_matrix(x.arr, n, rng)]


def zero_shares(rows: int, cols: int, n: int, rng) -> list[RingMatrix]:
    return [RingMatrix.wrap(s)
            for s in sharing.zero_shares(rows, cols, n, rng)]


def test_share_reconstruct_roundtrip():
    rng = CounterDrbg("share roundtrip")
    for n in (2, 3, 5):
        x = uniform_matrix(3, 4, rng)
        shares = share_matrix(x, n, rng)
        assert len(shares) == n
        assert reconstruct(shares) == x


def test_encoded_value_roundtrip():
    rng = CounterDrbg(17)
    x = RingMatrix.encode_rows([[1.5, -2.75], [0.001, 1000.0]])
    # reconstruction is exact in-ring, so decoding returns the grid values
    assert reconstruct(share_matrix(x, 3, rng)) == x


def test_party_count_guard():
    x = RingMatrix(1, 1, [0])
    rng = CounterDrbg(0)
    for n in (1, 0, -2):
        with pytest.raises(InvalidPartyCount):
            share_matrix(x, n, rng)
    with pytest.raises(InvalidPartyCount):
        reconstruct([])


def test_shape_mismatch_detected():
    with pytest.raises(DimensionMismatch):
        reconstruct([RingMatrix(2, 2, [0] * 4), RingMatrix(2, 3, [0] * 6)])


def test_sharing_is_deterministic_in_the_rng():
    x = RingMatrix.encode_rows([[3.25]])
    a = share_matrix(x, 4, CounterDrbg(5, label="det"))
    b = share_matrix(x, 4, CounterDrbg(5, label="det"))
    assert a == b
    c = share_matrix(x, 4, CounterDrbg(6, label="det"))
    assert a != c


def test_zero_shares_sum_to_zero():
    rng = CounterDrbg("zeros")
    shares = zero_shares(2, 3, 3, rng)
    assert not reconstruct(shares).arr.any()
    assert any(s.arr.any() for s in shares)


def test_share_raw():
    rng = CounterDrbg("raw")
    parts = share_raw(12345, 3, rng)
    assert sum(parts) & MASK == 12345
    with pytest.raises(InvalidPartyCount):
        share_raw(1, 1, rng)


@given(st.integers(0, MASK), st.integers(2, 6), st.integers(0, 1000))
def test_share_raw_roundtrip(raw, n, seed):
    parts = share_raw(raw, n, CounterDrbg(seed, label="hyp"))
    assert len(parts) == n
    assert sum(parts) & MASK == raw


def test_individual_share_looks_uniform():
    # the same secret shared many times: the first share's low byte should
    # cover the full range with no gross skew (exact test runs in acceptance)
    rng = CounterDrbg("uniformity smoke")
    x = RingMatrix.encode_rows([[1.0]])
    counts = collections.Counter(
        int(share_matrix(x, 2, rng)[0].arr[0, 0]) & 0xFF
        for _ in range(20000))
    assert len(counts) == 256
    assert max(counts.values()) < 3 * min(counts.values())


def test_last_share_differs_from_secret():
    # with n-1 uniform masks the residual share must not equal the secret
    # (would indicate the masks cancelled, astronomically unlikely)
    rng = CounterDrbg("residual")
    x = uniform_matrix(4, 4, rng)
    assert share_matrix(x, 2, rng)[1] != x
