"""Fixed-point encoding and ring matrix arithmetic."""

import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secregress.errors import DeserializeError, DimensionMismatch, MagnitudeOverflow
from secregress.ring import (
    DEFAULT_CONFIG,
    FRAC_BITS,
    MASK,
    FixedPointConfig,
    RingMatrix,
    add_const,
    decode_raw,
    encode_raw,
    mat_add,
    mat_hadamard,
    mat_mul_raw,
    mat_mul_scalar,
    mat_sub,
    mul_op_count,
    reset_mul_op_count,
    shift_left,
    shift_right,
    to_signed,
    transpose,
    uniform_matrix,
)
from secregress.rng import CounterDrbg

import ring_reference as ref
from oracles import decode_rows, truncate

CFG = DEFAULT_CONFIG  # f = 20


# --- encoding: frozen values ---

def test_encode_known_values():
    assert encode_raw(1.5) == 1572864                 # 1.5 * 2^20
    assert encode_raw(0.5) == 524288
    assert encode_raw(-1.0) == 18446744073708503040   # 2^64 - 2^20
    assert encode_raw(0.0) == 0
    assert encode_raw(-0.5) == (1 << 64) - 524288


def test_encode_rounds_half_away_from_zero():
    half_ulp = 2.0 ** -21
    assert encode_raw(half_ulp) == 1
    assert encode_raw(-half_ulp) == MASK  # -1 mod 2^64
    assert encode_raw(3 * half_ulp) == 2
    assert encode_raw(-3 * half_ulp) == (1 << 64) - 2


def test_decode_known_values():
    assert decode_raw(1572864) == 1.5
    assert decode_raw(18446744073708503040) == -1.0


def test_encode_overflow_guard():
    lim = CFG.max_magnitude  # 2^43 at f=20
    assert decode_raw(encode_raw(lim * (1 - 1e-12))) == pytest.approx(
        lim, rel=1e-9)
    for bad in (lim, -lim, lim * 2, math.inf, -math.inf, math.nan):
        with pytest.raises(MagnitudeOverflow):
            encode_raw(bad)


def test_config_invariant():
    FixedPointConfig(frac_bits=31)
    for f in (0, 32, 40, -3):
        with pytest.raises(ValueError):
            FixedPointConfig(frac_bits=f)


@given(st.floats(min_value=-1000, max_value=1000, allow_nan=False))
def test_encode_decode_roundtrip(v):
    assert abs(decode_raw(encode_raw(v)) - v) <= 2.0 ** -20


@given(st.integers(0, MASK))
def test_signed_unsigned_roundtrip(raw):
    s = to_signed(raw)
    assert -(1 << 63) <= s < (1 << 63)
    assert s & MASK == raw


# --- matrices ---

def quantize(v):
    return decode_raw(encode_raw(v))


def test_known_product():
    a = RingMatrix.encode_rows([[1, 2], [3, 4]])
    b = RingMatrix.encode_rows([[5, 6], [7, 8]])
    p = truncate(mat_mul_raw(a, b))
    assert decode_rows(p) == [[19.0, 22.0], [43.0, 50.0]]


def test_product_exact_at_double_scale():
    a = RingMatrix.encode_rows([[1.5, -2.25]])
    b = RingMatrix.encode_rows([[0.5], [4.0]])
    p = mat_mul_raw(a, b)
    # 1.5*0.5 - 2.25*4 = -8.25, exact at 2f
    assert decode_rows(p, frac_bits=40) == [[-8.25]]


def test_random_products_match_float_oracle():
    # quantized inputs make the 2f ring product exact; float64 holds the
    # exact value too (< 53 significant bits), so equality is strict
    rng = CounterDrbg("ring product sweep")
    for trial in range(60):
        x = 1 + rng.randrange(5)
        y = 1 + rng.randrange(5)
        z = 1 + rng.randrange(5)

        def rand_rows(r, c):
            return [[quantize(rng.randrange(16_000_001) / 1e6 - 8.0)
                     for _ in range(c)] for _ in range(r)]

        ar, br = rand_rows(x, y), rand_rows(y, z)
        a = RingMatrix.encode_rows(ar)
        b = RingMatrix.encode_rows(br)
        got = decode_rows(mat_mul_raw(a, b), frac_bits=40)
        for i in range(x):
            for k in range(z):
                exact = sum(ar[i][j] * br[j][k] for j in range(y))
                assert got[i][k] == exact
        trunc = decode_rows(truncate(mat_mul_raw(a, b)))
        for i in range(x):
            for k in range(z):
                exact = sum(ar[i][j] * br[j][k] for j in range(y))
                assert abs(trunc[i][k] - exact) <= 2.0 ** -20


def test_add_sub_neg_scalar():
    a = RingMatrix.encode_rows([[1.0, -2.0]])
    b = RingMatrix.encode_rows([[0.25, 0.75]])
    assert decode_rows(mat_add(a, b)) == [[1.25, -1.25]]
    assert decode_rows(mat_sub(a, b)) == [[0.75, -2.75]]
    assert decode_rows(mat_sub(RingMatrix.zeros(1, 2), a)) == [[-1.0, 2.0]]
    assert decode_rows(mat_mul_scalar(a, 3)) == [[3.0, -6.0]]


def test_shift_left_matches_scale_change():
    a = RingMatrix.encode_rows([[2.5, -0.75]])
    assert decode_rows(shift_left(a, 20), frac_bits=40) == [[2.5, -0.75]]


def test_transpose():
    a = RingMatrix(2, 3, [1, 2, 3, 4, 5, 6])
    t = transpose(a)
    assert (t.rows, t.cols) == (3, 2)
    assert t.data == [1, 4, 2, 5, 3, 6]
    assert transpose(t) == a


def test_dimension_checks():
    a = RingMatrix.zeros(2, 3)
    b = RingMatrix.zeros(2, 3)
    with pytest.raises(DimensionMismatch):
        mat_mul_raw(a, b)
    with pytest.raises(DimensionMismatch):
        mat_add(a, RingMatrix.zeros(3, 2))
    with pytest.raises(DimensionMismatch):
        RingMatrix(2, 2, [1, 2, 3])
    with pytest.raises(DimensionMismatch):
        RingMatrix.encode_rows([[1, 2], [3]])
    with pytest.raises(DimensionMismatch):
        RingMatrix.encode_rows([])


def test_identity_is_neutral():
    # neutrality holds on the encodable domain (|v| < 2^(63-f)); a raw
    # uniform word would lose its top f bits to the wrap
    a = RingMatrix.encode_rows([[1.25, -3.5, 0.0],
                                [7.0, 2.0 ** 20, -0.001],
                                [4096.5, -4096.5, 1e-6]])
    prod = mat_mul_raw(a, RingMatrix.encode_rows(np.eye(3)))
    assert truncate(prod) == a


# --- serialization ---

def test_serialization_golden_bytes():
    m = RingMatrix(1, 2, [1, MASK])
    assert m.to_bytes() == (b"\x01\x00\x00\x00\x02\x00\x00\x00"
                            b"\x01\x00\x00\x00\x00\x00\x00\x00"
                            b"\xff\xff\xff\xff\xff\xff\xff\xff")


def test_serialization_roundtrip():
    rng = CounterDrbg("serde")
    for rows, cols in [(1, 1), (3, 5), (7, 2)]:
        m = uniform_matrix(rows, cols, rng)
        assert RingMatrix.from_bytes(m.to_bytes()) == m


def test_deserialize_errors():
    good = RingMatrix(2, 2, [1, 2, 3, 4]).to_bytes()
    with pytest.raises(DeserializeError):
        RingMatrix.from_bytes(good[:-1])
    with pytest.raises(DeserializeError):
        RingMatrix.from_bytes(good + b"\x00" * 8)
    with pytest.raises(DeserializeError):
        RingMatrix.from_bytes(b"\x00\x00\x00\x00\x01\x00\x00\x00")
    with pytest.raises(DeserializeError):
        RingMatrix.from_bytes(b"\x01\x00")


# --- uniform sampling ---

def test_uniform_matrix_deterministic():
    a = uniform_matrix(4, 4, CounterDrbg(77, label="u"))
    b = uniform_matrix(4, 4, CounterDrbg(77, label="u"))
    c = uniform_matrix(4, 4, CounterDrbg(78, label="u"))
    assert a == b
    assert a != c


def test_uniform_matrix_signed_mean_near_zero():
    m = uniform_matrix(100, 100, CounterDrbg("uniform mean"))
    mean = sum(to_signed(w) for w in m.data) / len(m.data)
    sigma = (1 << 64) / math.sqrt(12)
    assert abs(mean) < 3 * sigma / math.sqrt(len(m.data))


# --- op counter ---

def test_mul_op_counter():
    reset_mul_op_count()
    mat_mul_raw(RingMatrix.zeros(3, 4), RingMatrix.zeros(4, 5))
    assert mul_op_count() == 60
    mat_mul_raw(RingMatrix.zeros(1, 1), RingMatrix.zeros(1, 1))
    assert mul_op_count() == 61
    reset_mul_op_count()
    assert mul_op_count() == 0


@settings(max_examples=30)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4),
       st.integers(0, 5))
def test_matmul_distributes_over_addition(x, y, z, seed):
    rng = CounterDrbg(seed, label="distrib")
    a = uniform_matrix(x, y, rng)
    b = uniform_matrix(y, z, rng)
    c = uniform_matrix(y, z, rng)
    left = mat_mul_raw(a, mat_add(b, c))
    right = mat_add(mat_mul_raw(a, b), mat_mul_raw(a, c))
    assert left == right


def test_mul_op_counter_loses_no_update_across_threads():
    one = RingMatrix(1, 1, [1])
    per_thread = 2000
    threads = [threading.Thread(
        target=lambda: [mat_hadamard(one, one) for _ in range(per_thread)])
        for _ in range(4)]
    old = sys.getswitchinterval()
    reset_mul_op_count()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert mul_op_count() == 4 * per_thread


# --- numpy kernels against the integer reference ---

EDGE_WORDS = [0, 1, 2, (1 << 63) - 1, 1 << 63, MASK]
words = st.one_of(st.sampled_from(EDGE_WORDS), st.integers(0, MASK))
dims = st.integers(1, 9)


def _matrix(data, rows, cols):
    return rows, cols, data.draw(st.lists(words, min_size=rows * cols,
                                          max_size=rows * cols))


def _same(got: RingMatrix, want) -> None:
    assert (got.rows, got.cols, got.data) == want
    assert got.arr.flags["C_CONTIGUOUS"]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_kernels_match_the_integer_reference(data):
    r, k, c = data.draw(dims), data.draw(dims), data.draw(dims)
    a, b = _matrix(data, r, k), _matrix(data, r, k)
    y = _matrix(data, k, c)
    raw = data.draw(words)
    bits = data.draw(st.integers(0, 63))
    ma, mb, my = (RingMatrix(*m) for m in (a, b, y))
    _same(mat_add(ma, mb), ref.add(a, b))
    _same(mat_sub(ma, mb), ref.sub(a, b))
    _same(mat_hadamard(ma, mb), ref.hadamard(a, b))
    _same(mat_mul_raw(ma, my), ref.matmul(a, y))
    _same(mat_mul_scalar(ma, raw), ref.mul_scalar(a, raw))
    _same(add_const(ma, raw), ref.add_const(a, raw))
    _same(shift_right(ma, bits), ref.shift_right(a, bits))
    _same(shift_left(ma, bits), ref.shift_left(a, bits))
    _same(truncate(ma), ref.shift_right(a, FRAC_BITS))
    _same(transpose(ma), ref.transpose(a))
    assert ma.to_bytes() == ref.to_bytes(a)
    _same(RingMatrix.from_bytes(ref.to_bytes(a)), a)
    _same(RingMatrix.from_bytes(memoryview(ref.to_bytes(a))), a)
    assert decode_rows(ma) == [
        [ref.to_signed(w) / (1 << FRAC_BITS) for w in a[2][i * k:(i + 1) * k]]
        for i in range(r)]


LIMIT = DEFAULT_CONFIG.max_magnitude  # 2^43
ties = st.integers(-(1 << 40), 1 << 40).map(lambda n: (n + 0.5) * 2.0 ** -20)
reals = st.one_of(
    ties,
    st.sampled_from([0.0, -0.0, LIMIT, -LIMIT, math.nextafter(LIMIT, 0),
                     -math.nextafter(LIMIT, 0), math.nan, math.inf,
                     -math.inf]),
    st.floats(-1e6, 1e6),
    st.floats(width=64))


def _encode_or_none(v):
    try:
        return encode_raw(v)
    except MagnitudeOverflow:
        return None


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_encode_rows_matches_encode_raw(data):
    r, c = data.draw(dims), data.draw(dims)
    values = data.draw(st.lists(reals, min_size=r * c, max_size=r * c))
    rows = [values[i * c:(i + 1) * c] for i in range(r)]
    want = [_encode_or_none(v) for v in values]
    if None in want:
        with pytest.raises(MagnitudeOverflow):
            RingMatrix.encode_rows(rows)
        with pytest.raises(MagnitudeOverflow):
            RingMatrix.column(values)
        return
    _same(RingMatrix.encode_rows(rows), (r, c, want))
    _same(RingMatrix.column(values), (r * c, 1, want))
