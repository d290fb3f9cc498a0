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
    decode_raw,
    encode_raw,
    mat_mul_raw,
    matmul,
    mul_op_count,
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
    # the int64 view the loop shifts through is the two's-complement value
    # decode_raw scales
    s = int(np.array([raw], dtype=np.uint64).view(np.int64)[0])
    assert s == ref.to_signed(raw)
    assert -(1 << 63) <= s < (1 << 63)
    assert s & MASK == raw
    assert decode_raw(raw) == s / CFG.scale


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
    assert decode_rows(RingMatrix.wrap(a.arr + b.arr)) == [[1.25, -1.25]]
    assert decode_rows(RingMatrix.wrap(a.arr - b.arr)) == [[0.75, -2.75]]
    assert decode_rows(RingMatrix.wrap(np.uint64(0) - a.arr)) == [[-1.0, 2.0]]
    assert decode_rows(RingMatrix.wrap(a.arr * np.uint64(3))) == [[3.0, -6.0]]


def test_shift_left_matches_scale_change():
    a = RingMatrix.encode_rows([[2.5, -0.75]])
    assert decode_rows(RingMatrix.wrap(a.arr << np.uint64(20)),
                       frac_bits=40) == [[2.5, -0.75]]


def _transpose(a: RingMatrix) -> RingMatrix:
    """The contiguous transpose the gradient stages take of an operand."""
    return RingMatrix.wrap(np.ascontiguousarray(a.arr.T))


def test_transpose():
    a = RingMatrix(2, 3, [1, 2, 3, 4, 5, 6])
    t = _transpose(a)
    assert (t.rows, t.cols) == (3, 2)
    assert t.arr.ravel().tolist() == [1, 4, 2, 5, 3, 6]
    assert t.arr.flags["C_CONTIGUOUS"]
    assert _transpose(t) == a


def test_dimension_checks():
    a = RingMatrix(2, 3, [0] * 6)
    with pytest.raises(DimensionMismatch):
        mat_mul_raw(a, a)
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
    words = m.arr.ravel().tolist()
    mean = sum(ref.to_signed(w) for w in words) / len(words)
    sigma = (1 << 64) / math.sqrt(12)
    assert abs(mean) < 3 * sigma / math.sqrt(len(words))


# --- op counter ---

def test_mul_op_counter():
    before = mul_op_count()
    mat_mul_raw(RingMatrix(3, 4, [0] * 12), RingMatrix(4, 5, [0] * 20))
    assert mul_op_count() - before == 60
    mat_mul_raw(RingMatrix(1, 1, [0]), RingMatrix(1, 1, [0]))
    assert mul_op_count() - before == 61
    matmul(np.zeros((2, 3), np.uint64), np.zeros((3, 2), np.uint64))
    # an entrywise product of two 4-entry columns: 4 blocks of 1 by 1
    matmul(np.zeros((4, 1), np.uint64), np.zeros((4, 1), np.uint64), 4)
    assert mul_op_count() - before == 61 + 12 + 4


@settings(max_examples=30)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4),
       st.integers(0, 5))
def test_matmul_distributes_over_addition(x, y, z, seed):
    rng = CounterDrbg(seed, label="distrib")
    a = uniform_matrix(x, y, rng)
    b = uniform_matrix(y, z, rng)
    c = uniform_matrix(y, z, rng)
    left = mat_mul_raw(a, RingMatrix.wrap(b.arr + c.arr))
    right = mat_mul_raw(a, b).arr + mat_mul_raw(a, c).arr
    assert np.array_equal(left.arr, right)


def test_mul_op_counter_loses_no_update_across_threads():
    one = np.ones((1, 1), dtype=np.uint64)
    per_thread = 2000
    threads = [threading.Thread(
        target=lambda: [matmul(one, one, 1) for _ in range(per_thread)])
        for _ in range(4)]
    old = sys.getswitchinterval()
    before = mul_op_count()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert mul_op_count() - before == 4 * per_thread


# --- numpy kernels against the integer reference ---

EDGE_WORDS = [0, 1, 2, (1 << 63) - 1, 1 << 63, MASK]
words = st.one_of(st.sampled_from(EDGE_WORDS), st.integers(0, MASK))
dims = st.integers(1, 9)


def _matrix(data, rows, cols):
    return rows, cols, data.draw(st.lists(words, min_size=rows * cols,
                                          max_size=rows * cols))


def _same(got, want) -> None:
    """got, a RingMatrix or a bare array, holds want's words in a
    C-contiguous uint64 array of want's shape."""
    arr = got.arr if isinstance(got, RingMatrix) else got
    assert arr.dtype == np.uint64
    assert (*arr.shape, arr.ravel().tolist()) == want
    assert arr.flags["C_CONTIGUOUS"]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_kernels_match_the_integer_reference(data):
    r, k, c = data.draw(dims), data.draw(dims), data.draw(dims)
    a, b = _matrix(data, r, k), _matrix(data, r, k)
    y = _matrix(data, k, c)
    u, v = _matrix(data, r, 1), _matrix(data, r, 1)
    raw = data.draw(words)
    bits = data.draw(st.integers(0, 63))
    ma, mb, my = (RingMatrix(*m) for m in (a, b, y))
    # the ring operations the loop calls by name
    _same(matmul(ma.arr, my.arr), ref.matmul(a, y))
    # an entrywise product of two columns, as r blocks of 1 by 1
    _same(matmul(RingMatrix(*u).arr, RingMatrix(*v).arr, r),
          ref.hadamard(u, v))
    _same(mat_mul_raw(ma, my), ref.matmul(a, y))
    # numpy's operators on the words, as _shift, _update and
    # _sigmoid_from_zf write them: public words are np.uint64 scalars, the
    # shift count of the signed shift an np.int64
    x, w = ma.arr, np.uint64(raw)
    _same(x + mb.arr, ref.add(a, b))
    _same(x - mb.arr, ref.sub(a, b))
    _same(x + w, ref.add_const(a, raw))
    _same(x * w, ref.mul_scalar(a, raw))
    _same(2 * x, ref.mul_scalar(a, 2))
    _same(x << np.uint64(bits), ref.shift_left(a, bits))
    _same((x.view(np.int64) >> np.int64(bits)).view(np.uint64),
          ref.shift_right(a, bits))
    _same(truncate(ma), ref.shift_right(a, FRAC_BITS))
    _same(_transpose(ma), ref.transpose(a))
    assert ma.to_bytes() == ref.to_bytes(a)
    _same(RingMatrix.from_bytes(ref.to_bytes(a)), a)
    _same(RingMatrix.from_bytes(memoryview(ref.to_bytes(a))), a)
    assert decode_rows(ma) == [
        [ref.to_signed(w) / (1 << FRAC_BITS) for w in a[2][i * k:(i + 1) * k]]
        for i in range(r)]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_blockwise_product_is_the_per_block_products(data):
    k, x, y, z = (data.draw(st.integers(1, 5)) for _ in range(4))
    a, b = _matrix(data, k * x, y), _matrix(data, k * y, z)
    want = []
    for j in range(k):
        block_a = x, y, a[2][j * x * y:(j + 1) * x * y]
        block_b = y, z, b[2][j * y * z:(j + 1) * y * z]
        want.extend(ref.matmul(block_a, block_b)[2])
    ma, mb = RingMatrix(*a), RingMatrix(*b)
    before = mul_op_count()
    _same(mat_mul_raw(ma, mb, blocks=k), (k * x, z, want))
    assert mul_op_count() - before == k * x * y * z
    # a stack that does not split into k blocks, or whose blocks do not
    # chain, is refused
    off = data.draw(st.integers(1, k + 1))
    with pytest.raises(DimensionMismatch):
        mat_mul_raw(ma, mb, blocks=k + off)
    with pytest.raises(DimensionMismatch):
        mat_mul_raw(ma, RingMatrix(k * y + off, z, [0] * ((k * y + off) * z)),
                    blocks=k)
    if k > 1:
        with pytest.raises(DimensionMismatch):
            mat_mul_raw(RingMatrix(k * x + 1, y, [0] * ((k * x + 1) * y)), mb,
                        blocks=k)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_one_by_one_blocks_are_entrywise_products(data):
    # the TI elementwise layout: n blocks of 1 by 1 against n of 1 by z
    n, z = data.draw(st.integers(1, 40)), data.draw(st.integers(1, 3))
    a, b = _matrix(data, n, 1), _matrix(data, n, z)
    want = []
    for j in range(n):
        want.extend(ref.matmul((1, 1, a[2][j:j + 1]),
                               (1, z, b[2][j * z:(j + 1) * z]))[2])
    before = mul_op_count()
    _same(matmul(RingMatrix(*a).arr, RingMatrix(*b).arr, n), (n, z, want))
    assert mul_op_count() - before == n * z


def test_blockwise_product_needs_a_block():
    with pytest.raises(DimensionMismatch):
        mat_mul_raw(RingMatrix(2, 2, [0] * 4), RingMatrix(2, 2, [0] * 4),
                    blocks=0)


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
            RingMatrix.encode_rows([[v] for v in values])
        return
    _same(RingMatrix.encode_rows(rows), (r, c, want))
    _same(RingMatrix.encode_rows([[v] for v in values]), (r * c, 1, want))
