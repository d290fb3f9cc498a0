"""Fixed-point arithmetic over the ring of integers modulo 2^64.

Reals are encoded as round(v * 2^f) mod 2^64 with f = FRAC_BITS for every
run: share-wise truncation fails more often as f and the value bound grow,
so a safe f belongs to the format, not to a run. All protocol arithmetic
happens on the raw words with silent wrapping; two's-complement decode
recovers the signed value. A product of two f-bit encodings carries 2f
fractional bits until an explicit truncate.

A RingMatrix wraps one C-contiguous (rows, cols) numpy uint64 array.
Unsigned 64-bit numpy arithmetic wraps modulo 2^64, which is exactly the
ring: every sum, difference and product, and every partial sum of a matrix
product, keeps its low 64 bits, so the words equal those of exact integer
arithmetic reduced mod 2^64 (tests/ring_reference.py is that integer
arithmetic, and the tests hold the two to the same words). The arithmetic
shift reads the same bits as int64.
"""

from __future__ import annotations

import math
import struct
import threading
from dataclasses import dataclass

import numpy as np

from .errors import DeserializeError, DimensionMismatch, MagnitudeOverflow

MASK = (1 << 64) - 1
SIGN_BIT = 1 << 63

_WORD = np.dtype("<u8")
_SHAPE = struct.Struct("<II")

# Multiplication counter for the complexity tests: x*y*z per matrix product,
# so the overhead is per call, not per entry. Each thread adds only to its
# own entry, so no update is lost between threads, and needs no lock.
_mul_ops: dict[int, int] = {}


def _count_muls(n: int) -> None:
    me = threading.get_ident()
    _mul_ops[me] = _mul_ops.get(me, 0) + n


def mul_op_count() -> int:
    return sum(list(_mul_ops.values()))


def reset_mul_op_count() -> None:
    _mul_ops.clear()


def to_signed(raw: int) -> int:
    """Two's-complement interpretation of a raw 64-bit word."""
    return raw - (1 << 64) if raw & SIGN_BIT else raw


FRAC_BITS = 20


@dataclass(frozen=True)
class FixedPointConfig:
    """Encoding parameters: f fractional bits inside the 64-bit ring.

    The invariant f < 32 leaves room for exactly one product of encoded
    values (2f fractional bits) before truncation is required.
    """

    frac_bits: int = FRAC_BITS

    def __post_init__(self):
        if not 0 < self.frac_bits < 32:
            raise ValueError("need 0 < frac_bits < 32")

    @property
    def scale(self) -> int:
        return 1 << self.frac_bits

    @property
    def max_magnitude(self) -> float:
        """Values with |v| >= this cannot be encoded."""
        return float(1 << (63 - self.frac_bits))


DEFAULT_CONFIG = FixedPointConfig()


def encode_raw(v: float) -> int:
    """round(v * 2^f) mod 2^64, rounding half away from zero."""
    if not math.isfinite(v) or abs(v) >= DEFAULT_CONFIG.max_magnitude:
        raise MagnitudeOverflow(f"|{v!r}| >= 2^{63 - FRAC_BITS}")
    x = v * DEFAULT_CONFIG.scale
    r = math.floor(x + 0.5) if x >= 0 else math.ceil(x - 0.5)
    return r & MASK


def _encode_array(x: np.ndarray) -> np.ndarray:
    """encode_raw over a float64 array: the same float64 steps give the
    same integers, and |v| < 2^(63-f) keeps them inside int64."""
    ok = np.abs(x) < DEFAULT_CONFIG.max_magnitude  # False for NaN
    if not ok.all():
        bad = float(x[~ok].flat[0])
        raise MagnitudeOverflow(f"|{bad!r}| >= 2^{63 - FRAC_BITS}")
    s = x * DEFAULT_CONFIG.scale
    r = np.where(s >= 0, np.floor(s + 0.5), np.ceil(s - 0.5))
    return r.astype(np.int64).view(np.uint64)


def decode_raw(raw: int, cfg: FixedPointConfig = DEFAULT_CONFIG) -> float:
    """Signed interpretation divided by 2^f."""
    return to_signed(raw & MASK) / cfg.scale


class RingMatrix:
    """Dense matrix of raw ring words: `arr` is a C-contiguous (rows, cols)
    uint64 array. Treat instances and their arrays as immutable; arrays
    decoded from the wire are read-only views of the received bytes."""

    __slots__ = ("rows", "cols", "arr")

    def __init__(self, rows: int, cols: int, data):
        """data: rows*cols words in [0, 2^64), row-major, list or array."""
        if rows < 1 or cols < 1:
            raise DimensionMismatch(f"degenerate shape {rows}x{cols}")
        arr = np.array(data, dtype=np.uint64)
        if arr.size != rows * cols:
            raise DimensionMismatch(
                f"data length {arr.size} != {rows}x{cols}")
        self.rows = rows
        self.cols = cols
        self.arr = arr.reshape(rows, cols)

    @classmethod
    def wrap(cls, arr: np.ndarray) -> "RingMatrix":
        """Adopt a C-contiguous 2-d uint64 array without copying it."""
        out = object.__new__(cls)
        out.rows, out.cols = arr.shape
        out.arr = arr
        return out

    @property
    def data(self) -> list[int]:
        """The words in row-major order, as a new list of ints."""
        return self.arr.ravel().tolist()

    # construction helpers

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RingMatrix":
        return cls(rows, cols, np.zeros(rows * cols, dtype=np.uint64))

    @classmethod
    def encode_rows(cls, values) -> "RingMatrix":
        """Encode a 2-d array of reals, or a nested sequence of them with
        one inner sequence per row."""
        try:
            x = np.ascontiguousarray(values, dtype=np.float64)
        except ValueError:
            raise DimensionMismatch("ragged input rows") from None
        if x.ndim != 2 or x.size == 0:
            raise DimensionMismatch(f"need nonempty 2-d input, got {x.shape}")
        return cls.wrap(_encode_array(x))

    @classmethod
    def column(cls, values) -> "RingMatrix":
        x = np.array(list(values), dtype=np.float64)
        return cls(len(x), 1, _encode_array(x))

    def __eq__(self, other) -> bool:
        return (isinstance(other, RingMatrix) and self.rows == other.rows
                and self.cols == other.cols
                and bool(np.array_equal(self.arr, other.arr)))

    def __hash__(self):
        return hash((self.rows, self.cols, self.arr.tobytes()))

    def __repr__(self):
        return f"RingMatrix({self.rows}x{self.cols})"

    # serialization: rows u32, cols u32, then row-major LE u64 words.
    # This exact layout is the wire payload.

    def to_bytes(self) -> bytes:
        return _SHAPE.pack(self.rows, self.cols) + self.arr.astype(
            _WORD, copy=False).tobytes()

    @classmethod
    def from_bytes(cls, buf) -> "RingMatrix":
        """Decode a payload (bytes or a memoryview of them) without copying
        the words."""
        if len(buf) < 8:
            raise DeserializeError("matrix header truncated")
        rows, cols = _SHAPE.unpack_from(buf, 0)
        n = rows * cols
        if rows < 1 or cols < 1:
            raise DeserializeError(f"bad shape {rows}x{cols}")
        if len(buf) != 8 + 8 * n:
            raise DeserializeError(
                f"payload is {len(buf)} bytes, expected {8 + 8 * n}")
        words = np.frombuffer(buf, _WORD, count=n, offset=8)
        return cls.wrap(words.astype(np.uint64, copy=False).reshape(
            rows, cols))


def _same_shape(a: RingMatrix, b: RingMatrix, op: str) -> None:
    if a.rows != b.rows or a.cols != b.cols:
        raise DimensionMismatch(f"{a.rows}x{a.cols} {op} {b.rows}x{b.cols}")


def mat_add(a: RingMatrix, b: RingMatrix) -> RingMatrix:
    _same_shape(a, b, "+")
    return RingMatrix.wrap(a.arr + b.arr)


def mat_sub(a: RingMatrix, b: RingMatrix) -> RingMatrix:
    _same_shape(a, b, "-")
    return RingMatrix.wrap(a.arr - b.arr)


def mat_mul_raw(a: RingMatrix, b: RingMatrix) -> RingMatrix:
    """Exact ring product; the result carries 2f fractional bits."""
    if a.cols != b.rows:
        raise DimensionMismatch(
            f"{a.rows}x{a.cols} by {b.rows}x{b.cols}")
    _count_muls(a.rows * a.cols * b.cols)
    return RingMatrix.wrap(a.arr @ b.arr)


def mat_hadamard(a: RingMatrix, b: RingMatrix) -> RingMatrix:
    """Entrywise ring product."""
    _same_shape(a, b, "o")
    _count_muls(a.rows * a.cols)
    return RingMatrix.wrap(a.arr * b.arr)


def mat_mul_scalar(a: RingMatrix, raw: int) -> RingMatrix:
    """Entrywise product with a public ring constant."""
    return RingMatrix.wrap(a.arr * np.uint64(raw & MASK))


def shift_right(a: RingMatrix, bits: int) -> RingMatrix:
    """Arithmetic right shift of the signed interpretation, entrywise."""
    return RingMatrix.wrap((a.arr.view(np.int64) >> bits).view(np.uint64))


def shift_left(a: RingMatrix, bits: int) -> RingMatrix:
    return RingMatrix.wrap(a.arr << np.uint64(bits))


def add_const(a: RingMatrix, raw: int) -> RingMatrix:
    return RingMatrix.wrap(a.arr + np.uint64(raw & MASK))


def transpose(a: RingMatrix) -> RingMatrix:
    return RingMatrix.wrap(np.ascontiguousarray(a.arr.T))


def uniform_matrix(rows: int, cols: int, rng) -> RingMatrix:
    """Entries i.i.d. uniform over the full 64-bit range."""
    return RingMatrix.wrap(rng.u64_array(rows * cols).reshape(rows, cols))
