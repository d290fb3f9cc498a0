"""Fixed-point arithmetic over the ring of integers modulo 2^64.

Reals are encoded as round(v * 2^f) mod 2^64 with f = FRAC_BITS for every
run: share-wise truncation fails more often as f and the value bound grow,
so a safe f belongs to the format, not to a run. All protocol arithmetic
happens on the raw words with silent wrapping; two's-complement decode
recovers the signed value. A product of two f-bit encodings carries 2f
fractional bits until an explicit truncate. Pure Python ints are used on
purpose: wrapping is exact by construction and a 128-bit intermediate in the
inner product costs nothing extra.
"""

from __future__ import annotations

import math
import operator
import struct
import threading
from dataclasses import dataclass

from .errors import DeserializeError, DimensionMismatch, MagnitudeOverflow

MASK = (1 << 64) - 1
SIGN_BIT = 1 << 63

# Multiplication counter for the complexity tests. Incremented once per
# matrix product (by x*y*z), so the overhead is per call, not per entry.
_mul_ops = 0
_mul_ops_lock = threading.Lock()


def mul_op_count() -> int:
    return _mul_ops


def reset_mul_op_count() -> None:
    global _mul_ops
    with _mul_ops_lock:
        _mul_ops = 0


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


def decode_raw(raw: int, cfg: FixedPointConfig = DEFAULT_CONFIG,
               frac_bits: int | None = None) -> float:
    """Signed interpretation divided by 2^f.

    frac_bits overrides the config scale for values still carrying 2f bits.
    """
    f = cfg.frac_bits if frac_bits is None else frac_bits
    return to_signed(raw & MASK) / (1 << f)


class RingMatrix:
    """Dense row-major matrix of raw ring words. Treat instances as immutable."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: list[int]):
        if rows < 1 or cols < 1:
            raise DimensionMismatch(f"degenerate shape {rows}x{cols}")
        if len(data) != rows * cols:
            raise DimensionMismatch(
                f"data length {len(data)} != {rows}x{cols}")
        self.rows = rows
        self.cols = cols
        self.data = data

    # construction helpers

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RingMatrix":
        return cls(rows, cols, [0] * (rows * cols))

    @classmethod
    def identity(cls, n: int) -> "RingMatrix":
        one = 1 << FRAC_BITS
        data = [0] * (n * n)
        for i in range(n):
            data[i * n + i] = one
        return cls(n, n, data)

    @classmethod
    def encode_rows(cls, values) -> "RingMatrix":
        """Encode a nested sequence of reals, one inner sequence per row."""
        data = []
        rows = 0
        cols = None
        for row in values:
            row = list(row)
            if cols is None:
                cols = len(row)
            elif len(row) != cols:
                raise DimensionMismatch("ragged input rows")
            data.extend(encode_raw(float(v)) for v in row)
            rows += 1
        if rows == 0 or not cols:
            raise DimensionMismatch("empty input")
        return cls(rows, cols, data)

    @classmethod
    def column(cls, values) -> "RingMatrix":
        data = [encode_raw(float(v)) for v in values]
        return cls(len(data), 1, data)

    def decode_rows(self, frac_bits: int = FRAC_BITS) -> list[list[float]]:
        """frac_bits overrides f for entries still carrying 2f bits."""
        div = float(1 << frac_bits)
        out = []
        for r in range(self.rows):
            seg = self.data[r * self.cols:(r + 1) * self.cols]
            out.append([to_signed(w) / div for w in seg])
        return out

    def __eq__(self, other) -> bool:
        return (isinstance(other, RingMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.data == other.data)

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(self.data)))

    def __repr__(self):
        return f"RingMatrix({self.rows}x{self.cols})"

    # serialization: rows u32, cols u32, then row-major LE u64 words.
    # This exact layout is the wire payload.

    def to_bytes(self) -> bytes:
        return struct.pack("<II", self.rows, self.cols) + struct.pack(
            f"<{len(self.data)}Q", *self.data)

    @classmethod
    def from_bytes(cls, buf: bytes) -> "RingMatrix":
        if len(buf) < 8:
            raise DeserializeError("matrix header truncated")
        rows, cols = struct.unpack_from("<II", buf, 0)
        n = rows * cols
        if rows < 1 or cols < 1:
            raise DeserializeError(f"bad shape {rows}x{cols}")
        if len(buf) != 8 + 8 * n:
            raise DeserializeError(
                f"payload is {len(buf)} bytes, expected {8 + 8 * n}")
        return cls(rows, cols, list(struct.unpack_from(f"<{n}Q", buf, 8)))


def mat_add(a: RingMatrix, b: RingMatrix) -> RingMatrix:
    if a.rows != b.rows or a.cols != b.cols:
        raise DimensionMismatch(f"{a.rows}x{a.cols} + {b.rows}x{b.cols}")
    return RingMatrix(a.rows, a.cols,
                      [(x + y) & MASK for x, y in zip(a.data, b.data)])


def mat_sub(a: RingMatrix, b: RingMatrix) -> RingMatrix:
    if a.rows != b.rows or a.cols != b.cols:
        raise DimensionMismatch(f"{a.rows}x{a.cols} - {b.rows}x{b.cols}")
    return RingMatrix(a.rows, a.cols,
                      [(x - y) & MASK for x, y in zip(a.data, b.data)])


def mat_neg(a: RingMatrix) -> RingMatrix:
    return RingMatrix(a.rows, a.cols, [(-x) & MASK for x in a.data])


def mat_mul_raw(a: RingMatrix, b: RingMatrix) -> RingMatrix:
    """Exact ring product; the result carries 2f fractional bits.

    One mask per output entry is sound: sum(x_i*y_i) mod 2^64 equals the
    masked sum of masked products.
    """
    if a.cols != b.rows:
        raise DimensionMismatch(
            f"{a.rows}x{a.cols} by {b.rows}x{b.cols}")
    global _mul_ops
    with _mul_ops_lock:
        _mul_ops += a.rows * a.cols * b.cols
    bcols = [b.data[c::b.cols] for c in range(b.cols)]
    data = []
    mul = operator.mul
    for r in range(a.rows):
        row = a.data[r * a.cols:(r + 1) * a.cols]
        for col in bcols:
            data.append(sum(map(mul, row, col)) & MASK)
    return RingMatrix(a.rows, b.cols, data)


def mat_hadamard(a: RingMatrix, b: RingMatrix) -> RingMatrix:
    """Entrywise ring product."""
    if a.rows != b.rows or a.cols != b.cols:
        raise DimensionMismatch(f"{a.rows}x{a.cols} o {b.rows}x{b.cols}")
    global _mul_ops
    with _mul_ops_lock:
        _mul_ops += a.rows * a.cols
    return RingMatrix(a.rows, a.cols,
                      [(x * y) & MASK for x, y in zip(a.data, b.data)])


def mat_mul_scalar(a: RingMatrix, raw: int) -> RingMatrix:
    """Entrywise product with a public ring constant."""
    raw &= MASK
    return RingMatrix(a.rows, a.cols, [(x * raw) & MASK for x in a.data])


def shift_right(a: RingMatrix, bits: int) -> RingMatrix:
    """Arithmetic right shift of the signed interpretation, entrywise."""
    return RingMatrix(a.rows, a.cols,
                      [(to_signed(x) >> bits) & MASK for x in a.data])


def shift_left(a: RingMatrix, bits: int) -> RingMatrix:
    return RingMatrix(a.rows, a.cols, [(x << bits) & MASK for x in a.data])


def add_const(a: RingMatrix, raw: int) -> RingMatrix:
    raw &= MASK
    return RingMatrix(a.rows, a.cols, [(x + raw) & MASK for x in a.data])


def truncate(a: RingMatrix) -> RingMatrix:
    """Restore f fractional bits after a product (entries carry 2f bits)."""
    return shift_right(a, FRAC_BITS)


def transpose(a: RingMatrix) -> RingMatrix:
    data = []
    for c in range(a.cols):
        data.extend(a.data[c::a.cols])
    return RingMatrix(a.cols, a.rows, data)


def uniform_matrix(rows: int, cols: int, rng) -> RingMatrix:
    """Entries i.i.d. uniform over the full 64-bit range."""
    return RingMatrix(rows, cols, rng.u64_list(rows * cols))
