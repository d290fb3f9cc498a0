"""Fixed-point arithmetic over the ring of integers modulo 2^64.

Reals are encoded as round(v * 2^f) mod 2^64 with f = FRAC_BITS for every
run: share-wise truncation fails more often as f and the value bound grow,
so a safe f belongs to the format, not to a run. All protocol arithmetic
happens on the raw words with silent wrapping; two's-complement decode
recovers the signed value. A product of two f-bit encodings carries 2f
fractional bits until an explicit truncate.

A ring matrix is a C-contiguous (rows, cols) numpy uint64 array.
Unsigned 64-bit numpy arithmetic wraps modulo 2^64, which is exactly the
ring: every sum, difference and product, and every partial sum of a matrix
product, keeps its low 64 bits, so the words equal those of exact integer
arithmetic reduced mod 2^64 (tests/ring_reference.py is that integer
arithmetic, and the tests hold the two to the same words). The arithmetic
shift reads the same bits as int64.

The training loop runs on those bare arrays with numpy's own operators;
the one ring operation it calls by name is matmul, which also counts the
multiplications. The public API is RingMatrix, which wraps one such array
at the package's edges (the wire payload through to_bytes / from_bytes,
the offline triples, the leakage tools; anything else reads its .arr),
the encoding (encode_raw, decode_raw, RingMatrix.encode_rows) and the
counted products: matmul, and mat_mul_raw on RingMatrix operands, the
triple dealer's one product.
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
# own one-element cell, so no update is lost between threads, and needs no
# lock; the cells outlive their threads.
_mul_cells: list[list[int]] = []
_mine = threading.local()


def _count_muls(n: int) -> None:
    try:
        _mine.cell[0] += n
    except AttributeError:
        _mine.cell = [n]
        _mul_cells.append(_mine.cell)


def mul_op_count() -> int:
    return sum(cell[0] for cell in list(_mul_cells))


FRAC_BITS = 20


# Every run encodes at FRAC_BITS; FixedPointConfig stays because
# perfbench/check.py imports it.
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


# The one format every run encodes in; perfbench/check.py builds its twin
# from TrainingConfig.frac_bits.
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
    """Two's-complement interpretation divided by 2^f. cfg stays because
    perfbench/check.py passes it."""
    raw &= MASK
    return (raw - (1 << 64) if raw & SIGN_BIT else raw) / cfg.scale


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

    def __eq__(self, other) -> bool:
        return (isinstance(other, RingMatrix) and self.rows == other.rows
                and self.cols == other.cols
                and bool(np.array_equal(self.arr, other.arr)))

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


def matmul(a: np.ndarray, b: np.ndarray, blocks: int = 1) -> np.ndarray:
    """Exact ring product of two arrays; the result carries 2f fractional
    bits.

    With blocks = k, a and b each stack k equal blocks one under the other
    (x by y and y by z), and block j of the result is block j of a times
    block j of b: k*x*y*z multiplications. The caller fits the shapes
    (mat_mul_raw checks them).
    """
    rows, inner = a.shape
    cols = b.shape[1]
    _count_muls(rows * inner * cols)
    # One block skips the reshapes of the stacked form; that is about 10%
    # of an smm2 matrix-product pair.
    if blocks == 1:
        return a @ b
    # Blocks of one row and one column (an entrywise product of two
    # columns) are a broadcast product, about a third of the stacked
    # matmul's time at n = 16.
    if blocks == rows and inner == 1:
        return a * b
    return np.matmul(a.reshape(blocks, -1, inner),
                     b.reshape(blocks, inner, cols)).reshape(rows, cols)


def mat_mul_raw(a: RingMatrix, b: RingMatrix, blocks: int = 1) -> RingMatrix:
    """matmul on RingMatrix operands, shapes checked."""
    if blocks < 1 or a.rows % blocks or a.cols * blocks != b.rows:
        raise DimensionMismatch(
            f"{a.rows}x{a.cols} by {b.rows}x{b.cols}"
            + (f" in {blocks} blocks" if blocks != 1 else ""))
    return RingMatrix.wrap(matmul(a.arr, b.arr, blocks))


def uniform_matrix(rows: int, cols: int, rng) -> RingMatrix:
    """Entries i.i.d. uniform over the full 64-bit range."""
    return RingMatrix.wrap(rng.u64_array(rows * cols).reshape(rows, cols))
