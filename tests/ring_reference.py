"""Pure-Python reference for the ring kernels.

Every function works on Python ints, one word at a time, with an explicit
reduction mod 2^64: the arithmetic is exact by construction, so these are
the oracle that the numpy RingMatrix kernels must match word for word.
A matrix here is a (rows, cols, words) triple, words row-major.
"""

from __future__ import annotations

import struct

MASK = (1 << 64) - 1
SIGN_BIT = 1 << 63


def to_signed(raw: int) -> int:
    return raw - (1 << 64) if raw & SIGN_BIT else raw


def add(a, b):
    return a[0], a[1], [(x + y) & MASK for x, y in zip(a[2], b[2])]


def sub(a, b):
    return a[0], a[1], [(x - y) & MASK for x, y in zip(a[2], b[2])]


def hadamard(a, b):
    return a[0], a[1], [(x * y) & MASK for x, y in zip(a[2], b[2])]


def matmul(a, b):
    rows, inner, words_a = a
    _, cols, words_b = b
    out = []
    for r in range(rows):
        row = words_a[r * inner:(r + 1) * inner]
        for c in range(cols):
            out.append(sum(x * y for x, y in
                           zip(row, words_b[c::cols])) & MASK)
    return rows, cols, out


def mul_scalar(a, raw):
    return a[0], a[1], [(x * (raw & MASK)) & MASK for x in a[2]]


def add_const(a, raw):
    return a[0], a[1], [(x + raw) & MASK for x in a[2]]


def shift_right(a, bits):
    return a[0], a[1], [(to_signed(x) >> bits) & MASK for x in a[2]]


def shift_left(a, bits):
    return a[0], a[1], [(x << bits) & MASK for x in a[2]]


def transpose(a):
    rows, cols, words = a
    out = []
    for c in range(cols):
        out.extend(words[c::cols])
    return cols, rows, out


def to_bytes(a):
    rows, cols, words = a
    return struct.pack("<II", rows, cols) + struct.pack(
        f"<{len(words)}Q", *words)


def from_bytes(buf):
    rows, cols = struct.unpack_from("<II", buf, 0)
    return rows, cols, list(struct.unpack_from(f"<{rows * cols}Q", buf, 8))
