"""Checks the tests hold the program's results against.

None of these runs inside a training run: they reassemble shares, verify
triples, decode words to floats, pick frames out of a transcript, and give
the loss whose gradient the logistic engines follow.
"""

import numpy as np

from secregress.baseline import SIGMOID_POLY
from secregress.errors import DimensionMismatch, InvalidPartyCount
from secregress.ring import (
    FRAC_BITS,
    RingMatrix,
    mat_add,
    mat_hadamard,
    mat_mul_raw,
    shift_right,
)


def reconstruct(shares: list[RingMatrix]) -> RingMatrix:
    if not shares:
        raise InvalidPartyCount("no shares to reconstruct from")
    acc = shares[0]
    for s in shares[1:]:
        if s.rows != acc.rows or s.cols != acc.cols:
            raise DimensionMismatch(f"share shapes differ: {acc.rows}x"
                                    f"{acc.cols} vs {s.rows}x{s.cols}")
        acc = mat_add(acc, s)
    return acc


def verify_triple(t, elementwise: bool = False) -> bool:
    u = mat_add(t.u1, t.u2)
    v = mat_add(t.v1, t.v2)
    w = mat_add(t.w1, t.w2)
    prod = mat_hadamard(u, v) if elementwise else mat_mul_raw(u, v)
    return prod == w


def truncate(a: RingMatrix) -> RingMatrix:
    """Restore f fractional bits after a product (entries carry 2f bits)."""
    return shift_right(a, FRAC_BITS)


def decode_rows(m: RingMatrix, frac_bits: int = FRAC_BITS) -> list:
    """m's entries as floats, row by row; frac_bits overrides f for
    entries still carrying 2f bits."""
    return (m.arr.view(np.int64) / float(1 << frac_bits)).tolist()


def select(transcript, kind: int | None = None, round_no: int | None = None,
           sender: int | None = None) -> list:
    out = []
    for f in transcript.frames:
        if kind is not None and f.kind != kind:
            continue
        if round_no is not None and f.round_no != round_no:
            continue
        if sender is not None and f.sender != sender:
            continue
        out.append(f)
    return out


def surrogate_loss(z, y) -> float:
    """Antiderivative of poly_sigmoid(z) - y; exists only for the gradient
    check, its z-derivative is exactly the training residual."""
    q0, q1, q2, q3 = SIGMOID_POLY
    z = np.asarray(z, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    per = (q0 * z + q1 * z ** 2 / 2 + q2 * z ** 3 / 3 + q3 * z ** 4 / 4
           - y * z)
    return float(np.mean(per))
