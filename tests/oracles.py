"""Checks the tests hold the program's results against.

The program calls none of these: they reassemble shares, verify triples,
decode words to floats, hash a batch schedule, record a session's
received frames (once a test installs the recorder) and pick frames out
of them, give the loss whose gradient the logistic engines follow, state
the triple-free protocol's leak and simulate a view from it. They work on
the words with numpy's wrapping uint64 operators and call none of
secregress's ring arithmetic or hashing, so the code they check cannot
also be the code that checks.
"""

import hashlib
import json

import numpy as np

from secregress.baseline import SIGMOID_POLY
from secregress.errors import DimensionMismatch, InvalidPartyCount
from secregress.ring import FRAC_BITS, MASK, RingMatrix, uniform_matrix
from secregress.transport import Frame, Transcript


def reconstruct(shares: list[RingMatrix]) -> RingMatrix:
    if not shares:
        raise InvalidPartyCount("no shares to reconstruct from")
    acc = shares[0]
    for s in shares[1:]:
        if s.rows != acc.rows or s.cols != acc.cols:
            raise DimensionMismatch(f"share shapes differ: {acc.rows}x"
                                    f"{acc.cols} vs {s.rows}x{s.cols}")
        acc = RingMatrix.wrap(acc.arr + s.arr)
    return acc


def share_raw(raw: int, n: int, rng) -> list[int]:
    """Split one ring word into n additive parts."""
    if n < 2:
        raise InvalidPartyCount(f"need at least 2 parties, got {n}")
    parts = [rng.u64() for _ in range(n - 1)]
    parts.append((raw - sum(parts)) & MASK)
    return parts


def verify_triple(t, blocks: int = 1) -> bool:
    """W = U V blockwise: block j of W is block j of U times block j of V,
    the blocks stacked one under the other."""
    u, v, w = t.u.arr, t.v.arr, t.w0.arr + t.w1.arr
    uv = np.matmul(u.reshape(blocks, -1, u.shape[1]),
                   v.reshape(blocks, u.shape[1], -1))
    return np.array_equal(uv.reshape(-1, uv.shape[2]), w)


def truncate(a: RingMatrix) -> RingMatrix:
    """Restore f fractional bits after a product (entries carry 2f bits)
    by the arithmetic shift of the signed words."""
    return RingMatrix.wrap(
        (a.arr.view(np.int64) >> FRAC_BITS).view(np.uint64))


def decode_rows(m: RingMatrix, frac_bits: int = FRAC_BITS) -> list:
    """m's entries as floats, row by row; frac_bits overrides f for
    entries still carrying 2f bits."""
    return (m.arr.view(np.int64) / float(1 << frac_bits)).tolist()


def weights(res) -> list[float]:
    """A TrainResult's model (or model block) as floats, decoded from its
    f-bit words."""
    raw = np.array(res.weights_raw, dtype=np.uint64)
    return (raw.view(np.int64) / float(1 << FRAC_BITS)).tolist()


def schedule_hash(schedule: list[list[int]]) -> str:
    """What a schedule hash is: SHA-256 of the whole schedule's compact
    JSON under the schedule domain tag."""
    canon = json.dumps(schedule, separators=(",", ":"))
    return hashlib.sha256(
        b"secregress.schedule.v1\x00" + canon.encode()).hexdigest()


class RecordedTranscript(Transcript):
    """A transcript that also keeps every received frame body, for the
    tests that read the frames themselves. Its digest and length are the
    plain transcript's."""

    def __init__(self):
        super().__init__()
        self._bodies: list[bytes] = []

    def extend(self, bodies) -> None:
        bodies = [bytes(body) for body in bodies]
        self._bodies.extend(bodies)
        super().extend(bodies)

    @property
    def frames(self) -> list[Frame]:
        return [Frame.decode(b) for b in self._bodies]


def record(*sessions):
    """Make each session keep its received frames: install a
    RecordedTranscript in place of its transcript. Only before any
    traffic, so the recorded frames are the whole transcript."""
    for s in sessions:
        if len(s.transcript):
            raise ValueError(
                f"party {s.party_id} has already received frames")
        s.transcript = RecordedTranscript()
    return list(sessions)


def select(transcript, kind: int | None = None, round_no: int | None = None,
           sender: int | None = None) -> list:
    """The frames of a recorded transcript that match every given field."""
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


# --- the triple-free protocol's leak (secregress.smm, smm2) ---
# Even and odd are 0-based: even = indices 0, 2, 4, ...


def cols_even(m: RingMatrix) -> RingMatrix:
    return RingMatrix.wrap(np.ascontiguousarray(m.arr[:, 0::2]))


def cols_odd(m: RingMatrix) -> RingMatrix:
    return RingMatrix.wrap(np.ascontiguousarray(m.arr[:, 1::2]))


def rows_even(m: RingMatrix) -> RingMatrix:
    return RingMatrix.wrap(np.ascontiguousarray(m.arr[0::2]))


def rows_odd(m: RingMatrix) -> RingMatrix:
    return RingMatrix.wrap(np.ascontiguousarray(m.arr[1::2]))


def _pad_even(m: RingMatrix, axis: int) -> RingMatrix:
    """m with one zero row (axis 0) or column (axis 1) appended when that
    dimension is odd, as the protocol pads its operands."""
    if m.arr.shape[axis] % 2 == 0:
        return m
    pad = [(0, 0), (0, 0)]
    pad[axis] = (0, 1)
    return RingMatrix.wrap(np.pad(m.arr, pad))


def leakage_of_x(x_mat: RingMatrix) -> RingMatrix:
    """The aggregate of X that the triple-free protocol hands to the peer."""
    xt = _pad_even(x_mat, 1)
    return RingMatrix.wrap(cols_even(xt).arr + cols_odd(xt).arr)


def leakage_of_y(y_mat: RingMatrix) -> RingMatrix:
    yt = _pad_even(y_mat, 0)
    return RingMatrix.wrap(rows_even(yt).arr - rows_odd(yt).arr)


def simulate_view(leak: RingMatrix, role: str, rng) -> tuple[RingMatrix, RingMatrix]:
    """Sample a view identical in distribution to the real received frames.

    role "x": we simulate the X-holder, who saw (Y1, Y2) with Y1 uniform and
    Y2 pinned to (Y1_e - Y1_o) + leak. role "y": the Y-holder saw (X1, X2)
    with X1 uniform and X2 = (X1_e + X1_o) - leak. Matching the real joint
    distribution from the leak alone is what certifies that these aggregates
    are the whole leak.
    """
    if role == "x":
        y1 = uniform_matrix(2 * leak.rows, leak.cols, rng)
        y2 = RingMatrix.wrap(
            rows_even(y1).arr - rows_odd(y1).arr + leak.arr)
        return y1, y2
    if role == "y":
        x1 = uniform_matrix(leak.rows, 2 * leak.cols, rng)
        x2 = RingMatrix.wrap(
            cols_even(x1).arr + cols_odd(x1).arr - leak.arr)
        return x1, x2
    raise ValueError("role must be 'x' or 'y'")
