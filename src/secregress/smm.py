"""Secure two-party matrix multiplication.

Party A holds X (x by y), party B holds Y (y by z); they end with additive
shares M, N with M + N = X*Y exactly in the ring, the product carrying 2f
fractional bits. Two interchangeable protocols:

* smm1: Beaver masking against a precomputed triple (U, V, W=U*V) from a
  trusted initializer. One routine serves both sides and both the matrix
  and the elementwise product. Nothing about the inputs leaks; costs one
  triple and six frames per product.

* smm2_*: no triple. Each side blinds with a fresh uniform matrix and a
  folded even/odd combination of it; four frames. The savings are paid
  for with a characterized leak: B learns the adjacent-column sums
  X_e + X_o of A's input and A learns the adjacent-row differences
  Y_e - Y_o of B's. extract_leakage recovers exactly those aggregates from
  a received-frame transcript, and simulate_view reproduces the full view
  (the two frames a side receives; no product is revealed to either) from the
  leak alone, which is the sense in which nothing else leaks.

Elementwise variants compute a o b for vectors held by different parties in
one message round; the smm2 one packs pairs of entries into 2x2 blocks so
its leak stays the aggregate kind above (the vector itself on the X side,
adjacent differences on the Y side).

Every product returns the raw 2f share. Callers sum the products of one
aggregate and truncate once (see protocols.base._EngineBase._shift).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, TripleExhausted
from .ring import (
    RingMatrix,
    mat_add,
    mat_hadamard,
    mat_mul_raw,
    mat_mul_scalar,
    mat_sub,
    uniform_matrix,
)
from .transport import (
    KIND_SHARE_DIST,
    KIND_SMM_D,
    KIND_SMM_E,
    Frame,
)

# --- even/odd splits (0-based: even = indices 0, 2, 4, ...) ---


def _pad_even(m: RingMatrix, axis: int) -> RingMatrix:
    """m with one zero row (axis 0) or column (axis 1) appended when that
    dimension is odd."""
    if m.arr.shape[axis] % 2 == 0:
        return m
    pad = [(0, 0), (0, 0)]
    pad[axis] = (0, 1)
    return RingMatrix.wrap(np.pad(m.arr, pad))


def cols_even(m: RingMatrix) -> RingMatrix:
    return RingMatrix.wrap(np.ascontiguousarray(m.arr[:, 0::2]))


def cols_odd(m: RingMatrix) -> RingMatrix:
    return RingMatrix.wrap(np.ascontiguousarray(m.arr[:, 1::2]))


def rows_even(m: RingMatrix) -> RingMatrix:
    return RingMatrix.wrap(np.ascontiguousarray(m.arr[0::2]))


def rows_odd(m: RingMatrix) -> RingMatrix:
    return RingMatrix.wrap(np.ascontiguousarray(m.arr[1::2]))


# --- Beaver triples ---


@dataclass(frozen=True)
class TripleHalf:
    u: RingMatrix
    v: RingMatrix
    w: RingMatrix


@dataclass(frozen=True)
class Triple:
    """U (x by y), V (y by z), W = U*V raw in-ring, each split in two."""

    u1: RingMatrix
    u2: RingMatrix
    v1: RingMatrix
    v2: RingMatrix
    w1: RingMatrix
    w2: RingMatrix

    @property
    def dims(self) -> tuple[int, int, int]:
        return (self.u1.rows, self.u1.cols, self.v1.cols)

    def half(self, side: int) -> TripleHalf:
        if side == 0:
            return TripleHalf(self.u1, self.v1, self.w1)
        if side == 1:
            return TripleHalf(self.u2, self.v2, self.w2)
        raise ValueError("side must be 0 (x-holder) or 1 (y-holder)")


def generate_triple(x: int, y: int, z: int, rng) -> Triple:
    u = uniform_matrix(x, y, rng)
    v = uniform_matrix(y, z, rng)
    w = mat_mul_raw(u, v)
    u1 = uniform_matrix(x, y, rng)
    v1 = uniform_matrix(y, z, rng)
    w1 = uniform_matrix(x, z, rng)
    return Triple(u1, mat_sub(u, u1), v1, mat_sub(v, v1),
                  w1, mat_sub(w, w1))


def generate_elem_triple(n: int, rng) -> Triple:
    """n independent scalar triples packed as columns: w = u o v."""
    u = uniform_matrix(n, 1, rng)
    v = uniform_matrix(n, 1, rng)
    w = mat_hadamard(u, v)
    u1 = uniform_matrix(n, 1, rng)
    v1 = uniform_matrix(n, 1, rng)
    w1 = uniform_matrix(n, 1, rng)
    return Triple(u1, mat_sub(u, u1), v1, mat_sub(v, v1),
                  w1, mat_sub(w, w1))


def _half0(rng, u_shape: tuple[int, int], v_shape: tuple[int, int],
           w_shape: tuple[int, int]) -> TripleHalf:
    """Side 0's half of a triple, drawn straight from the triple's stream.

    Both generators above draw U and V first, then side 0's (U1, V1, W1);
    skipping the words of U and V lands on side 0's, with no ring product
    and no subtraction.
    """
    (ur, uc), (vr, vc), (wr, wc) = u_shape, v_shape, w_shape
    rng.skip(ur * uc + vr * vc)
    return TripleHalf(uniform_matrix(ur, uc, rng), uniform_matrix(vr, vc, rng),
                      uniform_matrix(wr, wc, rng))


def verify_triple(t: Triple, elementwise: bool = False) -> bool:
    u = mat_add(t.u1, t.u2)
    v = mat_add(t.v1, t.v2)
    w = mat_add(t.w1, t.w2)
    prod = mat_hadamard(u, v) if elementwise else mat_mul_raw(u, v)
    return prod == w


class TriplePool:
    """Hands out triples, or one side's half of them, by dimension.

    Seed-backed pools derive triple i for given dims from a fixed path, so
    two parties built from the same seed draw identical triples and each
    keeps its half; this stands in for the initializer's offline delivery.
    Asked for side 0 only, they derive just (U1, V1, W1); side 1's half
    needs U, V and W = U*V, so it is cut from the whole triple.
    Stocked pools (from_triples) replay the given triples FIFO and raise
    TripleExhausted when a requested shape runs out.
    """

    def __init__(self):
        self._rng = None
        self._stock: dict[tuple, list[Triple]] = {}
        self.consumed: dict[tuple, int] = {}
        # Offline-provisioning cost, kept apart from protocol time. Measured
        # on the thread CPU clock: party threads share the interpreter lock,
        # so a wall clock here would also count the peers' work and the
        # per-party figures would sum to more than the run itself.
        self.gen_seconds = 0.0

    @classmethod
    def from_seed(cls, seed) -> "TriplePool":
        from .rng import CounterDrbg
        pool = cls()
        pool._rng = seed if isinstance(seed, CounterDrbg) else CounterDrbg(
            seed, label="trusted-initializer")
        return pool

    @classmethod
    def from_triples(cls, triples: list[Triple]) -> "TriplePool":
        pool = cls()
        for t in triples:
            pool._stock.setdefault(t.dims, []).append(t)
        return pool

    def take(self, x: int, y: int, z: int,
             side: int | None = None) -> Triple | TripleHalf:
        """The next x by y by z triple; with side, only that side's half."""
        key = (x, y, z)
        n = self.consumed.get(key, 0)
        self.consumed[key] = n + 1
        if self._rng is None:
            stock = self._stock.get(key)
            if not stock:
                raise TripleExhausted(f"no triple of shape {x}x{y}x{z} left")
            out = stock.pop(0)
            return out if side is None else out.half(side)
        t0 = time.thread_time()
        rng = self._rng.child("triple", x, y, z, n)
        if side == 0:
            out = _half0(rng, (x, y), (y, z), (x, z))
        else:
            out = generate_triple(x, y, z, rng)
            if side is not None:
                out = out.half(side)
        self.gen_seconds += time.thread_time() - t0
        return out

    def take_elem(self, n_elems: int,
                  side: int | None = None) -> Triple | TripleHalf:
        """The next elementwise triple over n_elems entries, or one half."""
        key = ("elem", n_elems)
        n = self.consumed.get(key, 0)
        self.consumed[key] = n + 1
        if self._rng is None:
            raise TripleExhausted("stocked pools hold no elementwise triples")
        t0 = time.thread_time()
        rng = self._rng.child("etriple", n_elems, n)
        if side == 0:
            out = _half0(rng, (n_elems, 1), (n_elems, 1), (n_elems, 1))
        else:
            out = generate_elem_triple(n_elems, rng)
            if side is not None:
                out = out.half(side)
        self.gen_seconds += time.thread_time() - t0
        return out

    def skip(self, x: int, y: int, z: int) -> None:
        """Advance past one triple without using it.

        A party sitting out a pairwise product still calls this so its
        derivation counters stay aligned with the two parties that did
        consume the triple.
        """
        key = (x, y, z)
        self.consumed[key] = self.consumed.get(key, 0) + 1
        if self._rng is None:
            stock = self._stock.get(key)
            if not stock:
                raise TripleExhausted(f"no triple of shape {x}x{y}x{z} left")
            stock.pop(0)

    def skip_elem(self, n_elems: int) -> None:
        key = ("elem", n_elems)
        self.consumed[key] = self.consumed.get(key, 0) + 1


# --- running products as steps ---
#
# Each product is a step generator: it draws its masks, yields the frames
# it sends to the peer as [(kind, matrix), ...], and is resumed with the
# peer's frames of the same kinds, in the same order; its return value is
# this side's raw 2f share. run_stage drives any number of them together:
# one write per peer per step, then the receives in product order.


def run_stage(session, products) -> list[RingMatrix]:
    """Run (peer, round_no, steps) products side by side; return each
    one's share, in the order given.

    Every product is opened (its masks drawn) in the order given; at each
    step all their frames go out, one send_many per peer, before any
    frame is received.
    """
    out: list = [None] * len(products)
    live = [(i, peer, r, steps, next(steps))
            for i, (peer, r, steps) in enumerate(products)]
    while live:
        batches: dict[int, list] = {}
        for _i, peer, r, _steps, frames in live:
            batches.setdefault(peer, []).extend(
                (kind, mat, r) for kind, mat in frames)
        for peer, items in batches.items():
            session.send_many(peer, items)
        nxt = []
        for i, peer, r, steps, frames in live:
            got = [session.recv(peer, kind, r) for kind, _mat in frames]
            try:
                nxt.append((i, peer, r, steps, steps.send(got)))
            except StopIteration as done:
                out[i] = done.value
        live = nxt
    return out


def _run_alone(session, peer: int, round_no: int, steps) -> RingMatrix:
    return run_stage(session, [(peer, round_no, steps)])[0]


# --- protocol 1: Beaver masking ---


def smm1_steps(rng, side: int, mine: RingMatrix, half: TripleHalf,
               elementwise: bool = False):
    """This side's raw 2f share of X*Y (or X o Y when elementwise).

    Side 0 holds X, side 1 holds Y. Each side splits its input with the
    peer, masks both shares it then holds with its triple half, and opens
    D = X - U and E = Y - V; the product is W + U.E + D.V + D.E, with the
    public D.E term added on side 0 only. Two steps.
    """
    own, other = (half.u, half.v) if side == 0 else (half.v, half.u)
    if (own.rows, own.cols) != (mine.rows, mine.cols):
        raise DimensionMismatch(
            f"triple is for {own.rows}x{own.cols}, "
            f"input is {mine.rows}x{mine.cols}")
    sent = uniform_matrix(mine.rows, mine.cols, rng)
    kept = mat_sub(mine, sent)
    (got,) = yield [(KIND_SHARE_DIST, sent)]
    if (got.rows, got.cols) != (other.rows, other.cols):
        raise DimensionMismatch(
            f"peer shared {got.rows}x{got.cols}, triple is for "
            f"{other.rows}x{other.cols}")
    x, y = (kept, got) if side == 0 else (got, kept)
    d_mine = mat_sub(x, half.u)
    e_mine = mat_sub(y, half.v)
    d_peer, e_peer = yield [(KIND_SMM_D, d_mine), (KIND_SMM_E, e_mine)]
    d = mat_add(d_mine, d_peer)
    e = mat_add(e_mine, e_peer)
    # looked up per call so a wrapped ring kernel sees every product
    op = mat_hadamard if elementwise else mat_mul_raw
    out = mat_add(half.w, mat_add(op(half.u, e), op(d, half.v)))
    return mat_add(out, op(d, e)) if side == 0 else out


def smm1(session, peer: int, side: int, mine: RingMatrix, half: TripleHalf,
         round_no: int, elementwise: bool = False) -> RingMatrix:
    """One smm1_steps product on its own."""
    return _run_alone(session, peer, round_no,
                      smm1_steps(session.rng, side, mine, half, elementwise))


# --- protocol 2: triple-free, leaks folded aggregates ---


def smm2_x_steps(rng, x_mat: RingMatrix):
    """A's side. Returns A's share M."""
    xt = _pad_even(x_mat, 1)
    xp = uniform_matrix(xt.rows, xt.cols, rng)
    x1 = mat_add(xt, xp)
    x2 = mat_add(cols_even(xp), cols_odd(xp))
    y1, y2 = yield [(KIND_SMM_D, x1), (KIND_SMM_E, x2)]
    if y1.rows != xt.cols or y2.rows * 2 != y1.rows or y2.cols != y1.cols:
        raise DimensionMismatch(
            f"peer frames {y1.rows}x{y1.cols} / {y2.rows}x{y2.cols} do not "
            f"fit a {xt.rows}x{xt.cols} left operand")
    return mat_add(mat_mul_raw(mat_add(xt, mat_mul_scalar(xp, 2)), y1),
                   mat_mul_raw(mat_add(x2, cols_odd(xp)), y2))


def smm2_y_steps(rng, y_mat: RingMatrix):
    """B's side. Returns B's share N."""
    yt = _pad_even(y_mat, 0)
    yp = uniform_matrix(yt.rows, yt.cols, rng)
    y1 = mat_sub(yp, yt)
    y2 = mat_sub(rows_even(yp), rows_odd(yp))
    x1, x2 = yield [(KIND_SMM_D, y1), (KIND_SMM_E, y2)]
    if x1.cols != yt.rows or x2.cols * 2 != x1.cols or x2.rows != x1.rows:
        raise DimensionMismatch(
            f"peer frames {x1.rows}x{x1.cols} / {x2.rows}x{x2.cols} do not "
            f"fit a {yt.rows}x{yt.cols} right operand")
    return mat_sub(mat_mul_raw(x1, mat_sub(mat_mul_scalar(yt, 2), yp)),
                   mat_mul_raw(x2, mat_add(y2, rows_even(yp))))


def smm2_x(session, peer: int, x_mat: RingMatrix,
           round_no: int) -> RingMatrix:
    return _run_alone(session, peer, round_no,
                      smm2_x_steps(session.rng, x_mat))


def smm2_y(session, peer: int, y_mat: RingMatrix,
           round_no: int) -> RingMatrix:
    return _run_alone(session, peer, round_no,
                      smm2_y_steps(session.rng, y_mat))


# --- elementwise products, one message round each ---


def smm2_elem_x_steps(rng, vec: RingMatrix):
    """Triple-free a o b; pairs of entries ride in 2x2 diagonal blocks.

    Leak to the peer: the vector a itself (per-block column sums hit the
    diagonal entries); leak to us: adjacent differences of b. Result at 2f,
    padded entry dropped.
    """
    if vec.cols != 1:
        raise DimensionMismatch("elementwise operands are column vectors")
    a = _pad_even(vec, 0).arr[:, 0]
    n = len(a)
    # one 2x2 block [[p00, p01], [p10, p11]] per pair, as rows 2j and 2j+1
    p = rng.u64_array(2 * n).reshape(n, 2)
    x1 = p.copy()
    x1[0::2, 0] += a[0::2]
    x1[1::2, 1] += a[1::2]
    y1, y2 = yield [
        (KIND_SMM_D, RingMatrix.wrap(x1)),
        (KIND_SMM_E, RingMatrix.wrap((p[:, 0] + p[:, 1]).reshape(n, 1)))]
    if (y1.rows, y1.cols) != (n, 1) or (y2.rows, y2.cols) != (n // 2, 1):
        raise DimensionMismatch("peer frames do not fit the vector length")
    # per block row: (a + 2p) against the pair's (q - b), plus the fold of
    # p against q0 - q1
    c = np.repeat(y1.arr.reshape(n // 2, 2), 2, axis=0)
    s = np.repeat(y2.arr[:, 0], 2)
    g = x1 + p
    out = g[:, 0] * c[:, 0] + g[:, 1] * c[:, 1] + (p[:, 0] + 2 * p[:, 1]) * s
    return RingMatrix.wrap(out[:vec.rows].reshape(vec.rows, 1))


def smm2_elem_y_steps(rng, vec: RingMatrix):
    if vec.cols != 1:
        raise DimensionMismatch("elementwise operands are column vectors")
    b = _pad_even(vec, 0).arr[:, 0]
    n = len(b)
    q = rng.u64_array(n)
    x1, x2 = yield [
        (KIND_SMM_D, RingMatrix.wrap((q - b).reshape(n, 1))),
        (KIND_SMM_E, RingMatrix.wrap((q[0::2] - q[1::2]).reshape(n // 2, 1)))]
    if (x1.rows, x1.cols) != (n, 2) or (x2.rows, x2.cols) != (n, 1):
        raise DimensionMismatch("peer frames do not fit the vector length")
    # per block row: the peer's 2x2 block against the pair's 2b - q, less
    # its fold against 2 q0 - q1
    t = np.repeat((2 * b - q).reshape(n // 2, 2), 2, axis=0)
    s = np.repeat(2 * q[0::2] - q[1::2], 2)
    g = x1.arr
    out = g[:, 0] * t[:, 0] + g[:, 1] * t[:, 1] - x2.arr[:, 0] * s
    return RingMatrix.wrap(out[:vec.rows].reshape(vec.rows, 1))


def smm2_elem_x(session, peer: int, vec: RingMatrix,
                round_no: int) -> RingMatrix:
    return _run_alone(session, peer, round_no,
                      smm2_elem_x_steps(session.rng, vec))


def smm2_elem_y(session, peer: int, vec: RingMatrix,
                round_no: int) -> RingMatrix:
    return _run_alone(session, peer, round_no,
                      smm2_elem_y_steps(session.rng, vec))


# --- leakage characterization ---


@dataclass(frozen=True)
class LeakageReport:
    protocol: str                 # "smm1" or "smm2"
    role: str | None              # role of the party whose view this is
    leaked: RingMatrix | None     # what that view reveals about the peer


def extract_leakage(frames: list[Frame]) -> LeakageReport:
    """Compute the leak carried by one protocol instance's received frames.

    Triple-based instances start with a SHARE_DIST frame and leak nothing.
    Triple-free instances are a SMM_D/SMM_E pair whose shapes say which side
    we were; the folded aggregate of the peer's input falls straight out.
    """
    from .errors import MalformedTranscript

    frames = [f for f in frames if f.kind in
              (KIND_SHARE_DIST, KIND_SMM_D, KIND_SMM_E)]
    if not frames:
        raise MalformedTranscript("no protocol frames")
    if any(f.kind == KIND_SHARE_DIST for f in frames):
        return LeakageReport("smm1", None, None)
    if (len(frames) != 2 or frames[0].kind != KIND_SMM_D
            or frames[1].kind != KIND_SMM_E):
        raise MalformedTranscript(
            "expected one SMM_D then one SMM_E frame, got "
            + ", ".join(f.describe() for f in frames))
    p, q = frames[0].matrix, frames[1].matrix
    if p.rows == 2 * q.rows and p.cols == q.cols:
        # we received the right-operand frames, so we held X
        leak = mat_sub(q, mat_sub(rows_even(p), rows_odd(p)))
        return LeakageReport("smm2", "x", leak)
    if p.cols == 2 * q.cols and p.rows == q.rows:
        leak = mat_sub(mat_add(cols_even(p), cols_odd(p)), q)
        return LeakageReport("smm2", "y", leak)
    raise MalformedTranscript(
        f"frame shapes {p.rows}x{p.cols} / {q.rows}x{q.cols} fit no side")


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
        y2 = mat_add(mat_sub(rows_even(y1), rows_odd(y1)), leak)
        return y1, y2
    if role == "y":
        x1 = uniform_matrix(leak.rows, 2 * leak.cols, rng)
        x2 = mat_sub(mat_add(cols_even(x1), cols_odd(x1)), leak)
        return x1, x2
    raise ValueError("role must be 'x' or 'y'")


def leakage_of_x(x_mat: RingMatrix) -> RingMatrix:
    """The aggregate of X that the triple-free protocol hands to the peer."""
    xt = _pad_even(x_mat, 1)
    return mat_add(cols_even(xt), cols_odd(xt))


def leakage_of_y(y_mat: RingMatrix) -> RingMatrix:
    yt = _pad_even(y_mat, 0)
    return mat_sub(rows_even(yt), rows_odd(yt))
