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


def pad_cols_even(m: RingMatrix) -> RingMatrix:
    if m.cols % 2 == 0:
        return m
    data = []
    for r in range(m.rows):
        data.extend(m.data[r * m.cols:(r + 1) * m.cols])
        data.append(0)
    return RingMatrix(m.rows, m.cols + 1, data)


def pad_rows_even(m: RingMatrix) -> RingMatrix:
    if m.rows % 2 == 0:
        return m
    return RingMatrix(m.rows + 1, m.cols, m.data + [0] * m.cols)


def cols_even(m: RingMatrix) -> RingMatrix:
    half = m.cols // 2
    data = []
    for r in range(m.rows):
        row = m.data[r * m.cols:(r + 1) * m.cols]
        data.extend(row[0::2])
    return RingMatrix(m.rows, half, data)


def cols_odd(m: RingMatrix) -> RingMatrix:
    half = m.cols // 2
    data = []
    for r in range(m.rows):
        row = m.data[r * m.cols:(r + 1) * m.cols]
        data.extend(row[1::2])
    return RingMatrix(m.rows, half, data)


def rows_even(m: RingMatrix) -> RingMatrix:
    half = m.rows // 2
    data = []
    for r in range(0, m.rows, 2):
        data.extend(m.data[r * m.cols:(r + 1) * m.cols])
    return RingMatrix(half, m.cols, data)


def rows_odd(m: RingMatrix) -> RingMatrix:
    half = m.rows // 2
    data = []
    for r in range(1, m.rows, 2):
        data.extend(m.data[r * m.cols:(r + 1) * m.cols])
    return RingMatrix(half, m.cols, data)


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


# --- protocol 1: Beaver masking ---


def smm1(session, peer: int, side: int, mine: RingMatrix, half: TripleHalf,
         round_no: int, elementwise: bool = False) -> RingMatrix:
    """This side's raw 2f share of X*Y (or X o Y when elementwise).

    Side 0 holds X, side 1 holds Y. Each side splits its input with the
    peer, masks both shares it then holds with its triple half, and opens
    D = X - U and E = Y - V; the product is W + U.E + D.V + D.E, with the
    public D.E term added on side 0 only.
    """
    own, other = (half.u, half.v) if side == 0 else (half.v, half.u)
    if (own.rows, own.cols) != (mine.rows, mine.cols):
        raise DimensionMismatch(
            f"triple is for {own.rows}x{own.cols}, "
            f"input is {mine.rows}x{mine.cols}")
    sent = uniform_matrix(mine.rows, mine.cols, session.rng)
    kept = mat_sub(mine, sent)
    session.send(peer, KIND_SHARE_DIST, sent, round_no)
    got = session.recv(peer, KIND_SHARE_DIST, round_no)
    if (got.rows, got.cols) != (other.rows, other.cols):
        raise DimensionMismatch(
            f"peer shared {got.rows}x{got.cols}, triple is for "
            f"{other.rows}x{other.cols}")
    x, y = (kept, got) if side == 0 else (got, kept)
    d_mine = mat_sub(x, half.u)
    e_mine = mat_sub(y, half.v)
    session.send(peer, KIND_SMM_D, d_mine, round_no)
    session.send(peer, KIND_SMM_E, e_mine, round_no)
    d = mat_add(d_mine, session.recv(peer, KIND_SMM_D, round_no))
    e = mat_add(e_mine, session.recv(peer, KIND_SMM_E, round_no))
    # looked up per call so a wrapped ring kernel sees every product
    op = mat_hadamard if elementwise else mat_mul_raw
    out = mat_add(half.w, mat_add(op(half.u, e), op(d, half.v)))
    return mat_add(out, op(d, e)) if side == 0 else out


# --- protocol 2: triple-free, leaks folded aggregates ---


def smm2_x(session, peer: int, x_mat: RingMatrix,
           round_no: int) -> RingMatrix:
    """A's side. Returns A's share M."""
    xt = pad_cols_even(x_mat)
    xp = uniform_matrix(xt.rows, xt.cols, session.rng)
    x1 = mat_add(xt, xp)
    x2 = mat_add(cols_even(xp), cols_odd(xp))
    session.send(peer, KIND_SMM_D, x1, round_no)
    session.send(peer, KIND_SMM_E, x2, round_no)
    y1 = session.recv(peer, KIND_SMM_D, round_no)
    y2 = session.recv(peer, KIND_SMM_E, round_no)
    if y1.rows != xt.cols or y2.rows * 2 != y1.rows or y2.cols != y1.cols:
        raise DimensionMismatch(
            f"peer frames {y1.rows}x{y1.cols} / {y2.rows}x{y2.cols} do not "
            f"fit a {xt.rows}x{xt.cols} left operand")
    return mat_add(mat_mul_raw(mat_add(xt, mat_mul_scalar(xp, 2)), y1),
                   mat_mul_raw(mat_add(x2, cols_odd(xp)), y2))


def smm2_y(session, peer: int, y_mat: RingMatrix,
           round_no: int) -> RingMatrix:
    """B's side. Returns B's share N."""
    yt = pad_rows_even(y_mat)
    yp = uniform_matrix(yt.rows, yt.cols, session.rng)
    y1 = mat_sub(yp, yt)
    y2 = mat_sub(rows_even(yp), rows_odd(yp))
    session.send(peer, KIND_SMM_D, y1, round_no)
    session.send(peer, KIND_SMM_E, y2, round_no)
    x1 = session.recv(peer, KIND_SMM_D, round_no)
    x2 = session.recv(peer, KIND_SMM_E, round_no)
    if x1.cols != yt.rows or x2.cols * 2 != x1.cols or x2.rows != x1.rows:
        raise DimensionMismatch(
            f"peer frames {x1.rows}x{x1.cols} / {x2.rows}x{x2.cols} do not "
            f"fit a {yt.rows}x{yt.cols} right operand")
    return mat_sub(mat_mul_raw(x1, mat_sub(mat_mul_scalar(yt, 2), yp)),
                   mat_mul_raw(x2, mat_add(y2, rows_even(yp))))


# --- elementwise products, one message round per call ---


def _pad_vec_even(vec: RingMatrix) -> RingMatrix:
    if vec.rows % 2 == 0:
        return vec
    return RingMatrix(vec.rows + 1, 1, vec.data + [0])


def smm2_elem_x(session, peer: int, vec: RingMatrix,
                round_no: int) -> RingMatrix:
    """Triple-free a o b; pairs of entries ride in 2x2 diagonal blocks.

    Leak to the peer: the vector a itself (per-block column sums hit the
    diagonal entries); leak to us: adjacent differences of b. Result at 2f,
    padded entry dropped.
    """
    if vec.cols != 1:
        raise DimensionMismatch("elementwise operands are column vectors")
    a = _pad_vec_even(vec)
    npairs = a.rows // 2
    rng = session.rng
    p = rng.u64_list(4 * npairs)  # per pair: p00 p01 p10 p11
    av = a.data
    mask = (1 << 64) - 1
    x1 = []
    x2 = []
    for j in range(npairs):
        a0, a1v = av[2 * j], av[2 * j + 1]
        p00, p01, p10, p11 = p[4 * j:4 * j + 4]
        x1.extend(((a0 + p00) & mask, p01, p10, (a1v + p11) & mask))
        x2.extend(((p00 + p01) & mask, (p10 + p11) & mask))
    session.send(peer, KIND_SMM_D, RingMatrix(a.rows, 2, x1), round_no)
    session.send(peer, KIND_SMM_E, RingMatrix(a.rows, 1, x2), round_no)
    y1 = session.recv(peer, KIND_SMM_D, round_no)
    y2 = session.recv(peer, KIND_SMM_E, round_no)
    if (y1.rows, y1.cols) != (a.rows, 1) or (y2.rows, y2.cols) != (npairs, 1):
        raise DimensionMismatch("peer frames do not fit the vector length")
    out = []
    for j in range(npairs):
        a0, a1v = av[2 * j], av[2 * j + 1]
        p00, p01, p10, p11 = p[4 * j:4 * j + 4]
        c0, c1 = y1.data[2 * j], y1.data[2 * j + 1]   # q - b per entry
        s = y2.data[j]                                # q0 - q1
        out.append(((a0 + 2 * p00) * c0 + 2 * p01 * c1
                    + (p00 + 2 * p01) * s) & mask)
        out.append((2 * p10 * c0 + (a1v + 2 * p11) * c1
                    + (p10 + 2 * p11) * s) & mask)
    return RingMatrix(vec.rows, 1, out[:vec.rows])


def smm2_elem_y(session, peer: int, vec: RingMatrix,
                round_no: int) -> RingMatrix:
    if vec.cols != 1:
        raise DimensionMismatch("elementwise operands are column vectors")
    b = _pad_vec_even(vec)
    npairs = b.rows // 2
    q = session.rng.u64_list(2 * npairs)
    bv = b.data
    mask = (1 << 64) - 1
    y1 = [(q[i] - bv[i]) & mask for i in range(b.rows)]
    y2 = [(q[2 * j] - q[2 * j + 1]) & mask for j in range(npairs)]
    session.send(peer, KIND_SMM_D, RingMatrix(b.rows, 1, y1), round_no)
    session.send(peer, KIND_SMM_E, RingMatrix(npairs, 1, y2), round_no)
    x1 = session.recv(peer, KIND_SMM_D, round_no)
    x2 = session.recv(peer, KIND_SMM_E, round_no)
    if (x1.rows, x1.cols) != (b.rows, 2) or (x2.rows, x2.cols) != (b.rows, 1):
        raise DimensionMismatch("peer frames do not fit the vector length")
    out = []
    for j in range(npairs):
        b0, b1v = bv[2 * j], bv[2 * j + 1]
        q0, q1 = q[2 * j], q[2 * j + 1]
        g00, g01 = x1.data[4 * j], x1.data[4 * j + 1]
        g10, g11 = x1.data[4 * j + 2], x1.data[4 * j + 3]
        h0, h1 = x2.data[2 * j], x2.data[2 * j + 1]
        t0 = (2 * b0 - q0) & mask
        t1 = (2 * b1v - q1) & mask
        s = (2 * q0 - q1) & mask   # y2 + q_even per block
        out.append((g00 * t0 + g01 * t1 - h0 * s) & mask)
        out.append((g10 * t0 + g11 * t1 - h1 * s) & mask)
    return RingMatrix(vec.rows, 1, out[:vec.rows])


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
    xt = pad_cols_even(x_mat)
    return mat_add(cols_even(xt), cols_odd(xt))


def leakage_of_y(y_mat: RingMatrix) -> RingMatrix:
    yt = pad_rows_even(y_mat)
    return mat_sub(rows_even(yt), rows_odd(yt))
