"""Secure two-party matrix multiplication.

Party A holds X, party B holds Y; they end with additive shares M, N with
M + N = X*Y exactly in the ring, the product carrying 2f fractional bits.
Every product is blockwise (ring.matmul): X stacks k blocks of x by
y one under the other, Y stacks k blocks of y by z, and block j of the
product is block j of X times block j of Y; k = 1 is the plain matrix
product. Two interchangeable protocols:

* smm1_steps: Beaver masking against a precomputed triple (U, V, W=U*V)
  from a trusted initializer (triple_halves hands each party its own
  halves). Nothing about the inputs leaks; costs one triple and six
  frames per product. The triples are commodity triples (Beaver, STOC
  1997; Du & Atallah, ACSAC 2001): side 0 holds (U, 0, W0) and side 1
  (0, V, W1), so each side holds only its own mask. The six frames still
  leak nothing. Each side receives the peer's re-share (a fresh uniform
  share of the peer's input) and the peer's D and E contributions. One of
  those two is the share this side sent itself in the re-share (side 1's
  D contribution is side 0's re-share, and side 0's E contribution side
  1's); the other is masked by a mask this side never holds (U for side
  1, V for side 0). The re-share and the echoed share carry nothing the
  product needs: with commodity halves, D = X - U from side 0 and
  E = Y - V from side 1 are enough, one frame each way. The one-round
  form drops both once the benchmark's frame model may change.

* smm2_x_steps / smm2_y_steps: no triple. Each side blinds with a fresh
  uniform matrix and a folded even/odd combination of it; four frames.
  The savings are paid for with a characterized leak: B learns the
  adjacent-column sums X_e + X_o of A's input and A learns the
  adjacent-row differences Y_e - Y_o of B's. extract_leakage recovers
  exactly those aggregates from a received-frame transcript, and a
  simulator (tests/oracles.py, simulate_view) reproduces the full view
  (the two frames a side receives; no product is revealed to either) from
  the leak alone, which is the sense in which nothing else leaks. Each
  side's frames fold only within its own blocks: columns never cross a
  block, and smm2_y_steps refuses blocks of odd height. So the leak of a
  blockwise product is the stack of its blocks' leaks.

An elementwise product a o b of two n-vectors held by different parties
is one such blockwise product. Under smm1 it is n blocks of 1 by 1
against an n-block triple: smm1_steps with blocks = n. Under smm2
elementwise_steps lays it out: each pair (a_2j, a_2j+1) sits on the
diagonal of a 2 by 2 block, against the pair (b_2j, b_2j+1) as a 2 by 1
column, a zero entry padding odd n. The smm2 argument above then covers
it unchanged: the column sums of a diagonal block are its diagonal, so
the Y side learns the vector a itself, and the row difference of a
column block is b_2j - b_2j+1, so the X side learns the adjacent
differences of b.

Every product returns the raw 2f share. Callers sum the products of one
aggregate and truncate once (see protocols.base._EngineBase._shift).

The online steps work on bare uint64 arrays (operands, frames, shares);
RingMatrix appears only in the offline triples and the leakage tools.
run_stage is the one driver for both protocols: the engines hand it a
stage from their per-fold tape (protocols.base._EngineBase._tape), and it
writes each peer one batch per step and takes each peer's batch with one
ProtocolSession.recv_many.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .ring import RingMatrix, mat_mul_raw, mat_sub, matmul, uniform_matrix
from .rng import CounterDrbg
from .transport import (
    KIND_SHARE_DIST,
    KIND_SMM_D,
    KIND_SMM_E,
    Frame,
)

# --- Beaver triples ---


@dataclass(frozen=True)
class TripleHalf:
    u: RingMatrix
    v: RingMatrix
    w: RingMatrix


@dataclass(frozen=True)
class Triple:
    """U, V and W = U*V raw in-ring (see generate_triple), each split in
    two."""

    u1: RingMatrix
    u2: RingMatrix
    v1: RingMatrix
    v2: RingMatrix
    w1: RingMatrix
    w2: RingMatrix

    def half(self, side: int) -> TripleHalf:
        if side == 0:
            return TripleHalf(self.u1, self.v1, self.w1)
        if side == 1:
            return TripleHalf(self.u2, self.v2, self.w2)
        raise ValueError("side must be 0 (x-holder) or 1 (y-holder)")


def _zeros(rows: int, cols: int) -> RingMatrix:
    return RingMatrix.wrap(np.zeros((rows, cols), dtype=np.uint64))


def generate_triple(x: int, y: int, z: int, rng, blocks: int = 1) -> Triple:
    """A commodity triple: U (k*x by y), V (k*y by z) and W = U*V over
    k = blocks stacked blocks. An elementwise triple of n entries is n
    blocks of 1 by 1.

    The stream holds U, then V, then R (k*x by z). Side 0's half is
    (U, 0, W0) and side 1's is (0, V, W1): each side holds its own mask
    only. The side whose mask has more entries (side 0 when x*y >= y*z)
    takes W - R, the other R, so the other side's half needs neither the
    larger mask nor a ring product (triple_halves).
    """
    u = uniform_matrix(blocks * x, y, rng)
    v = uniform_matrix(blocks * y, z, rng)
    r = uniform_matrix(blocks * x, z, rng)
    w = mat_sub(mat_mul_raw(u, v, blocks), r)
    w0, w1 = (w, r) if x * y >= y * z else (r, w)
    return Triple(u, _zeros(u.rows, u.cols), _zeros(v.rows, v.cols), v,
                  w0, w1)


def _lighter_half(rng, side: int, x: int, y: int, z: int,
                  blocks: int) -> TripleHalf:
    """The half of the side whose mask is the smaller, drawn straight from
    the triple's stream: its own mask and R, the larger mask's words
    skipped without generating them."""
    if side == 0:
        u = uniform_matrix(blocks * x, y, rng)
        rng.skip(blocks * y * z)
        v = _zeros(blocks * y, z)
    else:
        rng.skip(blocks * x * y)
        u = _zeros(blocks * x, y)
        v = uniform_matrix(blocks * y, z, rng)
    return TripleHalf(u, v, uniform_matrix(blocks * x, z, rng))


def triple_halves(seed, plan, party: int):
    """This party's halves of the triples a product plan consumes, in order.

    The trusted initializer's offline delivery: plan is the ordered
    (a, b, shape, elementwise) iterable of pairwise products. The engines
    pass their stage tapes' plans, one iteration's products repeated;
    protocols.config.product_plan lists the same products for a whole
    run. Both come from protocols.config.iteration_stages. Triple k of a
    given shape is derived from its own path under the seed, so every
    party's halves come from the same triples; a party yields a half only
    for the products it is in (side 0 when it holds the left operand,
    side 1 the right). An elementwise product of n entries takes an
    n-block triple of 1 by 1 blocks (elementwise_steps). The side with
    the larger mask derives U, V and W = U*V (generate_triple) and keeps
    its half; the other side draws only its own mask and R, skipping the
    larger mask's words. Lazy: each half is derived when drawn.
    """
    root = CounterDrbg(seed, label="trusted-initializer")
    counts: dict[tuple, int] = {}
    for a, b, shape, elementwise in plan:
        key = ("elem", shape) if elementwise else shape
        k = counts.get(key, 0)
        counts[key] = k + 1
        if party not in (a, b):
            continue
        if elementwise:
            rng = root.child("etriple", shape, k)
            (x, y, z), blocks = (1, 1, 1), shape
        else:
            rng = root.child("triple", *shape, k)
            (x, y, z), blocks = shape, 1
        side = 0 if party == a else 1
        if (x * y >= y * z) == (side == 0):
            yield generate_triple(x, y, z, rng, blocks).half(side)
        else:
            yield _lighter_half(rng, side, x, y, z, blocks)


# --- running products as steps ---
#
# Each product is a step generator on bare uint64 arrays: it draws its
# masks, yields the frames it sends to the peer as [(kind, array), ...],
# and is resumed with the arrays of the peer's frames of the same kinds,
# in the same order; its return value is this side's raw 2f share.
# run_stage drives any number of them together: one write per peer per
# step, then one batched receive per peer.


def run_stage(session, base: int, lanes, steps) -> list[np.ndarray]:
    """Run products side by side as one stage; return each one's share, in
    the order of steps.

    steps holds one step generator per product. lanes lists, per peer,
    (peer, [(product, round offset), ...]) in a fixed order: every
    product sits in the lane of its peer, and its frames carry round
    base + offset. Every product is opened (its masks drawn) in the
    order of steps. At each step all frames go out, one send_many per
    peer, lane by lane; then each lane's frames come back through one
    recv_many, which records them in the transcript in lane order.
    """
    sent = [next(steps_k) for steps_k in steps]
    out: list = [None] * len(steps)
    live = len(steps)
    while live:
        for peer, slots in lanes:
            items = [(kind, a, base + off) for k, off in slots
                     for kind, a in sent[k]]
            if items:
                session.send_many(peer, items)
        got: list = [None] * len(steps)
        for peer, slots in lanes:
            arrays = session.recv_many(peer, [
                (kind, base + off) for k, off in slots
                for kind, _a in sent[k]])
            at = 0
            for k, _off in slots:
                got[k] = arrays[at:at + len(sent[k])]
                at += len(sent[k])
        for k, steps_k in enumerate(steps):
            if sent[k]:
                try:
                    sent[k] = steps_k.send(got[k])
                except StopIteration as done:
                    out[k] = done.value
                    sent[k] = ()
                    live -= 1
    return out


def _masked(rng, shape) -> np.ndarray:
    """A fresh uniform matrix of the given shape."""
    return rng.u64_array(shape[0] * shape[1]).reshape(shape)


def _padded(a: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """a with zero rows and columns appended up to rows by cols (a twentieth
    of np.pad's cost on these small matrices)."""
    out = np.zeros((rows, cols), dtype=np.uint64)
    out[:a.shape[0], :a.shape[1]] = a
    return out


# --- protocol 1: Beaver masking ---


def smm1_steps(rng, side: int, mine: np.ndarray, half: TripleHalf,
               blocks: int = 1):
    """This side's raw 2f share of X*Y, blockwise over blocks.

    Side 0 holds X, side 1 holds Y. Each side splits its input with the
    peer, masks both shares it then holds with its triple half, and opens
    D = X - U and E = Y - V; the product is W + U.E + D.V + D.E, with the
    public D.E term added on side 0 only. Two steps.
    """
    u, v, w = half.u.arr, half.v.arr, half.w.arr
    own, other = (u, v) if side == 0 else (v, u)
    if own.shape != mine.shape:
        raise DimensionMismatch(
            f"triple is for {own.shape[0]}x{own.shape[1]}, "
            f"input is {mine.shape[0]}x{mine.shape[1]}")
    sent = _masked(rng, mine.shape)
    kept = mine - sent
    (got,) = yield [(KIND_SHARE_DIST, sent)]
    if got.shape != other.shape:
        raise DimensionMismatch(
            f"peer shared {got.shape[0]}x{got.shape[1]}, triple is for "
            f"{other.shape[0]}x{other.shape[1]}")
    x, y = (kept, got) if side == 0 else (got, kept)
    d_mine = x - u
    e_mine = y - v
    d_peer, e_peer = yield [(KIND_SMM_D, d_mine), (KIND_SMM_E, e_mine)]
    d = d_mine + d_peer
    e = e_mine + e_peer
    out = w + (matmul(u, e, blocks) + matmul(d, v, blocks))
    return out + matmul(d, e, blocks) if side == 0 else out


# --- protocol 2: triple-free, leaks folded aggregates ---
#
# Even and odd are 0-based (even = indices 0, 2, 4, ...).


def smm2_x_steps(rng, x: np.ndarray, blocks: int = 1):
    """A's side of X*Y, blockwise over blocks. Returns A's share M."""
    if x.shape[1] % 2:
        x = _padded(x, len(x), x.shape[1] + 1)
    rows, cols = x.shape
    p = _masked(rng, x.shape)
    p_odd = p[:, 1::2]
    fold = p[:, 0::2] + p_odd
    masked = x + p
    y1, y2 = yield [(KIND_SMM_D, masked), (KIND_SMM_E, fold)]
    if (len(y1) != cols * blocks or len(y2) * 2 != len(y1)
            or y2.shape[1] != y1.shape[1]):
        raise DimensionMismatch(
            f"peer frames {y1.shape[0]}x{y1.shape[1]} / "
            f"{y2.shape[0]}x{y2.shape[1]} do not fit a {rows}x{cols} left "
            f"operand in {blocks} blocks")
    return (matmul(masked + p, y1, blocks)  # X + 2P
            + matmul(fold + p_odd, y2, blocks))


def smm2_y_steps(rng, y: np.ndarray, blocks: int = 1):
    """B's side of X*Y, blockwise over blocks. Returns B's share N.

    A single block of odd height gets a zero row; stacked blocks must each
    have an even height, since a zero row at the foot of the stack would
    fold rows of different blocks together.
    """
    rows = len(y)
    if blocks > 1 and (rows % blocks or rows // blocks % 2):
        raise DimensionMismatch(
            f"{rows} rows are not {blocks} blocks of an even height")
    if rows % 2:
        y = _padded(y, rows + 1, y.shape[1])
    q = _masked(rng, y.shape)
    q_even = q[0::2]
    fold = q_even - q[1::2]
    masked = q - y
    x1, x2 = yield [(KIND_SMM_D, masked), (KIND_SMM_E, fold)]
    if (x1.shape[1] * blocks != len(y) or x2.shape[1] * 2 != x1.shape[1]
            or len(x2) != len(x1)):
        raise DimensionMismatch(
            f"peer frames {x1.shape[0]}x{x1.shape[1]} / "
            f"{x2.shape[0]}x{x2.shape[1]} do not fit a "
            f"{len(y)}x{y.shape[1]} right operand in {blocks} blocks")
    return (matmul(x1, y - masked, blocks)  # 2Y - Q
            - matmul(x2, fold + q_even, blocks))


# --- elementwise products as blockwise ones ---


def elementwise_steps(rng, side: int, vec: np.ndarray):
    """This side's smm2 raw 2f share of a o b, for column vectors a (side 0)
    and b (side 1) of one length n: pairs on the diagonals of 2 by 2
    blocks against 2 by 1 columns, a zero entry padding odd n and cut from
    the result (see the module docstring)."""
    if vec.shape[1] != 1:
        raise DimensionMismatch("elementwise operands are column vectors")
    n = len(vec)
    k = (n + 1) // 2
    if side == 0:
        x = np.zeros((2 * k, 2), dtype=np.uint64)
        x[0:n:2, 0] = vec[0::2, 0]
        x[1:n:2, 1] = vec[1::2, 0]
        out = yield from smm2_x_steps(rng, x, k)
    else:
        y = vec if n % 2 == 0 else _padded(vec, n + 1, 1)
        out = yield from smm2_y_steps(rng, y, k)
    if out.shape != (2 * k, 1):
        raise DimensionMismatch("peer frames do not fit the vector length")
    return out[:n]


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
        leak = q.arr - (p.arr[0::2] - p.arr[1::2])
        return LeakageReport("smm2", "x", RingMatrix.wrap(leak))
    if p.cols == 2 * q.cols and p.rows == q.rows:
        leak = p.arr[:, 0::2] + p.arr[:, 1::2] - q.arr
        return LeakageReport("smm2", "y", RingMatrix.wrap(leak))
    raise MalformedTranscript(
        f"frame shapes {p.rows}x{p.cols} / {q.rows}x{q.cols} fit no side")
