"""Machinery shared by the secure training engines.

Numeric layout: weight shares are held at 2f fractional bits. Once per
iteration the shares are shifted down to f bits (party 0 adds the rounding
constant first, making the reconstructed value round to nearest up to a
small carry), every product contribution then accumulates raw at 2f, and
exactly one such shift follows each aggregate. Keeping the truncations to
one per aggregate is what holds the drift against the float64 reference to
a few 2^-f ulps per coordinate over a whole run.

Truncating by shifting each share locally is only sound for two shares:
with more, the signed representatives overshoot the true value by a
multiple of 2^64 with constant probability. So for n >= 3 every truncation
first re-shares the aggregate down to parties 0 and 1 (each other party
splits its share into two fresh uniform summands, one per holder), and the
two holders shift locally. Truncated quantities therefore always live on
the first two parties; inputs stay shared over everyone. The privacy trade
is explicit: those two parties would have to collude to reconstruct an
aggregate, versus all n for the input shares.

Pairwise products run between fixed pairs in a fixed global order; parties
outside a pair burn the same round number (and, under the triple variant,
the same pool slot) so that round counters and triple streams stay aligned
without extra communication.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..baseline import SIGMOID_POLY
from ..errors import InvalidPartyCount, PolicyMismatch
from ..ring import (
    FRAC_BITS,
    RingMatrix,
    add_const,
    decode_raw,
    encode_raw,
    mat_add,
    mat_hadamard,
    mat_mul_raw,
    mat_mul_scalar,
    mat_sub,
    shift_left,
    shift_right,
    uniform_matrix,
)
from ..smm import (
    TriplePool,
    smm1,
    smm2_elem_x,
    smm2_elem_y,
    smm2_x,
    smm2_y,
)
from ..transport import KIND_CONTROL, KIND_SHARE_DIST, KIND_W_SHARE
from .config import TrainingConfig

# Rounds 0..15 are reserved for setup traffic; _next_round starts above.
_FIRST_ROUND = 16


@dataclass
class TrainResult:
    """One party's outcome of a training run.

    weights is the full reconstructed model for row-partitioned runs and
    this party's own feature block for column-partitioned ones (the other
    blocks stay with their owners). weights_raw holds the same vector as
    f-bit ring words, the form manifests hash. iter_seconds (wall clock)
    and triple_seconds (this thread's CPU clock, so per-party figures stay
    additive when parties share an interpreter) are the only
    non-deterministic fields.
    """

    party_id: int
    weights: list[float]
    weights_raw: list[int]
    block_sizes: list[int] | None
    schedule: list[list[int]]
    owners: list[int] | None
    config_hash: str
    schedule_hash: str
    transcript_hash: str
    bytes_sent: int
    bytes_received: int
    frames_sent: int
    iter_seconds: list[float]
    triple_seconds: float


class _EngineBase:
    def __init__(self, session, config: TrainingConfig, task: str,
                 layout: str, pool: TriplePool | None = None,
                 round_base: int = 0):
        if session.n_parties < 2:
            raise InvalidPartyCount("training needs at least 2 parties")
        if task not in ("linear", "logistic"):
            raise ValueError(f"unknown task {task!r}")
        self.s = session
        self.cfg = config
        self.task = task
        self.layout = layout
        self.me = session.party_id
        self.n = session.n_parties
        self.f = FRAC_BITS
        # Offsetting every round lets several runs (CV folds) share one
        # connected session without frame collisions.
        self._round_base = round_base
        self._round = round_base + _FIRST_ROUND
        self._half = 1 << (self.f - 1)
        self._lr_word = config.lr_word()
        q0, q1, q2, q3 = (encode_raw(q) for q in SIGMOID_POLY)
        # q0 sits at 2f so it can be added straight into the 2f aggregate.
        self._coeff_words = (q0 << self.f, q1, q2, q3)
        if config.smm_variant == "smm1":
            self.pool = pool if pool is not None else TriplePool.from_seed(
                config.seed)
        else:
            self.pool = None

    # -- bookkeeping ---------------------------------------------------

    def _next_round(self) -> int:
        r = self._round
        self._round += 1
        return r

    def _shift(self, mat: RingMatrix, narrow: bool = False) -> RingMatrix:
        """Truncate the shared aggregate by f bits.

        With two shares each party shifts its own word, party 0 carrying the
        rounding constant so the reconstruction rounds to nearest. With more
        parties that local shift is unsound, so parties above 1 first
        re-share their word down to parties 0 and 1 as fresh uniform
        summands; pass narrow=True when the input is already held by the
        first two parties only (everyone else's share exactly zero) and the
        conversion round can be skipped.

        The local shift lands within 2*2^-f of the exact value (floor loss
        plus one carry) except with probability about |value|/2^64 per
        entry, when the two shares straddle a ring wrap and the result is
        off by 2^(64-f). Shifting once per aggregate, not once per product,
        keeps both the rounding drift and that risk to one draw.
        """
        if self.n > 2 and not narrow:
            r = self._next_round()
            if self.me >= 2:
                u = uniform_matrix(mat.rows, mat.cols, self.s.rng)
                self.s.send(0, KIND_SHARE_DIST, u, r)
                self.s.send(1, KIND_SHARE_DIST, mat_sub(mat, u), r)
                return RingMatrix.zeros(mat.rows, mat.cols)
            for j in range(2, self.n):
                part = self.s.recv(j, KIND_SHARE_DIST, r)
                if (part.rows, part.cols) != (mat.rows, mat.cols):
                    raise PolicyMismatch(
                        f"party {j} re-shared a {part.rows}x{part.cols} "
                        f"block where {mat.rows}x{mat.cols} was due")
                mat = mat_add(mat, part)
        if self.me == 0:
            mat = add_const(mat, self._half)
        return shift_right(mat, self.f)

    def _update(self, w_2f: RingMatrix, grad_2f: RingMatrix) -> RingMatrix:
        """w <- w - (alpha/B) * grad on 2f-bit shares.

        The f-bit rate word times the f-bit gradient lands exactly on the
        2f accumulator, so the step needs no truncation of its own.
        """
        grad_f = self._shift(grad_2f)
        return mat_sub(w_2f, mat_mul_scalar(grad_f, self._lr_word))

    # -- pairwise products ----------------------------------------------

    def _matmul_pair(self, a: int, b: int, dims: tuple[int, int, int],
                     mine: RingMatrix | None) -> RingMatrix | None:
        """Secure product between party a's matrix and party b's.

        Returns this party's raw 2f share, or None for bystanders, who
        still advance the round counter and the triple stream.
        """
        r = self._next_round()
        ti = self.cfg.smm_variant == "smm1"
        if self.me not in (a, b):
            if ti:
                self.pool.skip(*dims)
            return None
        side, peer = (0, b) if self.me == a else (1, a)
        if ti:
            half = self.pool.take(*dims, side=side)
            return smm1(self.s, peer, side, mine, half, r)
        return (smm2_x if side == 0 else smm2_y)(self.s, peer, mine, r)

    def _elem_pair(self, a: int, b: int, n_elems: int,
                   mine: RingMatrix | None) -> RingMatrix | None:
        """Elementwise analog of _matmul_pair; output stays at 2f bits."""
        r = self._next_round()
        ti = self.cfg.smm_variant == "smm1"
        if self.me not in (a, b):
            if ti:
                self.pool.skip_elem(n_elems)
            return None
        side, peer = (0, b) if self.me == a else (1, a)
        if ti:
            half = self.pool.take_elem(n_elems, side=side)
            return smm1(self.s, peer, side, mine, half, r, elementwise=True)
        return (smm2_elem_x if side == 0 else smm2_elem_y)(
            self.s, peer, mine, r)

    def _shared_product(self, lhs, left: RingMatrix | None, rhs,
                        right: RingMatrix | None,
                        dims: tuple[int, int, int]) -> RingMatrix:
        """This party's raw 2f share of the sum of L_a R_b over a in lhs,
        b in rhs, where L_a is party a's left operand and R_b party b's
        right one (each party passes its own).

        A term with a == b is a local product on that party; every other
        term is a pairwise secure product, run in loop order.
        """
        total = None
        for a in lhs:
            for b in rhs:
                if a == b:
                    out = mat_mul_raw(left, right) if self.me == a else None
                else:
                    mine = left if self.me == a else (
                        right if self.me == b else None)
                    out = self._matmul_pair(a, b, dims, mine)
                if out is not None:
                    total = out if total is None else mat_add(total, out)
        return total if total is not None else RingMatrix.zeros(
            dims[0], dims[2])

    # -- shared pipeline pieces -----------------------------------------

    def _sigmoid_from_zf(self, z_f: RingMatrix) -> RingMatrix:
        """Shares of q0 + q1 z + q2 z^2 + q3 z^3 at 2f bits, z given as
        f-bit shares.

        z^2 assembles from local squares plus doubled cross products over
        unordered party pairs, z^3 from the truncated z^2 against z over
        ordered pairs; each power costs one share-wise truncation.
        """
        q0w, q1w, q2w, q3w = self._coeff_words
        n_elems = z_f.rows
        # z comes out of a truncation, so only parties 0 and 1 hold real
        # shares; all cross terms live between those two.
        z2 = mat_hadamard(z_f, z_f)
        out = self._elem_pair(0, 1, n_elems, z_f if self.me < 2 else None)
        if out is not None:
            z2 = mat_add(z2, mat_mul_scalar(out, 2))
        z2_f = self._shift(z2, narrow=True)
        z3 = mat_hadamard(z2_f, z_f)
        for i, k in ((0, 1), (1, 0)):
            mine = z2_f if self.me == i else (z_f if self.me == k else None)
            out = self._elem_pair(i, k, n_elems, mine)
            if out is not None:
                z3 = mat_add(z3, out)
        z3_f = self._shift(z3, narrow=True)
        sig = mat_add(mat_mul_scalar(z_f, q1w), mat_mul_scalar(z3_f, q3w))
        if q2w:
            sig = mat_add(sig, mat_mul_scalar(z2_f, q2w))
        if self.me == 0:
            sig = add_const(sig, q0w)
        return sig

    def _error_2f(self, p_2f: RingMatrix, y_f: RingMatrix) -> RingMatrix:
        """prediction - label as 2f-bit shares; logistic first maps the
        prediction through the cubic sigmoid."""
        y_2f = shift_left(y_f, self.f)
        if self.task == "logistic":
            sig = self._sigmoid_from_zf(self._shift(p_2f))
            return mat_sub(sig, y_2f)
        return mat_sub(p_2f, y_2f)

    # -- setup / teardown exchanges --------------------------------------

    def _policy_exchange(self, fields: list[int]) -> list[list[int]]:
        """Round-0 all-to-all broadcast of local policy words."""
        mat = RingMatrix(1, len(fields),
                         [x & ((1 << 64) - 1) for x in fields])
        for p in range(self.n):
            if p != self.me:
                self.s.send(p, KIND_CONTROL, mat, self._round_base)
        rows = []
        for p in range(self.n):
            if p == self.me:
                rows.append(list(mat.data))
                continue
            got = self.s.recv(p, KIND_CONTROL, self._round_base)
            if got.rows != 1 or got.cols != len(fields):
                raise PolicyMismatch(
                    f"party {p} sent a {got.rows}x{got.cols} policy frame, "
                    f"expected 1x{len(fields)}")
            rows.append(list(got.data))
        return rows

    def _reveal_all(self, share: RingMatrix) -> RingMatrix:
        """All-to-all weight-share broadcast; everyone reconstructs."""
        r = self._next_round()
        for p in range(self.n):
            if p != self.me:
                self.s.send(p, KIND_W_SHARE, share, r)
        total = share
        for p in range(self.n):
            if p != self.me:
                total = mat_add(total, self.s.recv(p, KIND_W_SHARE, r))
        return total

    # -- result assembly --------------------------------------------------

    def _result(self, weights_mat: RingMatrix, block_sizes, schedule,
                owners, schedule_hash: str,
                iter_seconds: list[float]) -> TrainResult:
        raw = list(weights_mat.data)
        return TrainResult(
            party_id=self.me,
            weights=[decode_raw(x) for x in raw],
            weights_raw=raw,
            block_sizes=block_sizes,
            schedule=schedule,
            owners=owners,
            config_hash=self.cfg.config_digest(
                self.task, self.layout, self.n).hex(),
            schedule_hash=schedule_hash,
            transcript_hash=self.s.transcript.digest(),
            bytes_sent=self.s.bytes_sent,
            bytes_received=self.s.bytes_received,
            frames_sent=self.s.frames_sent,
            iter_seconds=iter_seconds,
            triple_seconds=self.pool.gen_seconds if self.pool else 0.0,
        )


class _IterTimer:
    """Per-iteration wall clock, one sample per loop pass."""

    def __init__(self):
        self.samples: list[float] = []
        self._t0 = None

    def start(self):
        self._t0 = time.perf_counter()

    def stop(self):
        self.samples.append(time.perf_counter() - self._t0)
