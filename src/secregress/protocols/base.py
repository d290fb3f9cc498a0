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

Pairwise products run between fixed pairs in a fixed global order, in
stages: all the products one step of the pipeline needs (the prediction
terms of every block, the two cross terms of z^3, every block's gradient)
are opened together, each party writes each peer all of a step's frames
at once, and only then receives, so a stage costs one message round
however many products it holds. Each product still takes its own round
number; parties outside a pair burn that round number so that round
counters stay aligned without extra communication. Under the triple
variant each party draws, in order, only the triple halves of the products
it is in: the dealer (smm.triple_halves) walks the run's product plan
(config.product_plan) and leaves the bystanders out.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..baseline import SIGMOID_POLY
from ..errors import InvalidPartyCount, PolicyMismatch, TripleExhausted
from ..ring import (
    FRAC_BITS,
    MASK,
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
from ..sharing import share_matrix
from ..smm import (
    elementwise_steps,
    run_stage,
    smm1_steps,
    smm2_x_steps,
    smm2_y_steps,
    triple_halves,
)
from ..transport import KIND_CONTROL, KIND_SHARE_DIST, KIND_W_SHARE
from .config import TrainingConfig, product_plan

# Rounds 0..15 are reserved for setup traffic; _next_round starts above.
_FIRST_ROUND = 16


@dataclass
class TrainResult:
    """One party's outcome of a training run.

    weights is the full reconstructed model for row-partitioned runs and
    this party's own feature block for column-partitioned ones (the other
    blocks stay with their owners). weights_raw holds the same vector as
    f-bit ring words, the form manifests hash. iter_seconds (wall clock)
    is the only non-deterministic field.
    """

    party_id: int
    weights: list[float]
    weights_raw: list[int]
    block_sizes: list[int] | None
    owners: list[int] | None
    config_hash: str
    schedule_hash: str
    transcript_hash: str
    iter_seconds: list[float]


class _EngineBase:
    """State and steps the training engines share.

    halves is, under the triple variant, this party's triple halves in
    draw order (smm.triple_halves over the run's product plan). When it is
    None, run derives them lazily from the config seed once the policy
    exchange has fixed the shapes.
    """

    layout: str  # "horizontal" or "vertical", set by each engine

    def __init__(self, session, config: TrainingConfig, task: str = "linear",
                 halves=None, round_base: int = 0):
        if session.n_parties < 2:
            raise InvalidPartyCount("training needs at least 2 parties")
        if task not in ("linear", "logistic"):
            raise ValueError(f"unknown task {task!r}")
        self.s = session
        self.cfg = config
        self.task = task
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
        self._halves = iter(halves) if halves is not None else None

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

    def _deal(self, widths: list[int]) -> None:
        """Start the lazy triple-half stream when none was handed in."""
        if self.cfg.smm_variant == "smm1" and self._halves is None:
            self._halves = triple_halves(
                self.cfg.seed,
                product_plan(self.cfg, self.task, self.layout, widths),
                self.me)

    # -- pairwise products ----------------------------------------------

    def _stage(self, products) -> list[RingMatrix | None]:
        """Run pairwise secure products side by side as one stage.

        products: (a, b, mine, shape, elementwise) per product, where a
        holds the left operand, b the right one, mine is this party's
        operand (or None), and shape is (x, y, z) for a matrix product or
        the entry count for an elementwise one. Each product takes the next
        round number in the order given, bystanders included; under the
        triple variant each product this party is in draws its next triple
        half. Those products then run together (smm.run_stage). Returns
        this party's raw 2f share per product, None where it is a
        bystander.
        """
        ti = self.cfg.smm_variant == "smm1"
        mine_at, runs = [], []
        for k, (a, b, mine, shape, elementwise) in enumerate(products):
            r = self._next_round()
            if self.me not in (a, b):
                continue
            side, peer = (0, b) if self.me == a else (1, a)
            if ti:
                half = next(self._halves, None)
                if half is None:
                    raise TripleExhausted(
                        f"no triple half left for the {a}-{b} product "
                        f"of shape {shape}")
                steps = smm1_steps(self.s.rng, side, mine, half,
                                   mine.rows if elementwise else 1)
            elif elementwise:
                steps = elementwise_steps(self.s.rng, side, mine)
            else:
                steps = (smm2_x_steps if side == 0
                         else smm2_y_steps)(self.s.rng, mine)
            mine_at.append(k)
            runs.append((peer, r, steps))
        out: list = [None] * len(products)
        for k, share in zip(mine_at, run_stage(self.s, runs)):
            out[k] = share
        return out

    def _shared_products(self, *sums) -> list[RingMatrix]:
        """This party's raw 2f share of each sum, all in one stage.

        Each sum is (lhs, left, rhs, right, dims): the sum of L_a R_b over
        a in lhs, b in rhs, where L_a is party a's left operand and R_b
        party b's right one (each party passes its own). A term with
        a == b is a local product on that party; every other term is a
        pairwise secure product, opened in loop order.
        """
        totals: list = [None] * len(sums)

        def add(k, term):
            totals[k] = term if totals[k] is None else mat_add(totals[k], term)

        products, owner = [], []
        for k, (lhs, left, rhs, right, dims) in enumerate(sums):
            for a in lhs:
                for b in rhs:
                    if a != b:
                        mine = left if self.me == a else (
                            right if self.me == b else None)
                        products.append((a, b, mine, dims, False))
                        owner.append(k)
                    elif self.me == a:
                        add(k, mat_mul_raw(left, right))
        for k, share in zip(owner, self._stage(products)):
            if share is not None:
                add(k, share)
        return [RingMatrix.zeros(dims[0], dims[2]) if total is None
                else total for total, (*_, dims) in zip(totals, sums)]

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
        (out,) = self._stage(
            [(0, 1, z_f if self.me < 2 else None, n_elems, True)])
        if out is not None:
            z2 = mat_add(z2, mat_mul_scalar(out, 2))
        z2_f = self._shift(z2, narrow=True)
        z3 = mat_hadamard(z2_f, z_f)
        for out in self._stage(
                [(i, k, z2_f if self.me == i else (
                    z_f if self.me == k else None), n_elems, True)
                 for i, k in ((0, 1), (1, 0))]):
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
        """Round-0 all-to-all broadcast of local policy words.

        The config hash word rides along as the last word; a party whose
        word differs was launched with a different config. Returns every
        party's fields, in party order, without it.
        """
        hash_word = self.cfg.hash_word(self.task, self.layout, self.n)
        mat = RingMatrix(1, len(fields) + 1,
                         [x & MASK for x in fields] + [hash_word])
        for p in range(self.n):
            if p != self.me:
                self.s.send(p, KIND_CONTROL, mat, self._round_base)
        rows = []
        for p in range(self.n):
            if p == self.me:
                rows.append(mat.data)
                continue
            got = self.s.recv(p, KIND_CONTROL, self._round_base)
            if got.rows != 1 or got.cols != mat.cols:
                raise PolicyMismatch(
                    f"party {p} sent a {got.rows}x{got.cols} policy frame, "
                    f"expected 1x{mat.cols}")
            rows.append(got.data)
        for p, row in enumerate(rows):
            if row[-1] != hash_word:
                raise PolicyMismatch(
                    f"party {p} was launched with a different config")
        return [row[:-1] for row in rows]

    def _share_out(self, owner: int, kinds, mats) -> list[RingMatrix]:
        """This party's shares of the owner's matrices, one round each.

        The owner (the one party passing mats) splits each matrix over
        all parties and writes every peer its shares at once; the others
        receive theirs, one frame of the given kind per matrix.
        """
        rounds = [self._next_round() for _ in kinds]
        if self.me != owner:
            return [self.s.recv(owner, kind, r)
                    for kind, r in zip(kinds, rounds)]
        shares = [share_matrix(m, self.n, self.s.rng) for m in mats]
        for p in range(self.n):
            if p != self.me:
                self.s.send_many(p, [(kind, sh[p], r) for kind, sh, r
                                     in zip(kinds, shares, rounds)])
        return [sh[self.me] for sh in shares]

    def _open(self, share: RingMatrix, receivers) -> RingMatrix | None:
        """Open a shared matrix to the receivers in one round.

        Every party sends its share to each receiver but itself; each
        receiver sums its own share and everything it gets and returns the
        value. Parties outside receivers return None.
        """
        r = self._next_round()
        for p in receivers:
            if p != self.me:
                self.s.send(p, KIND_W_SHARE, share, r)
        if self.me not in receivers:
            return None
        total = share
        for p in range(self.n):
            if p == self.me:
                continue
            got = self.s.recv(p, KIND_W_SHARE, r)
            if (got.rows, got.cols) != (share.rows, share.cols):
                raise PolicyMismatch(
                    f"party {p} opened a {got.rows}x{got.cols} share where "
                    f"{share.rows}x{share.cols} was due")
            total = mat_add(total, got)
        return total

    # -- result assembly --------------------------------------------------

    def _result(self, weights_mat: RingMatrix, block_sizes, owners,
                schedule_hash: str, iter_seconds: list[float]) -> TrainResult:
        raw = weights_mat.data
        return TrainResult(
            party_id=self.me,
            weights=[decode_raw(x) for x in raw],
            weights_raw=raw,
            block_sizes=block_sizes,
            owners=owners,
            config_hash=self.cfg.config_digest(
                self.task, self.layout, self.n).hex(),
            schedule_hash=schedule_hash,
            transcript_hash=self.s.transcript.digest(),
            iter_seconds=iter_seconds,
        )
