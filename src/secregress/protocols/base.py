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
counters stay aligned without extra communication.

Which products a stage holds, between whom, in which round and feeding
which sum is public and fixed for a whole fold; only the operands change
from one iteration to the next. config.iteration_stages declares them
once, as sums. From that each party builds every stage once per fold as
a tape (_tape): its products, its peers and sides, each product's round
offset, and the sum each secure share and local term feeds. An iteration
then binds the operands and advances the round base (_run_stage), on bare
uint64 arrays throughout. Under the triple variant each party draws, in
order, only the triple halves of the products it is in: the dealer
(smm.triple_halves) walks the tapes' plans, one iteration's products
repeated, and leaves the bystanders out.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from ..baseline import SIGMOID_POLY
from ..errors import InvalidPartyCount, PolicyMismatch, TripleExhausted
from ..ring import FRAC_BITS, MASK, encode_raw, hadamard, matmul
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
from .config import FIRST_ROUND, TrainingConfig, iteration_stages, stage_terms


@dataclass
class TrainResult:
    """One party's outcome of a training run.

    weights_raw is the model as f-bit ring words, the form manifests
    hash: the full reconstructed model for row-partitioned runs, and this
    party's own feature block for column-partitioned ones (the other
    blocks stay with their owners; block_sizes gives every party's
    width). iter_seconds (wall clock) is the only non-deterministic field.
    """

    party_id: int
    weights_raw: list[int]
    block_sizes: list[int] | None
    config_hash: str
    schedule_hash: str
    transcript_hash: str
    iter_seconds: list[float]


@dataclass(frozen=True)
class Stage:
    """One stage of an iteration, as one party runs it (_EngineBase._tape).

    plan: (a, b, shape, elementwise) per pairwise product, bystanders
    included; product j takes round base + j. slots: (sum, side,
    elementwise, j) per product this party is in, in plan order. lanes:
    (peer, [(slot, round offset), ...]) per peer, as smm.run_stage takes
    them. local: (sum, elementwise) per term this party multiplies on its
    own. shapes: each sum's result shape.
    """

    plan: tuple
    slots: tuple
    lanes: tuple
    local: tuple
    shapes: tuple


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
        self._round = round_base + FIRST_ROUND
        self._ti = config.smm_variant == "smm1"
        # the public ring constants, as numpy scalars made once
        self._f_bits = np.int64(self.f)
        self._half = np.uint64(1 << (self.f - 1))
        self._lr_word = np.uint64(config.lr_word())
        q0, q1, q2, q3 = (encode_raw(q) for q in SIGMOID_POLY)
        # q0 sits at 2f so it can be added straight into the 2f aggregate.
        self._coeff_words = (np.uint64(q0 << self.f), np.uint64(q1),
                             np.uint64(q2) if q2 else None, np.uint64(q3))
        self._halves = iter(halves) if halves is not None else None
        # thread CPU seconds spent drawing triple halves (_run_stage); an
        # OTI run draws none and reads no clock
        self.offline_seconds = 0.0

    # -- bookkeeping ---------------------------------------------------

    def _next_round(self) -> int:
        r = self._round
        self._round += 1
        return r

    @property
    def rounds_used(self) -> int:
        """Round numbers this run has taken, counted from its round base."""
        return self._round - self._round_base

    def _shift(self, a: np.ndarray, narrow: bool = False) -> np.ndarray:
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
                u = self.s.rng.u64_array(a.size).reshape(a.shape)
                self.s.send_many(0, [(KIND_SHARE_DIST, u, r)])
                self.s.send_many(1, [(KIND_SHARE_DIST, a - u, r)])
                return np.zeros(a.shape, dtype=np.uint64)
            for j in range(2, self.n):
                (part,) = self.s.recv_many(j, [(KIND_SHARE_DIST, r)])
                if part.shape != a.shape:
                    raise PolicyMismatch(
                        f"party {j} re-shared a {part.shape[0]}x"
                        f"{part.shape[1]} block where {a.shape[0]}x"
                        f"{a.shape[1]} was due")
                a = a + part
        if self.me == 0:
            a = a + self._half
        return (a.view(np.int64) >> self._f_bits).view(np.uint64)

    def _update(self, w_2f: np.ndarray, grad_2f: np.ndarray) -> np.ndarray:
        """w <- w - (alpha/B) * grad on 2f-bit shares.

        The f-bit rate word times the f-bit gradient lands exactly on the
        2f accumulator, so the step needs no truncation of its own.
        """
        return w_2f - self._shift(grad_2f) * self._lr_word

    def _stages(self, widths: list[int]) -> tuple[Stage, Stage]:
        """This fold's prediction and gradient tapes; a logistic run's
        sigmoid tapes are kept. With no halves handed in, a triple run's
        dealer walks the tapes' plans, repeated per iteration."""
        tapes = [self._tape(*sums) for sums in iteration_stages(
            self.task, self.layout, widths, self.cfg.batch_size)]
        predict, *self._sigmoid_tapes, gradient = tapes
        if self._ti and self._halves is None:
            one = [term for tape in tapes for term in tape.plan]
            self._halves = triple_halves(
                self.cfg.seed,
                chain.from_iterable(repeat(one, self.cfg.iterations)),
                self.me)
        return predict, gradient

    # -- pairwise products ----------------------------------------------

    def _tape(self, *sums) -> Stage:
        """This party's tape of one stage that yields the given sums.

        Each sum is (lhs, rhs, shape, elementwise): the sum of L_a R_b
        over a in lhs, b in rhs, where L_a is party a's left operand and
        R_b party b's right one, and shape is (x, y, z) for a matrix
        product or the entry count for an elementwise one. A term with
        a == b is a local product on that party; every other term is a
        pairwise secure product, opened in config.stage_terms order.
        """
        plan, slots, lanes = [], [], {}
        for k, (a, b, shape, elementwise) in stage_terms(sums):
            if self.me in (a, b):
                side, peer = (0, b) if self.me == a else (1, a)
                lanes.setdefault(peer, []).append((len(slots), len(plan)))
                slots.append((k, side, elementwise, len(plan)))
            plan.append((a, b, shape, elementwise))
        local = [(k, elementwise)
                 for k, (lhs, rhs, _shape, elementwise) in enumerate(sums)
                 if self.me in lhs and self.me in rhs]
        shapes = [(shape, 1) if elementwise else (shape[0], shape[2])
                  for _lhs, _rhs, shape, elementwise in sums]
        return Stage(tuple(plan), tuple(slots),
                     tuple((peer, tuple(v)) for peer, v in lanes.items()),
                     tuple(local), tuple(shapes))

    def _run_stage(self, stage: Stage, operands) -> list[np.ndarray]:
        """This party's raw 2f share of each of the stage's sums.

        operands holds this party's (left, right) pair per sum; an operand
        it does not hold may be None. The stage takes the next
        len(stage.plan) round numbers; under the triple variant each
        product this party is in draws its next triple half.
        """
        base = self._round
        self._round = base + len(stage.plan)
        rng, steps, halves = self.s.rng, [], ()
        if self._ti:
            # the dealer's work, in thread CPU time so that a peer thread's
            # turn in between is not counted
            t0 = time.thread_time()
            halves = [next(self._halves, None) for _ in stage.slots]
            self.offline_seconds += time.thread_time() - t0
        for i, (k, side, elementwise, j) in enumerate(stage.slots):
            mine = operands[k][side]
            if self._ti:
                if halves[i] is None:
                    a, b, shape, _ = stage.plan[j]
                    raise TripleExhausted(
                        f"no triple half left for the {a}-{b} product "
                        f"of shape {shape}")
                steps.append(smm1_steps(rng, side, mine, halves[i],
                                        len(mine) if elementwise else 1))
            elif elementwise:
                steps.append(elementwise_steps(rng, side, mine))
            elif side == 0:
                steps.append(smm2_x_steps(rng, mine))
            else:
                steps.append(smm2_y_steps(rng, mine))
        shares = run_stage(self.s, base, stage.lanes, steps)
        totals: list = [None] * len(stage.shapes)
        for k, elementwise in stage.local:
            left, right = operands[k]
            totals[k] = (hadamard if elementwise else matmul)(left, right)
        for (k, *_), share in zip(stage.slots, shares):
            totals[k] = share if totals[k] is None else totals[k] + share
        return [np.zeros(shape, dtype=np.uint64) if total is None else total
                for total, shape in zip(totals, stage.shapes)]

    # -- shared pipeline pieces -----------------------------------------

    def _sigmoid_from_zf(self, z: np.ndarray) -> np.ndarray:
        """Shares of q0 + q1 z + q2 z^2 + q3 z^3 at 2f bits, z given as
        f-bit shares of a batch-size column.

        z^2 assembles from local squares plus the doubled cross product of
        the two holders, z^3 from the truncated z^2 against z over both
        ordered pairs; each power costs one share-wise truncation.
        """
        q0, q1, q2, q3 = self._coeff_words
        square, cube = self._sigmoid_tapes
        # z comes out of a truncation, so only parties 0 and 1 hold real
        # shares; all cross terms live between those two.
        (cross,) = self._run_stage(square, [(z, z)])
        z2_f = self._shift(hadamard(z, z) + 2 * cross, narrow=True)
        (z3,) = self._run_stage(cube, [(z2_f, z)])
        sig = z * q1 + self._shift(z3, narrow=True) * q3
        if q2 is not None:
            sig = sig + z2_f * q2
        if self.me == 0:
            sig = sig + q0
        return sig

    def _error_2f(self, p_2f: np.ndarray, y_f: np.ndarray) -> np.ndarray:
        """prediction - label as 2f-bit shares; logistic first maps the
        prediction through the cubic sigmoid."""
        y_2f = y_f << np.uint64(self.f)
        if self.task == "logistic":
            return self._sigmoid_from_zf(self._shift(p_2f)) - y_2f
        return p_2f - y_2f

    # -- setup / teardown exchanges --------------------------------------

    def _policy_exchange(self, fields: list[int]) -> list[list[int]]:
        """Round-0 all-to-all broadcast of local policy words.

        The config hash word rides along as the last word; a party whose
        word differs was launched with a different config. Returns every
        party's fields, in party order, without it.
        """
        hash_word = self.cfg.hash_word(self.task, self.layout, self.n)
        row = [x & MASK for x in fields] + [hash_word]
        mine = np.array([row], dtype=np.uint64)
        for p in range(self.n):
            if p != self.me:
                self.s.send_many(p, [(KIND_CONTROL, mine, self._round_base)])
        rows = []
        for p in range(self.n):
            if p == self.me:
                rows.append(row)
                continue
            (got,) = self.s.recv_many(p, [(KIND_CONTROL, self._round_base)])
            if got.shape != mine.shape:
                raise PolicyMismatch(
                    f"party {p} sent a {got.shape[0]}x{got.shape[1]} policy "
                    f"frame, expected 1x{len(row)}")
            rows.append(got[0].tolist())
        for p, got_row in enumerate(rows):
            if got_row[-1] != hash_word:
                raise PolicyMismatch(
                    f"party {p} was launched with a different config")
        return [got_row[:-1] for got_row in rows]

    def _share_out(self, owner: int, kinds, arrays) -> list[np.ndarray]:
        """This party's shares of the owner's matrices, one round each.

        The owner (the one party passing arrays) splits each matrix over
        all parties and writes every peer its shares at once; the others
        receive theirs, one frame of the given kind per matrix.
        """
        base = self._round
        self._round = base + len(kinds)
        if self.me != owner:
            return self.s.recv_many(
                owner, [(kind, base + j) for j, kind in enumerate(kinds)])
        shares = [share_matrix(a, self.n, self.s.rng) for a in arrays]
        for p in range(self.n):
            if p != self.me:
                self.s.send_many(p, [(kind, sh[p], base + j) for j, (kind, sh)
                                     in enumerate(zip(kinds, shares))])
        return [sh[self.me] for sh in shares]

    def _open(self, share: np.ndarray, receivers) -> np.ndarray | None:
        """Open a shared matrix to the receivers in one round.

        Every party sends its share to each receiver but itself; each
        receiver sums its own share and everything it gets and returns the
        value. Parties outside receivers return None.
        """
        r = self._next_round()
        for p in receivers:
            if p != self.me:
                self.s.send_many(p, [(KIND_W_SHARE, share, r)])
        if self.me not in receivers:
            return None
        total = share
        for p in range(self.n):
            if p == self.me:
                continue
            (got,) = self.s.recv_many(p, [(KIND_W_SHARE, r)])
            if got.shape != share.shape:
                raise PolicyMismatch(
                    f"party {p} opened a {got.shape[0]}x{got.shape[1]} share "
                    f"where {share.shape[0]}x{share.shape[1]} was due")
            total = total + got
        return total

    # -- result assembly --------------------------------------------------

    def _result(self, weights: np.ndarray, block_sizes,
                schedule_hash: str, iter_seconds: list[float]) -> TrainResult:
        return TrainResult(
            party_id=self.me,
            weights_raw=weights.ravel().tolist(),
            block_sizes=block_sizes,
            config_hash=self.cfg.config_digest(
                self.task, self.layout, self.n).hex(),
            schedule_hash=schedule_hash,
            transcript_hash=self.s.transcript.digest(),
            iter_seconds=iter_seconds,
        )
