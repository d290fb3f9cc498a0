"""Training configuration and the schedule both sides must agree on.

Everything here is a pure function of public state (config values and the
shared seed), which is what lets every party compute the same owner
sequence and batch indices without extra rounds, and what lets the
plaintext reference replay a secure run exactly.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from collections.abc import Iterator
from dataclasses import dataclass
from typing import ClassVar

from ..data import drawn_ahead
from ..errors import BatchTooLarge, PolicyMismatch
from ..ring import FRAC_BITS, encode_raw
from ..rng import CounterDrbg

SMM_VARIANTS = ("smm1", "smm2")

# Rounds 0..15 of an engine run are reserved for setup traffic.
FIRST_ROUND = 16
OWNER_POLICIES = ("sequential", "random")


@dataclass(frozen=True)
class TrainingConfig:
    """Hyperparameters every party must hold identically.

    The engines broadcast a digest of this (plus task, layout, and party
    count) in round 0 and raise PolicyMismatch when the processes were
    launched with different values. learning_rate 0 is allowed: the update
    becomes an exact no-op, which some equivalence tests rely on. The
    fixed-point format (frac_bits) and the sigmoid polynomial are package
    constants, not settings.
    """

    # Not a field: f is fixed, readable here because perfbench reads it.
    frac_bits: ClassVar[int] = FRAC_BITS

    learning_rate: float = 0.01
    batch_size: int = 5
    iterations: int = 100
    smm_variant: str = "smm1"
    seed: int | str = 0
    owner_policy: str = "sequential"
    label_party: int = 0

    def __post_init__(self):
        if not (isinstance(self.learning_rate, (int, float))
                and math.isfinite(self.learning_rate)
                and self.learning_rate >= 0):
            raise ValueError("learning_rate must be finite and >= 0")
        if not (isinstance(self.batch_size, int) and self.batch_size >= 1):
            raise ValueError("batch_size must be a positive integer")
        if not (isinstance(self.iterations, int) and self.iterations >= 1):
            raise ValueError("iterations must be a positive integer")
        if self.smm_variant not in SMM_VARIANTS:
            raise ValueError(f"smm_variant must be one of {SMM_VARIANTS}")
        if not isinstance(self.seed, (int, str)):
            raise ValueError("seed must be an int or a string")
        if self.owner_policy not in OWNER_POLICIES:
            raise ValueError(f"owner_policy must be one of {OWNER_POLICIES}")
        if not (isinstance(self.label_party, int) and self.label_party >= 0):
            raise ValueError("label_party must be a non-negative integer")

    def lr_word(self) -> int:
        """round(alpha/B * 2^f): the public ring factor applied to f-bit
        gradient shares. Keeping it at f bits makes the step land exactly
        at the 2f accumulator width with no truncation; a wider word would
        need a shift whose share-wise form wraps with probability
        |step| * 2^(3f-64) per entry, far too often to sustain the
        plaintext-equivalence bounds."""
        return encode_raw(self.learning_rate / self.batch_size)

    def effective_rate(self) -> float:
        """The learning rate the ring arithmetic actually applies:
        lr_word/2^f times B. Plaintext comparators replay with this value
        so the trajectories match to truncation noise."""
        return (self.lr_word() / (1 << self.frac_bits)) * self.batch_size

    def public_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TrainingConfig":
        unknown = set(d) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**d)

    def config_digest(self, task: str, layout: str, n_parties: int) -> bytes:
        payload = self.public_dict()
        payload.update(task=task, layout=layout, n_parties=n_parties)
        canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(
            b"secregress.config.v1\x00" + canon.encode()).digest()

    def hash_word(self, task: str, layout: str, n_parties: int) -> int:
        """First 8 bytes of the digest, the value exchanged in round 0."""
        return int.from_bytes(
            self.config_digest(task, layout, n_parties)[:8], "little")

    def private_rng(self, party_id: int) -> CounterDrbg:
        """Per-party generator for share splits and blinding masks.

        Derived from the shared seed so whole runs replay bit-exactly; a
        deployment would draw these from OS entropy instead.
        """
        return CounterDrbg(self.seed, label="party-private").child(
            "party", party_id)


def select_batch_owner(t: int, n_parties: int, policy: str, seed) -> int:
    """Unanimous choice of which party contributes iteration t's batch.

    Pure function of public values, so no exchange is needed: sequential
    walks the ring (t mod n), random draws from a shared-seed PRF of t.
    """
    if policy == "sequential":
        return t % n_parties
    if policy == "random":
        return CounterDrbg(seed, label="owner").child(
            "pick", t).randrange(n_parties)
    raise PolicyMismatch(f"unknown owner policy {policy!r}")


def iter_horizontal_schedule(
        cfg: TrainingConfig,
        m_list: list[int]) -> Iterator[tuple[int, list[int], list[int]]]:
    """Owner and batch rows of each iteration of a row-partitioned run, in
    turn, drawn a block of iterations at a time (data.drawn_ahead).

    Yields (owner, local_rows, global_rows): the owner party, the sampled
    row indices inside the owner's slice, and the same rows as indices
    into the slices stacked in party order. Parties whose slice is smaller
    than the batch never serve as owner; when no party is eligible,
    BatchTooLarge is raised here, before anything is drawn.
    """
    b = cfg.batch_size
    eligible = [i for i, m in enumerate(m_list) if m >= b]
    if not eligible:
        raise BatchTooLarge(
            f"no party holds {b} rows (sizes {m_list})")
    offsets = [sum(m_list[:i]) for i in range(len(m_list))]
    root = CounterDrbg(cfg.seed, label="schedule")

    def draws():
        for t in range(cfg.iterations):
            owner = eligible[select_batch_owner(
                t, len(eligible), cfg.owner_policy, cfg.seed)]
            rows = root.child("hbatch", t).sample(m_list[owner], b)
            yield owner, rows, [offsets[owner] + r for r in rows]
    return drawn_ahead(draws())


def horizontal_schedule(
        cfg: TrainingConfig,
        m_list: list[int]) -> tuple[list[int], list[list[int]], list[list[int]]]:
    """Owners and batch rows for every iteration of a row-partitioned run:
    iter_horizontal_schedule as three lists (owners, local_rows,
    global_rows)."""
    owners, local_rows, global_rows = map(
        list, zip(*iter_horizontal_schedule(cfg, m_list)))
    return owners, local_rows, global_rows


class ScheduleDigest:
    """SHA-256 of a schedule's compact JSON under a domain tag, fed one
    batch at a time and hashed as it comes, so the schedule need not be
    kept."""

    def __init__(self):
        self._hash = hashlib.sha256(b"secregress.schedule.v1\x00[")
        self._sep = b""

    def add(self, batch: list[int]) -> None:
        self._hash.update(
            self._sep + json.dumps(batch, separators=(",", ":")).encode())
        self._sep = b","

    def hexdigest(self) -> str:
        h = self._hash.copy()
        h.update(b"]")
        return h.hexdigest()


def iteration_stages(task: str, layout: str, widths: list[int],
                     batch: int) -> list[tuple]:
    """One iteration's secure stages in run order: the prediction, a
    logistic run's two sigmoid stages, the gradient. Each stage is a
    tuple of sums as protocols.base's _tape takes them. widths[i] is the
    feature count of party i's batch operand: the full width in a
    horizontal run, block i's width in a vertical one. Truncated
    aggregates (weights, errors) live on parties 0 and 1, so every batch
    operand pairs with those two.
    """
    b, holders = batch, (0, 1)
    if layout == "horizontal":
        # z = X_B w and grad = X_B^T err, each from every batch-share
        # holder against the two holders of the truncated w (and err)
        everyone, d = range(len(widths)), widths[0]
        predict = ((everyone, holders, (b, d, 1), False),)
        gradient = ((everyone, holders, (d, b, 1), False),)
    else:
        # z = sum_i X^i w_i, and grad_i = (X^i)^T err computed as
        # (err^T X^i)^T. err stays the left operand, so the OTI leak keeps
        # its orientation: adjacent sums of err go to the block owner,
        # adjacent row differences of X^i to the err holders. Every
        # block's products run in one stage, before any block's update.
        predict = tuple(((i,), holders, (b, w, 1), False)
                        for i, w in enumerate(widths))
        gradient = tuple((holders, (i,), (1, b, w), False)
                         for i, w in enumerate(widths))
    # z^2's one cross product (doubled), then z^3's two, as sums over the
    # two holders of z (see protocols.base)
    sigmoid = ([(((0,), (1,), b, True),), ((holders, holders, b, True),)]
               if task == "logistic" else [])
    return [predict, *sigmoid, gradient]


def stage_terms(sums) -> list[tuple]:
    """The pairwise secure products of one stage, in the order they are
    opened: (k, (a, b, shape, elementwise)) per term L_a R_b of sum k with
    a != b. A term with a == b is a product party a makes on its own."""
    return [(k, (a, b, shape, elementwise))
            for k, (lhs, rhs, shape, elementwise) in enumerate(sums)
            for a in lhs for b in rhs if a != b]


def product_plan(cfg: TrainingConfig, task: str, layout: str,
                 widths: list[int]) -> list[tuple]:
    """Every pairwise secure product of one run, in the order the engines
    open them: (a, b, shape, elementwise), party a holding the left
    operand and b the right, per stage_terms of each iteration's stages.
    This is what a triple dealer needs to know (smm.triple_halves)."""
    one = [term for sums in iteration_stages(task, layout, widths,
                                             cfg.batch_size)
           for _k, term in stage_terms(sums)]
    return one * cfg.iterations
