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
from dataclasses import dataclass
from typing import ClassVar

from ..errors import BatchTooLarge, MagnitudeOverflow, PolicyMismatch
from ..ring import FRAC_BITS
from ..rng import CounterDrbg

SMM_VARIANTS = ("smm1", "smm2")
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
        x = self.learning_rate / self.batch_size * (1 << self.frac_bits)
        word = math.floor(x + 0.5)
        if word >= 1 << 63:
            raise MagnitudeOverflow("learning_rate/batch_size too large")
        return word

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


def horizontal_schedule(
        cfg: TrainingConfig,
        m_list: list[int]) -> tuple[list[int], list[list[int]], list[list[int]]]:
    """Owners and batch rows for every iteration of a row-partitioned run.

    Returns (owners, local_rows, global_rows): the owner party for each
    iteration, the sampled row indices inside the owner's slice, and the
    same rows as indices into the slices stacked in party order. Parties
    whose slice is smaller than the batch never serve as owner.
    """
    b = cfg.batch_size
    eligible = [i for i, m in enumerate(m_list) if m >= b]
    if not eligible:
        raise BatchTooLarge(
            f"no party holds {b} rows (sizes {m_list})")
    offsets = [sum(m_list[:i]) for i in range(len(m_list))]
    root = CounterDrbg(cfg.seed, label="schedule")
    owners, local_rows, global_rows = [], [], []
    for t in range(cfg.iterations):
        owner = eligible[
            select_batch_owner(t, len(eligible), cfg.owner_policy, cfg.seed)]
        rows = root.child("hbatch", t).sample(m_list[owner], b)
        owners.append(owner)
        local_rows.append(rows)
        global_rows.append([offsets[owner] + r for r in rows])
    return owners, local_rows, global_rows


def schedule_digest(schedule: list[list[int]]) -> str:
    canon = json.dumps(schedule, separators=(",", ":"))
    return hashlib.sha256(
        b"secregress.schedule.v1\x00" + canon.encode()).hexdigest()


def product_plan(cfg: TrainingConfig, task: str, layout: str,
                 widths: list[int]) -> list[tuple]:
    """Every pairwise secure product of one run, in the order the engines
    open them (protocols.base: _shared_products, then _sigmoid_from_zf).

    Each entry is (a, b, shape, elementwise): party a holds the left
    operand, party b the right one, and shape is (x, y, z) for a matrix
    product or the entry count of an elementwise one. widths[i] is the
    feature count of party i's batch operand: the full width for every
    party of a horizontal run, block i's width in a vertical one. Terms a
    party multiplies locally are not listed. This is what a triple dealer
    needs to know (smm.triple_halves).
    """
    b = cfg.batch_size
    # Truncated aggregates (weights, errors) live on parties 0 and 1, so
    # every batch operand pairs with those two, minus itself.
    pairs = [(i, h, w) for i, w in enumerate(widths) for h in (0, 1)
             if i != h]
    predict = [(i, h, (b, w, 1), False) for i, h, w in pairs]
    if layout == "horizontal":
        grad = [(i, h, (w, b, 1), False) for i, h, w in pairs]
    else:
        # err^T stays the left operand (see protocols.vertical)
        grad = [(h, i, (1, b, w), False) for i, h, w in pairs]
    sigmoid = ([(0, 1, b, True), (0, 1, b, True), (1, 0, b, True)]
               if task == "logistic" else [])
    return (predict + sigmoid + grad) * cfg.iterations
