"""Training configuration and the schedule both sides must agree on.

Everything here is a pure function of public state (config values and the
shared seed), which is what lets every party compute the same owner
sequence and batch indices without extra rounds, and what lets the
plaintext reference replay a secure run exactly.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

from ..errors import BatchTooLarge, MagnitudeOverflow, PolicyMismatch
from ..ring import FixedPointConfig
from ..rng import CounterDrbg

SMM_VARIANTS = ("smm1", "smm2")
OWNER_POLICIES = ("sequential", "random")

# 0.5 + 0.197 z + 0.004 z^3, the cubic logistic stand-in.
DEFAULT_SIGMOID_COEFFS = (0.5, 0.197, 0.0, 0.004)


@dataclass(frozen=True)
class TrainingConfig:
    """Hyperparameters every party must hold identically.

    The engines broadcast a digest of this (plus task, layout, and party
    count) in round 0 and raise PolicyMismatch when the processes were
    launched with different values. learning_rate 0 is allowed: the update
    becomes an exact no-op, which some equivalence tests rely on.
    """

    learning_rate: float = 0.01
    batch_size: int = 5
    iterations: int = 100
    smm_variant: str = "smm1"
    sigmoid_coeffs: tuple[float, float, float, float] = DEFAULT_SIGMOID_COEFFS
    frac_bits: int = 20
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
        coeffs = tuple(float(q) for q in self.sigmoid_coeffs)
        if len(coeffs) != 4 or not all(math.isfinite(q) for q in coeffs):
            raise ValueError("sigmoid_coeffs must be 4 finite reals")
        object.__setattr__(self, "sigmoid_coeffs", coeffs)
        FixedPointConfig(frac_bits=self.frac_bits)  # validates the window
        if not isinstance(self.seed, (int, str)):
            raise ValueError("seed must be an int or a string")
        if self.owner_policy not in OWNER_POLICIES:
            raise ValueError(f"owner_policy must be one of {OWNER_POLICIES}")
        if not (isinstance(self.label_party, int) and self.label_party >= 0):
            raise ValueError("label_party must be a non-negative integer")

    def fixed_point(self) -> FixedPointConfig:
        return FixedPointConfig(frac_bits=self.frac_bits)

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
        return {
            "learning_rate": self.learning_rate,
            "batch_size": self.batch_size,
            "iterations": self.iterations,
            "smm_variant": self.smm_variant,
            "sigmoid_coeffs": list(self.sigmoid_coeffs),
            "frac_bits": self.frac_bits,
            "seed": self.seed,
            "owner_policy": self.owner_policy,
            "label_party": self.label_party,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TrainingConfig":
        unknown = set(d) - {
            "learning_rate", "batch_size", "iterations", "smm_variant",
            "sigmoid_coeffs", "frac_bits", "seed", "owner_policy",
            "label_party"}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        kwargs = dict(d)
        if "sigmoid_coeffs" in kwargs:
            kwargs["sigmoid_coeffs"] = tuple(kwargs["sigmoid_coeffs"])
        return cls(**kwargs)

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


def horizontal_triple_needs(cfg: TrainingConfig, task: str, n_parties: int,
                            n_features: int) -> dict:
    """Triple shapes and counts one horizontal run draws from a pool.

    Every party consumes (or skips past) the same sequence, so these counts
    size a stocked pool for any single party. Elementwise entries
    only apply to the logistic task.
    """
    b, t, n, d = cfg.batch_size, cfg.iterations, n_parties, n_features
    # Ordered pairs between any share holder and the two parties carrying
    # the truncated aggregate (see protocols.base).
    pairs = 2 * (n - 1)
    needs = {(b, d, 1): pairs * t, (d, b, 1): pairs * t}
    if task == "logistic":
        needs[("elem", b)] = 3 * t
    return needs


def vertical_triple_needs(cfg: TrainingConfig, task: str,
                          block_sizes: list[int]) -> dict:
    b, t = cfg.batch_size, cfg.iterations
    needs: dict = {}
    for i, d_i in enumerate(block_sizes):
        # Block i pairs with aggregate holders 0 and 1, minus itself.
        count = 1 if i < 2 else 2
        key_p = (b, d_i, 1)
        key_g = (1, b, d_i)
        needs[key_p] = needs.get(key_p, 0) + count * t
        needs[key_g] = needs.get(key_g, 0) + count * t
    if task == "logistic":
        needs[("elem", b)] = 3 * t
    return needs
