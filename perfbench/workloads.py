"""The benchmark's workloads and the traffic each must produce.

Every workload is a run spec for ``secregress train`` built from the seed
alone: the seed picks the synthetic dataset and every protocol seed, the
sizes are fixed. The program receives only the generated spec.
"""

from __future__ import annotations

from dataclasses import dataclass

# The default seed, and the seeds on which every later performance claim
# must hold.
DEFAULT_SEED = 1
CLAIM_SEEDS = (1, 2)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    task: str            # LiRe or LoRe
    scheme: str          # horizontal or vertical
    variant: str         # TI or OTI
    parties: int
    mode: str            # threads (loopback) or processes (localhost TCP)
    m: int
    d: int
    batch: int
    iterations: int      # per fold; sets the length of one repetition
    folds: int = 2
    learning_rate: float = 0.1
    # the same path at a size that finishes in about a second
    smoke: tuple[int, int, int] = (64, 8, 3)   # m, batch, iterations

    def spec(self, seed: int, smoke: bool = False) -> dict:
        m, batch, iterations = (self.smoke if smoke
                                else (self.m, self.batch, self.iterations))
        kind = ("synthetic-linear" if self.task == "LiRe"
                else "synthetic-logistic")
        return {
            "task": self.task,
            "scheme": self.scheme,
            "smm_variant": self.variant,
            "parties": self.parties,
            "folds": self.folds,
            "dataset": {"kind": kind, "m": m, "d": self.d, "seed": seed},
            "config": {
                "learning_rate": self.learning_rate,
                "batch_size": batch,
                "iterations": iterations,
                "seed": seed,
            },
        }


WORKLOADS = {w.name: w for w in (
    Workload(
        name="lire-ti-h-bulk",
        why=("few large products: time goes to DRBG triple generation and "
             "the ring matmul, per-frame transport work barely shows"),
        task="LiRe", scheme="horizontal", variant="TI", parties=2,
        mode="threads", m=2000, d=8, batch=500, iterations=12,
        smoke=(64, 16, 3)),
    Workload(
        name="lore-oti-v-tcp",
        why=("no triples and tiny matrices over localhost TCP: per-frame "
             "costs, round trips and the sigmoid loops; spawn and connect "
             "in set-up"),
        task="LoRe", scheme="vertical", variant="OTI", parties=2,
        mode="processes", m=1000, d=8, batch=16, iterations=300,
        smoke=(64, 8, 5)),
    Workload(
        name="lore-ti-v-3p",
        why=("three parties: re-sharing to two holders before each "
             "truncation, bystander triple skips, elementwise triples and "
             "fan-out to two peers"),
        task="LoRe", scheme="vertical", variant="TI", parties=3,
        mode="threads", m=1000, d=9, batch=64, iterations=60,
        smoke=(64, 8, 3)),
)}


# The workloads BENCHMARK.json names, which every run of the benchmark
# measures. lore-ti-v-3p stays runnable by name and in ``--workload all``,
# but is not one of them: a 60-second run is needed to average over the
# CPU speed phases of a shared VM (see run.trimmed_mean), and the time a
# full set of runs may take allows that for two workloads only. The two
# measured ones still exercise every traced layer.
BENCHMARKED = ("lire-ti-h-bulk", "lore-oti-v-tcp")


def frame_model(scheme: str, task: str, variant: str,
                n: int) -> tuple[int, int]:
    """(frames per iteration, frames per fold outside the iterations),
    summed over all n parties, as the engine structure implies them.

    A product, matrix or elementwise, costs 6 frames under TI and 4 under
    OTI. With n > 2 every truncation that is not already on parties 0 and 1
    first re-shares: each of the n - 2 other parties sends one frame to each
    holder. A pairwise product runs once for every (party, holder) pair,
    2n - 2 of them; the cubic sigmoid adds three elementwise products and a
    truncation of the prediction.
    """
    per_product = 6 if variant in ("TI", "smm1") else 4
    reshare = 2 * (n - 2)
    pairs = 2 * n - 2
    logistic = task == "LoRe"
    products = 2 * pairs + (3 if logistic else 0)
    if scheme == "horizontal":
        # the batch owner sends x and y shares to each peer; truncations:
        # prediction (logistic only), error, gradient
        shares = 2 * (n - 1)
        truncations = 2 + logistic
        # round-0 policy broadcast, final all-to-all weight reveal
        fixed = 2 * n * (n - 1)
    else:
        # the label holder sends y shares to each peer; truncations: n
        # weight blocks, prediction (logistic only), error, n gradients
        shares = n - 1
        truncations = 2 * n + 1 + logistic
        # policy broadcast, zero-share weight split, final truncation of
        # the n blocks and their convergence on each owner
        fixed = 3 * n * (n - 1) + n * reshare
    return shares + per_product * products + reshare * truncations, fixed
