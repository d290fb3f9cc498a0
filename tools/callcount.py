"""Python calls per party per training iteration, counted by cProfile.

Runs each spec in threads mode and profiles only the engines' own runs
(HorizontalEngine.run and VerticalEngine.run, every party and fold), so
dataset loading, thread start-up and manifest checks do not count. The
figure is the profiler's total call count over those runs divided by the
number of runs and by the iterations of each: one party, one iteration,
set-up and final opening amortised in. The count is deterministic, so one
run of each spec is enough, on any machine.

Specs: the two gated benchmark workloads (perfbench/workloads.py, default
seed, full size, every fold) and every engine (TI/OTI x H/V) at the m=8
point of `secregress bench --scaling` (LiRe, d=8, batch 4, 50 iterations,
one run on the whole set with the triple halves dealt beforehand, as that
command times it).

    PYTHONPATH=src python tools/callcount.py
"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
import sys

from secregress.cli import _scaling_point
from secregress.orchestration import spawn_parties
from secregress.protocols import HorizontalEngine, VerticalEngine
from secregress.spec import RunSpec

_HERE = os.path.dirname(os.path.abspath(__file__))
GATED = ("lire-ti-h-bulk", "lore-oti-v-tcp")


def specs():
    """(name, spec, how it runs) for every counted spec."""
    sys.path.insert(0, os.path.join(_HERE, os.pardir, "perfbench"))
    from workloads import DEFAULT_SEED, WORKLOADS

    for name in GATED:
        yield name, WORKLOADS[name].spec(DEFAULT_SEED), (
            lambda spec: spawn_parties(spec, "threads"))
    for variant in ("TI", "OTI"):
        for scheme in ("horizontal", "vertical"):
            yield f"LiRe-{scheme[0].upper()}-{variant}-m8", {
                "task": "LiRe", "scheme": scheme, "smm_variant": variant,
                "parties": 2, "folds": 2,
                "dataset": {"kind": "synthetic-linear", "m": 8, "d": 8,
                            "seed": "bench"},
                "config": {"learning_rate": 0.01, "batch_size": 4,
                           "iterations": 50, "seed": "bench"},
            }, _scaling_point


def calls_per_iteration(raw: dict, how) -> float:
    """Engine-only profiled calls per party-run per iteration."""
    runs: list[tuple[int, int]] = []
    originals = {cls: cls.run for cls in (HorizontalEngine, VerticalEngine)}

    def profiled(original):
        def run(self, *args, **kwargs):
            prof = cProfile.Profile()
            prof.enable()
            try:
                return original(self, *args, **kwargs)
            finally:
                prof.disable()
                runs.append((pstats.Stats(prof).total_calls,
                             self.cfg.iterations))
        return run

    try:
        for cls, original in originals.items():
            cls.run = profiled(original)
        how(RunSpec.from_dict(raw))
    finally:
        for cls, original in originals.items():
            cls.run = original
    return sum(calls / iters for calls, iters in runs) / len(runs)


def main() -> int:
    out = {name: round(calls_per_iteration(raw, how), 1)
           for name, raw, how in specs()}
    json.dump(out, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
