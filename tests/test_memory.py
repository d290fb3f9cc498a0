"""A training run's memory does not grow with its length.

An engine keeps no received frame (the transcript is a running hash) and
holds at most one block of its batch schedule (data.DRAW_AHEAD
iterations), so a run's peak heap is the same at any iteration count, up
to the per-iteration wall times it returns. tracemalloc follows every
thread, so the peak below is both parties' and both folds'.
"""

import gc
import tracemalloc

import pytest

from secregress.orchestration import spawn_parties
from secregress.spec import RunSpec

SHORT, LONG = 20, 80
# Heap bytes one more iteration may add to the peak, over both parties
# and both folds. What grows is each fold's list of iteration times and,
# from T=20 to a full block of 32, the schedule block: 180-330 B here.
# Keeping every received frame grew 34 kB and 44 kB.
BOUND = 512


def _spec(task: str, scheme: str, variant: str, iterations: int) -> RunSpec:
    kind = "synthetic-linear" if task == "LiRe" else "synthetic-logistic"
    return RunSpec.from_dict({
        "task": task, "scheme": scheme, "smm_variant": variant,
        "parties": 2, "folds": 2,
        "dataset": {"kind": kind, "m": 64, "d": 6, "seed": 7},
        "config": {"batch_size": 16, "iterations": iterations, "seed": 7},
    })


def _peak(spec: RunSpec) -> int:
    gc.collect()
    tracemalloc.start()
    try:
        spawn_parties(spec, "threads", timeout=60.0)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("task, scheme, variant", [
    ("LiRe", "horizontal", "TI"),
    ("LoRe", "vertical", "OTI"),
])
def test_peak_heap_does_not_grow_with_iterations(task, scheme, variant):
    spawn_parties(_spec(task, scheme, variant, SHORT), "threads",
                  timeout=60.0)  # imports, caches: not measured
    short = _peak(_spec(task, scheme, variant, SHORT))
    long = _peak(_spec(task, scheme, variant, LONG))
    per_iter = (long - short) / (LONG - SHORT)
    assert per_iter <= BOUND, (
        f"peak heap {short} B at T={SHORT}, {long} B at T={LONG}: "
        f"{per_iter:.0f} B per extra iteration")
