"""Correctness check of one finished training run.

Three checks, each able to fail on its own:

1. The parties' manifests agree: one spec hash, the spec's own; per fold
   one schedule hash and, where every party reconstructs the model
   (horizontal), one model hash.
2. The traffic matches the engine structure: per fold, the frames sent by
   all parties equal ``workloads.frame_model``.
3. The model matches a plaintext replay of the same batch schedule, built
   here from the program's public pieces: the held-out metric to 4
   decimals, and every decoded weight within WEIGHT_TOLERANCE. The LoRe
   workloads reach AUC 1.0, so the metric alone cannot catch a wrong
   model.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from secregress.baseline import auc, rmse, train_plain
from secregress.cli import partition
from secregress.data import build_batch_schedule, kfold
from secregress.protocols import horizontal_schedule
from secregress.ring import FixedPointConfig, decode_raw

from workloads import frame_model

# The rule of the repository's equality criterion: 4 decimals.
METRIC_TOLERANCE = 5e-5
# Largest |w - w_replay| over seeds 1-10 at the workloads' full sizes:
# 1.1e-6 (lire-ti-h-bulk), 2.9e-6 (lore-oti-v-tcp), 1.6e-6 (lore-ti-v-3p);
# OTI-V LoRe has reached 3.1e-5 at other sizes. A wrong model, off by one
# learning-rate step, misses by 1e-3 or more.
WEIGHT_TOLERANCE = 1e-4


def _metric(task: str, y, scores) -> float:
    return rmse(y, scores) if task == "LiRe" else auc(y, scores)


def replay(spec, X, y, fold_seeds: list) -> list[np.ndarray]:
    """Plaintext weights per fold under the schedule the secure engine
    draws. fold_seeds are the per-fold seeds the manifests record."""
    task = "linear" if spec.task == "LiRe" else "logistic-poly"
    out = []
    for (train_idx, _test), seed in zip(
            kfold(len(X), spec.folds, seed=spec.config.seed), fold_seeds):
        cfg = replace(spec.config, seed=seed)
        Xt, yt = X[train_idx], y[train_idx]
        if spec.scheme == "horizontal":
            parts = partition(len(Xt), Xt.shape[1], "horizontal",
                              spec.parties, spec.partition_ratios)
            sizes = [hi - lo for lo, hi in
                     (parts.span(i) for i in range(spec.parties))]
            schedule = horizontal_schedule(cfg, sizes)[2]
        else:
            schedule = build_batch_schedule(len(Xt), cfg.batch_size,
                                            cfg.iterations, cfg.seed)
        # effective_rate is the step the ring arithmetic applies
        out.append(train_plain(Xt, yt, schedule, cfg.effective_rate(), task))
    return out


def fold_seeds(manifests: list[dict]) -> list:
    return [f["seed"] for f in manifests[0]["folds"]]


def decoded_weights(spec, manifests: list[dict], k: int) -> np.ndarray:
    """Fold k's model: the shared vector for horizontal runs, the parties'
    own blocks in column order for vertical ones."""
    fx = FixedPointConfig(spec.config.frac_bits)
    if spec.scheme == "horizontal":
        hexes = [manifests[0]["folds"][k]["model_hex"]]
    else:
        hexes = [m["folds"][k]["model_hex"] for m in manifests]
    words = [int(hx[i:i + 16], 16) for hx in hexes
             for i in range(0, len(hx), 16)]
    return np.asarray([decode_raw(w, fx) for w in words])


def check_run(spec, manifests: list[dict], X, y,
              replay_weights: list[np.ndarray]) -> tuple[list[str], float]:
    """Every problem found with one run (none means correct), and the
    largest |w - w_replay| over its folds."""
    if (len(manifests) != spec.parties
            or any(len(m["folds"]) != spec.folds for m in manifests)):
        return [f"manifests do not cover {spec.parties} parties and "
                f"{spec.folds} folds"], 0.0
    problems = []
    worst = 0.0
    hashes = {m["spec_hash"] for m in manifests}
    if hashes != {spec.spec_hash()}:
        problems.append(f"spec hashes {sorted(hashes)} differ from the "
                        f"spec's {spec.spec_hash()}")
    per_iter, fixed = frame_model(spec.scheme, spec.task, spec.smm_variant,
                                  spec.parties)
    want_frames = spec.config.iterations * per_iter + fixed
    folds = kfold(len(X), spec.folds, seed=spec.config.seed)
    for k, (_train, test_idx) in enumerate(folds):
        rows = [m["folds"][k] for m in manifests]
        if len({r["schedule_hash"] for r in rows}) != 1:
            problems.append(f"fold {k}: schedule hashes diverge")
        if (spec.scheme == "horizontal"
                and len({r["model_hash"] for r in rows}) != 1):
            problems.append(f"fold {k}: parties hold different models")
        frames = sum(r["frames_sent"] for r in rows)
        if frames != want_frames:
            problems.append(f"fold {k}: {frames} frames sent, the engine "
                            f"structure implies {want_frames}")
        w = decoded_weights(spec, manifests, k)
        wp = replay_weights[k]
        if w.shape != wp.shape:
            problems.append(f"fold {k}: model has {w.size} weights, "
                            f"replay {wp.size}")
            continue
        gap = float(np.max(np.abs(w - wp)))
        worst = max(worst, gap)
        if not gap <= WEIGHT_TOLERANCE:
            problems.append(f"fold {k}: max |w - w_replay| = {gap:.3g} "
                            f"exceeds {WEIGHT_TOLERANCE:g}")
        Xs, ys = X[test_idx], y[test_idx]
        got = _metric(spec.task, ys, Xs @ w)
        want = _metric(spec.task, ys, Xs @ wp)
        if not abs(got - want) <= METRIC_TOLERANCE:
            problems.append(f"fold {k}: metric {got:.6f} vs replay "
                            f"{want:.6f} differs in the 4th decimal")
    return problems, worst
