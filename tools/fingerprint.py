"""Bit-identity fingerprint of the secure engines.

Runs 16 small configurations (LiRe/LoRe x horizontal/vertical x TI/OTI x
2 or 3 parties; threads, 2 folds, m=48, d=5, batch 6, 6 iterations, data
seed 3, config seed 5) and prints, as JSON, each party's run_model_hash
and, per fold, its transcript hash, a hash of its received frame bodies
in sorted order (equal whenever only the receive order changed),
bytes_sent and frames_sent, plus a hash of each dataset and k-fold split.

Comparing two trees is one diff:

    PYTHONPATH=old/src python tools/fingerprint.py > old.json
    PYTHONPATH=src python tools/fingerprint.py > new.json
    diff old.json new.json
"""

from __future__ import annotations

import hashlib
import itertools
import json
import sys

from secregress.data import kfold
from secregress.orchestration import (
    ROUND_STRIDE,
    _run_party_folds,
    _run_threads,
)
from secregress.spec import RunSpec, load_dataset
from secregress.transport import loopback_sessions


def configurations():
    for task, scheme, variant, n in itertools.product(
            ("LiRe", "LoRe"), ("horizontal", "vertical"), ("TI", "OTI"),
            (2, 3)):
        kind = "synthetic-linear" if task == "LiRe" else "synthetic-logistic"
        yield f"{task}-{scheme[0].upper()}-{variant}-n{n}", {
            "task": task, "scheme": scheme, "smm_variant": variant,
            "parties": n, "folds": 2,
            "dataset": {"kind": kind, "m": 48, "d": 5, "seed": 3},
            "config": {"batch_size": 6, "iterations": 6, "seed": 5},
        }


def fingerprint(raw: dict) -> dict:
    spec = RunSpec.from_dict(raw)
    X, y, descriptor = load_dataset(spec)
    rngs = [spec.config.private_rng(i) for i in range(spec.parties)]
    sessions = loopback_sessions(spec.parties, rngs, timeout=60.0)
    outs, _ = _run_threads(
        sessions, [lambda s=s: _run_party_folds(s, spec, X, y, descriptor)
                   for s in sessions], 120.0)
    parties = []
    for session, (manifest, _timings) in zip(sessions, outs):
        bodies: dict[int, list[bytes]] = {}
        for frame in session.transcript.frames:
            bodies.setdefault(frame.round_no // ROUND_STRIDE, []).append(
                frame.encode())
        folds = []
        for rec in manifest["folds"]:
            h = hashlib.sha256()
            for body in sorted(bodies.get(rec["fold"], [])):
                h.update(len(body).to_bytes(4, "big") + body)
            folds.append({
                "transcript_sha256": rec["transcript_sha256"],
                "sorted_bodies_sha256": h.hexdigest(),
                "bytes_sent": rec["bytes_sent"],
                "frames_sent": rec["frames_sent"],
            })
        parties.append({"run_model_hash": manifest["run_model_hash"],
                        "folds": folds})
    data = hashlib.sha256(X.tobytes() + y.tobytes())
    data.update(json.dumps(kfold(len(X), spec.folds,
                                 seed=spec.config.seed)).encode())
    return {"data_sha256": data.hexdigest(), "parties": parties}


def main() -> int:
    out = {name: fingerprint(raw) for name, raw in configurations()}
    json.dump(out, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
