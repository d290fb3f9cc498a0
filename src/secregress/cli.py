"""Command-line driver: the train, report, bench and partition verbs.

Turns a run spec (one JSON file shared by every party, see spec) into a
five-fold cross-validated training run of any of the ten model
configurations: the eight secure ones, Sec-{LiRe,LoRe}-{TI,OTI}-{H,V},
plus the two plaintext references. orchestration runs the parties; this
module scores the finished run against the schedule-matched plaintext
replay, prints the tables and writes the report.

Determinism contract: manifest.json and report.json contain only values
that replay exactly (seeds, hashes, model words, byte counts). Wall-clock
measurements go to timings.json and stdout, never into the deterministic
artifacts. Under the triple variant each party's engine derives its own
triple halves from the shared seed as it draws them (smm.triple_halves
stands in for the trusted initializer), so the reported training seconds,
the folds' wall time, include that derivation; the manifest flags the
variant as offline-provisioned.

Exit codes: 0 success, 2 configuration or input error, 3 protocol or
transport failure, 4 cross-party equivalence-check failure.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from dataclasses import replace

import numpy as np

from .baseline import auc, rmse, train_plain
from .data import build_batch_schedule, kfold, load_csv
from .errors import HashMismatch, InputError, SecregressError
from .orchestration import (
    _fold_seed,
    _party_inputs,
    _run_single_party,
    _run_threads,
    _write_json,
    run_plaintext,
    spawn_parties,
)
from .protocols.config import TrainingConfig, horizontal_schedule, product_plan
from .ring import decode_raw
from .smm import triple_halves
from .spec import ConfigFileError, RunSpec, load_dataset, partition
from .transport import loopback_sessions

SCALING_SIZES = (500, 1000, 2000, 4000)


# --------------------------------------------------------------------------
# evaluation


def _matched_plain_weights(spec: RunSpec, cfg_k: TrainingConfig, Xt, yt):
    """Plaintext weights under the exact schedule a secure engine of this
    spec draws, making RMSE/AUC comparable digit for digit."""
    plain_task = "linear" if spec.task == "LiRe" else "logistic-poly"
    if spec.scheme == "horizontal":
        m_list = [len(_party_inputs(spec, Xt, yt, i)[1])
                  for i in range(spec.parties)]
        # global_rows index the stacked party slices, which partition()
        # keeps in original row order
        _owners, _local, schedule = horizontal_schedule(cfg_k, m_list)
    else:
        schedule = build_batch_schedule(len(Xt), cfg_k.batch_size,
                                        cfg_k.iterations, cfg_k.seed)
    # effective_rate is what the ring arithmetic applies; using it keeps
    # the replay within truncation noise of the secure run
    return train_plain(Xt, yt, schedule, cfg_k.effective_rate(), plain_task)


def _fold_weights(spec: RunSpec, manifests: list[dict], k: int):
    """Full model vector for fold k from the party manifests."""
    if spec.scheme == "plaintext":
        blob = bytes.fromhex(manifests[0]["folds"][k]["model_hex"])
        return np.frombuffer(blob, dtype="<f8").copy()
    if spec.scheme == "horizontal":
        hexes = [manifests[0]["folds"][k]["model_hex"]]
    else:
        hexes = [m["folds"][k]["model_hex"] for m in manifests]
    words = []
    for hx in hexes:
        words.extend(int(hx[i:i + 16], 16) for i in range(0, len(hx), 16))
    return np.asarray([decode_raw(w) for w in words])


def evaluate(spec: RunSpec, manifests: list[dict]) -> dict:
    """Score a finished run: per-fold metric on the held-out split, plus
    (for secure runs) the matched-schedule plaintext metric that the
    equality criterion compares against. Deterministic."""
    X, y, _ = load_dataset(spec)
    folds = kfold(len(X), spec.folds, seed=spec.config.seed)
    score, metric = (rmse, "rmse") if spec.task == "LiRe" else (auc, "auc")
    fold_metrics, replay_metrics = [], []
    for k, (train_idx, test_idx) in enumerate(folds):
        Xs, ys = X[test_idx], y[test_idx]
        fold_metrics.append(score(ys, Xs @ _fold_weights(spec, manifests, k)))
        if spec.scheme != "plaintext":
            cfg_k = replace(spec.config,
                            seed=_fold_seed(spec.config.seed, k))
            wp = _matched_plain_weights(spec, cfg_k, X[train_idx],
                                        y[train_idx])
            replay_metrics.append(score(ys, Xs @ wp))
    row = {
        "model": spec.model_name(),
        "task": spec.task,
        "metric": metric,
        "fold_values": fold_metrics,
        "mean": float(np.mean(fold_metrics)),
    }
    if replay_metrics:
        row["plain_replay_values"] = replay_metrics
        row["plain_replay_mean"] = float(np.mean(replay_metrics))
    return row


def run(spec: RunSpec, mode: str = "threads", timeout: float = 300.0):
    """Execute a spec end to end: train (all parties, all folds), verify,
    score. Returns (report_row, manifests, timings)."""
    if spec.scheme == "plaintext":
        manifests, timings = run_plaintext(spec)
    else:
        manifests, timings = spawn_parties(spec, mode, timeout)
    row = evaluate(spec, manifests)
    return row, manifests, timings


def _train_seconds(timings: list[dict]) -> float:
    """Wall time of the folds (the loopback parties share one
    interpreter, so per-party seconds overlap; the max is the run)."""
    return max(t["train_seconds"] for t in timings)


def _persist_run(spec: RunSpec, row, manifests, timings) -> str | None:
    if spec.output is None:
        return None
    for m, t in zip(manifests, timings):
        base = os.path.join(spec.output, f"party{m['party']}")
        _write_json(os.path.join(base, "manifest.json"), m)
        _write_json(os.path.join(base, "timings.json"), t)
    _write_json(os.path.join(spec.output, "report.json"),
                {"format": "secregress.report.v1",
                 "spec_hash": spec.spec_hash(), "rows": [row]})
    return spec.output


# --------------------------------------------------------------------------
# tables


def _format_table(rows: list[dict], seconds: dict[str, float]) -> str:
    metric = rows[0]["metric"]
    head = (f"{'model':<18} {metric:>10} {'plain-replay':>13} "
            f"{'seconds':>9}")
    lines = [head, "-" * len(head)]
    for r in rows:
        replay = (f"{r['plain_replay_mean']:.6f}"
                  if "plain_replay_mean" in r else "-")
        secs = seconds.get(r["model"])
        lines.append(
            f"{r['model']:<18} {r['mean']:>10.6f} {replay:>13} "
            f"{(f'{secs:.2f}' if secs is not None else '-'):>9}")
    return "\n".join(lines)


# --------------------------------------------------------------------------
# verbs


def _cmd_train(args) -> int:
    spec = RunSpec.from_file(args.spec)
    if args.party is not None:
        _run_single_party(spec, args.party, timeout=args.timeout)
        return 0
    row, manifests, timings = run(spec, mode=args.mode,
                                  timeout=args.timeout)
    where = _persist_run(spec, row, manifests, timings)
    secs = {spec.model_name(): _train_seconds(timings)}
    print(_format_table([row], secs))
    if where:
        print(f"artifacts: {where}")
    return 0


def _cmd_report(args) -> int:
    base = _report_base_spec(args)
    rows, seconds = [], {}
    for raw in _report_model_specs(base, args.task):
        spec = RunSpec.from_dict(raw)
        row, _manifests, timings = run(spec, mode="threads")
        rows.append(row)
        seconds[spec.model_name()] = _train_seconds(timings)
    table = _format_table(rows, seconds)
    print(table)
    if args.out:
        _write_json(os.path.join(args.out, "report.json"),
                    {"format": "secregress.report.v1", "rows": rows})
        with open(os.path.join(args.out, "table.txt"), "w") as fh:
            fh.write(_format_table(rows, {}) + "\n")
        print(f"artifacts: {args.out}")
    return 0


def _report_base_spec(args) -> dict:
    if args.csv:
        if not args.label:
            raise ConfigFileError("--csv needs --label")
        dataset = {"kind": "csv", "path": args.csv,
                   "label_column": args.label}
        if args.subsample:
            dataset["subsample"] = args.subsample
            dataset["seed"] = args.seed
    else:
        kind = ("synthetic-logistic" if args.task == "LoRe"
                else "synthetic-linear")
        dataset = {"kind": kind, "m": args.rows, "d": args.features,
                   "seed": args.seed}
    return {
        "task": args.task,
        "dataset": dataset,
        "folds": args.folds,
        "config": {
            "learning_rate": args.learning_rate,
            "batch_size": args.batch_size,
            "iterations": args.iterations,
            "seed": args.seed,
        },
    }


def _report_model_specs(base: dict, task: str):
    plain = dict(base, scheme="plaintext", config=dict(base["config"]))
    yield plain
    if task == "LoRe":
        yield dict(plain, sigmoid="true")
    for variant in ("TI", "OTI"):
        for scheme in ("horizontal", "vertical"):
            yield dict(base, scheme=scheme, smm_variant=variant,
                       config=dict(base["config"]))


def _cmd_bench(args) -> int:
    if not args.scaling:
        raise ConfigFileError("bench currently offers --scaling")
    sizes = [int(s) for s in args.sizes.split(",")]
    # each engine also runs at m=8, where the per-iteration work that does
    # not grow with m (frames, thread hand-offs, call overhead) dominates
    swept = [8] + sizes
    specs = []
    for variant in ("TI", "OTI"):
        for scheme in ("horizontal", "vertical"):
            specs.extend(RunSpec.from_dict({
                "task": "LiRe",
                "scheme": scheme,
                "smm_variant": variant,
                "parties": 2,
                "folds": 2,
                "dataset": {"kind": "synthetic-linear", "m": m,
                            "d": args.features, "seed": args.seed},
                "config": {
                    "learning_rate": 0.01,
                    # full batches scale the per-iteration work with m;
                    # half of m is the largest batch both parties can
                    # serve in the row-partitioned layout
                    "batch_size": m // 2,
                    "iterations": args.iterations,
                    "seed": args.seed,
                },
            }) for m in swept)
    best = _scaling_sweep(specs)
    out = {"sizes": sizes, "engines": {}}
    for k in range(0, len(specs), len(swept)):
        name, secs = specs[k].model_name(), best[k:k + len(swept)]
        points = [[m, t] for m, t in zip(sizes, secs[1:])]
        for m, t in zip(swept, secs):
            print(f"{name} m={m}: {t:.3f}s")
        ratios = [points[i + 1][1] / points[i][1]
                  for i in range(len(points) - 1)]
        # seconds per iteration = a + b*m, least squares on relative
        # residuals: an absolute fit would spend the intercept on the
        # noise of the largest points, which exceeds a itself
        y = np.asarray(secs) / args.iterations
        a, b = np.linalg.lstsq(np.column_stack((1 / y, np.asarray(swept) / y)),
                               np.ones(len(y)), rcond=None)[0]
        out["engines"][name] = {
            "points": points, "ratios": ratios,
            "fit": {"m": swept, "a_s": a, "b_s": b,
                    "a_over_b500": a / (b * 500)}}
        print(f"{name} per-doubling ratios: "
              + ", ".join(f"{r:.2f}" for r in ratios)
              + f"; per iteration a={a * 1e3:.3f} ms, "
              f"b={b * 1e6:.3f} us per row, a/(b*500)={a / (b * 500):.3f}")
    if args.out:
        _write_json(args.out, out)
        print(f"artifacts: {args.out}")
    return 0


def _scaling_sweep(specs: list[RunSpec], reps: int = 2) -> list[float]:
    """Best online seconds of each spec over `reps` round-robin passes.

    Every pass times each spec once, in order, so the repetitions of one
    spec lie a whole pass apart rather than back to back: a CPU that drifts
    between speed phases for tens of seconds cannot then put every sample
    of one size into the same slow phase.
    """
    best = [float("inf")] * len(specs)
    for _ in range(reps):
        for i, spec in enumerate(specs):
            best[i] = min(best[i], _scaling_point(spec)[0])
    return best


def _scaling_point(spec: RunSpec, halves=None):
    """Train one fold-0-style LiRe run; return (seconds, results, halves).

    Before the clock starts, under TI, the dealer hands each party the
    list of its own triple halves for the run's product plan. halves, when
    given, replaces that dealing: one iterable per party, None leaving the
    engine to derive its halves inside the span. The seconds are one
    wall-clock span from starting the party threads to the last join, with
    nothing subtracted. The returned halves are the per-party streams the
    engines drew from, so a caller can check that each was drained.
    """
    X, y, _descriptor = load_dataset(spec)
    n = spec.parties
    inputs = [_party_inputs(spec, X, y, i) for i in range(n)]
    if halves is None and spec.smm_variant == "smm1":
        plan = product_plan(spec.config, "linear", spec.scheme,
                            [features.shape[1] for _, features, _ in inputs])
        halves = [list(triple_halves(spec.config.seed, plan, i))
                  for i in range(n)]
    streams = [None if h is None else iter(h) for h in halves or [None] * n]
    rngs = [spec.config.private_rng(i) for i in range(n)]
    sessions = loopback_sessions(n, rngs, timeout=600.0)
    engines = [engine(sessions[i], spec.config, "linear", streams[i])
               for i, (engine, _, _) in enumerate(inputs)]
    outs, seconds = _run_threads(
        sessions, [lambda e=e, x=x, lab=lab: e.run(x, lab)
                   for e, (_, x, lab) in zip(engines, inputs)], 600.0)
    return seconds, outs, streams


def _cmd_partition(args) -> int:
    if args.scheme == "vertical" and not 0 <= args.label_party < args.parties:
        raise ConfigFileError(
            f"--label-party {args.label_party} out of range for "
            f"{args.parties} parties")
    X, y, names = load_csv(args.csv, args.label)
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    ratios = None
    if args.ratio:
        try:
            ratios = [int(v) for v in args.ratio.split(":")]
        except ValueError:
            raise ConfigFileError(f"--ratio wants N:M[:..], got "
                                  f"{args.ratio!r}")
    parts = partition(len(X), X.shape[1], args.scheme, args.parties,
                      ratios)
    with open(args.csv, "rb") as fh:
        source_hash = hashlib.sha256(fh.read()).hexdigest()
    os.makedirs(args.out, exist_ok=True)
    for i in range(parts.n_parties):
        block, labels = parts.cut(X, y, i, args.label_party)
        lo, hi = parts.span(i)
        cols = names if args.scheme == "horizontal" else names[lo:hi]
        if labels is not None:
            block, cols = np.column_stack((block, labels)), cols + [args.label]
        with open(os.path.join(args.out, f"party{i}.csv"), "w") as fh:
            fh.write(",".join(cols) + "\n")
            for row in block:
                fh.write(",".join(repr(float(v)) for v in row) + "\n")
    _write_json(os.path.join(args.out, "partition.json"), {
        "format": "secregress.partition.v1",
        "scheme": args.scheme,
        "bounds": list(parts.bounds),
        "label_party": (args.label_party if args.scheme == "vertical"
                        else None),
        "source": {"path": args.csv, "sha256": source_hash,
                   "label_column": args.label},
    })
    print(f"wrote {parts.n_parties} slices to {args.out}")
    return 0


# --------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="secregress",
        description="secret-shared linear and logistic regression")
    sub = p.add_subparsers(dest="verb", required=True)

    t = sub.add_parser("train", help="run a spec (all parties, or one)")
    t.add_argument("--spec", required=True)
    t.add_argument("--party", type=int, default=None,
                   help="run only this party over TCP (child mode)")
    t.add_argument("--mode", choices=["threads", "processes"],
                   default="threads")
    t.add_argument("--timeout", type=float, default=300.0,
                   help="transport and child-process deadline, seconds")

    r = sub.add_parser("report",
                       help="metric table over all model configurations")
    r.add_argument("--task", choices=["LiRe", "LoRe"], required=True)
    r.add_argument("--csv")
    r.add_argument("--label")
    r.add_argument("--subsample", type=int, default=None)
    r.add_argument("--rows", type=int, default=400)
    r.add_argument("--features", type=int, default=8)
    r.add_argument("--folds", type=int, default=5)
    r.add_argument("--learning-rate", type=float, default=0.1)
    r.add_argument("--batch-size", type=int, default=5)
    r.add_argument("--iterations", type=int, default=100)
    r.add_argument("--seed", default="report")
    r.add_argument("--out")

    b = sub.add_parser("bench", help="runtime benchmarks")
    b.add_argument("--scaling", action="store_true",
                   help="sweep training-set sizes, report per-doubling "
                        "time ratios")
    b.add_argument("--sizes", default=",".join(map(str, SCALING_SIZES)))
    b.add_argument("--features", type=int, default=8)
    b.add_argument("--iterations", type=int, default=50)
    b.add_argument("--seed", default="bench")
    b.add_argument("--out")

    c = sub.add_parser("partition", help="split a CSV into per-party "
                                         "slices")
    c.add_argument("--csv", required=True)
    c.add_argument("--label", required=True)
    c.add_argument("--scheme", choices=["horizontal", "vertical"],
                   required=True)
    c.add_argument("--parties", type=int, default=2)
    c.add_argument("--ratio", help="integer split ratio like 3:2")
    c.add_argument("--label-party", type=int, default=0)
    c.add_argument("--out", required=True)
    return p


_VERBS = {
    "train": _cmd_train,
    "report": _cmd_report,
    "bench": _cmd_bench,
    "partition": _cmd_partition,
}

_CONFIG_ERRORS = (InputError, ValueError, FileNotFoundError)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _VERBS[args.verb](args)
    except _CONFIG_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except HashMismatch as e:
        print(f"equivalence check failed: {e}", file=sys.stderr)
        return 4
    except SecregressError as e:
        print(f"protocol failure: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
