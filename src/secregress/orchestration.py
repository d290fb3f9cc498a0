"""Running every party of a spec and checking what they leave behind.

Parties run either as threads over the in-process loopback transport or as
separate OS processes over localhost TCP; both modes consume the same
seeds in the same order, so the manifests they leave behind are
byte-identical. Each party trains every cross-validation fold on one
session and returns a manifest (deterministic facts only: seeds, hashes,
model words, byte counts) and its timings (wall clock). The plaintext
reference runs the same folds and leaves the same two records.
"""

from __future__ import annotations

import hashlib
import json
import os
import socket
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import replace

import numpy as np

from .baseline import train_plain
from .data import build_batch_schedule, kfold
from .errors import (
    HashMismatch,
    NonFiniteLoss,
    PartyCrashed,
    ReplayMismatch,
    SpecHashMismatch,
    TransportError,
)
from .protocols import HorizontalEngine, VerticalEngine
from .spec import ConfigFileError, RunSpec, load_dataset, partition
from .transport import TcpSession, loopback_sessions

# Engines running consecutive CV folds over one session start each fold at
# the next multiple of ROUND_STRIDE past the rounds the fold before used
# (_run_party_folds), so fold ranges never overlap. Rounds are u32 on the
# wire; the schema's bounds (8 parties, 10 folds, 100,000 iterations) keep
# every fold's rounds below 2^32.
ROUND_STRIDE = 1_000_000


def _fold_seed(base, k: int) -> str:
    return f"{base}::fold{k}"


def _task(spec: RunSpec) -> str:
    return "linear" if spec.task == "LiRe" else "logistic"


def _model_hash(model_hex: str) -> str:
    return hashlib.sha256(
        b"secregress.model.v1\x00" + model_hex.encode()).hexdigest()


def _party_inputs(spec: RunSpec, X, y, party: int):
    """(engine class, features, labels) for one party of a secure spec;
    see PartitionedDataset.cut."""
    parts = partition(len(X), X.shape[1], spec.scheme, spec.parties,
                      spec.partition_ratios)
    engine = (HorizontalEngine if spec.scheme == "horizontal"
              else VerticalEngine)
    return (engine, *parts.cut(X, y, party, spec.config.label_party))


def _run_folds(spec: RunSpec, m: int, fit, descriptor, party: int,
               n_parties: int, bounds) -> tuple[dict, dict]:
    """Train every CV fold with fit; return (manifest, timings).

    fit(k, cfg_k, train_idx) returns the fold's deterministic facts, at
    least model_encoding and model_hex (hashes and traffic a plaintext fit
    does not have read None and 0), and extra wall-clock fields for the
    fold's timings.
    """
    folds = kfold(m, spec.folds, seed=spec.config.seed)
    fold_records, fold_timings = [], []
    for k, (train_idx, _test_idx) in enumerate(folds):
        cfg_k = replace(spec.config, seed=_fold_seed(spec.config.seed, k))
        t0 = time.perf_counter()
        facts, timing = fit(k, cfg_k, train_idx)
        wall = time.perf_counter() - t0
        fold_records.append({
            "fold": k, "seed": cfg_k.seed, "config_hash": None,
            "schedule_hash": None, "block_sizes": None,
            "transcript_sha256": None, "bytes_sent": 0,
            "bytes_received": 0, "frames_sent": 0, **facts,
            "model_hash": _model_hash(facts["model_hex"]),
        })
        fold_timings.append({"fold": k, "wall_seconds": wall, **timing})
    manifest = {
        "format": "secregress.manifest.v1",
        "spec_hash": spec.spec_hash(),
        "model": spec.model_name(),
        "party": party,
        "n_parties": n_parties,
        "task": spec.task,
        "scheme": spec.scheme,
        "smm_variant": spec.smm_variant,
        "offline_provisioning": spec.smm_variant == "smm1",
        "config": spec.config.public_dict(),
        "dataset": descriptor,
        "partition_bounds": bounds,
        "folds": fold_records,
        "run_model_hash": _model_hash(
            "".join(r["model_hash"] for r in fold_records)),
    }
    timings = {
        "party": party,
        "folds": fold_timings,
        "train_seconds": sum(t["wall_seconds"] for t in fold_timings),
    }
    return manifest, timings


def _run_party_folds(session, spec: RunSpec, X, y, descriptor):
    """Train every CV fold for one party on an open session.

    Returns (manifest, timings): the manifest holds only deterministic
    facts, the timings everything wall-clock. Each fold starts at the
    least multiple of ROUND_STRIDE past the rounds of the fold before. A
    party whose engine took a different number of rounds than its peers
    would send at another base, and the next fold fails with
    UnexpectedKind.
    """
    me = session.party_id
    task = _task(spec)
    base = 0

    def fit(_k, cfg_k, train_idx):
        nonlocal base
        engine, features, labels = _party_inputs(
            spec, X[train_idx], y[train_idx], me)
        before = (session.bytes_sent, session.bytes_received,
                  session.frames_sent)
        eng = engine(session, cfg_k, task, round_base=base)
        res = eng.run(features, labels)
        base += ROUND_STRIDE * -(-eng.rounds_used // ROUND_STRIDE)
        return {
            "config_hash": res.config_hash,
            "schedule_hash": res.schedule_hash,
            "block_sizes": res.block_sizes,
            "model_encoding": "ring-u64be-hex",
            "model_hex": "".join(f"{w:016x}" for w in res.weights_raw),
            "transcript_sha256": res.transcript_hash,
            "bytes_sent": session.bytes_sent - before[0],
            "bytes_received": session.bytes_received - before[1],
            "frames_sent": session.frames_sent - before[2],
        }, {"iterations": len(res.iter_seconds)}

    parts = partition(len(X), X.shape[1], spec.scheme, spec.parties,
                      spec.partition_ratios)
    return _run_folds(spec, len(X), fit, descriptor, me, spec.parties,
                      list(parts.bounds))


def run_plaintext(spec: RunSpec):
    """Five-fold CV of the plaintext reference; returns the same
    (manifests, timings) shape as spawn_parties with one pseudo-party."""
    X, y, descriptor = load_dataset(spec)
    plain_task = ("linear" if spec.task == "LiRe" else
                  f"logistic-{spec.sigmoid}")

    def fit(k, cfg_k, train_idx):
        schedule = build_batch_schedule(len(train_idx), cfg_k.batch_size,
                                        cfg_k.iterations, cfg_k.seed)
        try:
            w = train_plain(X[train_idx], y[train_idx], schedule,
                            cfg_k.learning_rate, plain_task)
        except NonFiniteLoss:
            raise ReplayMismatch(
                f"fold {k}: the plaintext model diverged at learning rate "
                f"{cfg_k.learning_rate}") from None
        return {"model_encoding": "f64le-hex",
                "model_hex": np.asarray(w, dtype="<f8").tobytes().hex()}, {}

    manifest, timings = _run_folds(spec, len(X), fit, descriptor, 0, 1, None)
    return [manifest], [timings]


# --------------------------------------------------------------------------
# spawning parties


def _write_json(path: str, payload: dict) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _free_ports(n: int) -> list[str]:
    socks = []
    try:
        for _ in range(n):
            s = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            s.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            s.bind(("127.0.0.1", 0))
            socks.append(s)
        return [f"127.0.0.1:{s.getsockname()[1]}" for s in socks]
    finally:
        for s in socks:
            s.close()


def _verify_manifests(spec: RunSpec, manifests: list[dict]) -> None:
    """Cross-party agreement: same spec, same schedules, and, where the
    protocol reconstructs a shared model, the same model words."""
    hashes = {m["spec_hash"] for m in manifests}
    if len(hashes) != 1:
        raise SpecHashMismatch(
            f"parties ran different specs: {sorted(hashes)}")
    for k in range(spec.folds):
        rows = [m["folds"][k] for m in manifests]
        if len({r["schedule_hash"] for r in rows}) != 1:
            raise HashMismatch(f"fold {k}: schedule hashes diverge")
        if spec.scheme == "horizontal":
            if len({r["model_hash"] for r in rows}) != 1:
                raise HashMismatch(
                    f"fold {k}: parties reconstructed different models")


def spawn_parties(spec: RunSpec, mode: str = "threads",
                  timeout: float = 300.0):
    """Run every party of a secure spec to completion.

    threads: loopback transport inside this process. processes: one child
    process per party over localhost TCP. Returns (manifests, timings)
    in party order after cross-checking the manifests.
    """
    if spec.scheme == "plaintext":
        raise ConfigFileError("plaintext specs have no parties to spawn")
    if mode == "threads":
        manifests, timings = _spawn_threads(spec, timeout)
    elif mode == "processes":
        manifests, timings = _spawn_processes(spec, timeout)
    else:
        raise ConfigFileError(f"unknown mode {mode!r}")
    _verify_manifests(spec, manifests)
    return manifests, timings


def _spawn_threads(spec: RunSpec, timeout: float):
    X, y, descriptor = load_dataset(spec)
    rngs = [spec.config.private_rng(i) for i in range(spec.parties)]
    sessions = loopback_sessions(spec.parties, rngs, timeout=timeout)
    outs, _ = _run_threads(
        sessions, [lambda s=s: _run_party_folds(s, spec, X, y, descriptor)
                   for s in sessions], timeout)
    return [o[0] for o in outs], [o[1] for o in outs]


def _run_threads(sessions: list, jobs: list, timeout: float):
    """Run party i's job on its own thread; return (outs, seconds).

    seconds is one wall-clock span from the first thread start to the last
    join. Each session closes when its job ends. A party's own error is
    raised first; transport errors and parties that never finished become
    PartyCrashed.
    """
    n = len(jobs)
    outs: list = [None] * n
    errs: list = [None] * n

    def work(i):
        try:
            outs[i] = jobs[i]()
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errs[i] = exc
        finally:
            sessions[i].close()

    threads = [threading.Thread(target=work, args=(i,), daemon=True)
               for i in range(n)]
    t0 = time.perf_counter()
    for th in threads:
        th.start()
    for th in threads:
        th.join(timeout)
    seconds = time.perf_counter() - t0
    real = [e for e in errs
            if e is not None and not isinstance(e, TransportError)]
    if real:
        raise real[0]
    for i, e in enumerate(errs):
        if e is not None:
            raise PartyCrashed(f"party {i}: {type(e).__name__}: {e}") from e
    dead = [i for i, th in enumerate(threads) if th.is_alive()]
    if dead:
        raise PartyCrashed(f"parties {dead} never finished")
    return outs, seconds


def _spawn_processes(spec: RunSpec, timeout: float):
    out_dir = spec.output
    with tempfile.TemporaryDirectory(prefix="secregress-run-") as tmp:
        if out_dir is None:
            out_dir = os.path.join(tmp, "out")
        roster = spec.roster or tuple(_free_ports(spec.parties))
        child_spec = replace(spec, roster=roster, output=out_dir)
        spec_path = os.path.join(tmp, "spec.json")
        with open(spec_path, "w") as fh:
            json.dump(child_spec.to_dict(), fh, indent=2)
        # children import the package from where this process did
        src = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        procs = []
        for i in range(spec.parties):
            procs.append(subprocess.Popen(
                [sys.executable, "-m", "secregress", "train",
                 "--spec", spec_path, "--party", str(i),
                 "--timeout", str(timeout)],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                env=env))
        _wait_children(procs, timeout)
        manifests, timings = [], []
        for i in range(spec.parties):
            base = os.path.join(out_dir, f"party{i}")
            try:
                with open(os.path.join(base, "manifest.json")) as fh:
                    manifests.append(json.load(fh))
                with open(os.path.join(base, "timings.json")) as fh:
                    timings.append(json.load(fh))
            except OSError as e:
                raise PartyCrashed(
                    f"party {i} left no manifest: {e}") from None
        return manifests, timings


def _wait_children(procs: list, timeout: float) -> None:
    """Wait for every party child; the first nonzero exit (or the
    deadline) kills the survivors. A child that exited 2 rejected its
    configuration or input: that becomes a ConfigFileError carrying the
    child's message. Any other failure raises PartyCrashed with the
    failing child's diagnostics."""
    deadline = time.monotonic() + timeout
    pending = dict(enumerate(procs))

    def fail(i: int, code: int | None, errtxt: str):
        for p in pending.values():
            p.kill()
            p.communicate()
        lines = errtxt.strip().splitlines()
        if code == 2 and lines:
            raise ConfigFileError(
                f"party {i}: {lines[-1].removeprefix('error: ')}")
        what = "timed out" if code is None else f"exited {code}"
        tail = "\n".join(lines[-4:])
        raise PartyCrashed(f"party {i} {what}" + (f"\n{tail}" if tail
                                                  else ""))

    while pending:
        failed = []
        for i in list(pending):
            if pending[i].poll() is None:
                continue
            p = pending.pop(i)
            _, errtxt = p.communicate()
            if p.returncode != 0:
                failed.append((p.returncode != 2, i, p.returncode, errtxt))
        if failed:
            # a party that rejects its config drops its connections, so
            # its peers fail too; report the rejection, which is the cause
            _, i, code, errtxt = min(failed)
            fail(i, code, errtxt)
        if pending and time.monotonic() > deadline:
            i = next(iter(pending))
            pending.pop(i).kill()
            fail(i, None, "")
        if pending:
            time.sleep(0.02)


def _run_single_party(spec: RunSpec, party: int,
                      timeout: float = 300.0) -> None:
    """Child-process entry: one party of a TCP run, all folds."""
    if spec.scheme == "plaintext":
        raise ConfigFileError("plaintext specs have no parties")
    if spec.roster is None:
        raise ConfigFileError("process mode needs a roster in the spec")
    if not 0 <= party < spec.parties:
        raise ConfigFileError(
            f"party {party} out of range for {spec.parties}")
    if spec.output is None:
        raise ConfigFileError("process mode needs an output directory")
    X, y, descriptor = load_dataset(spec)
    session = TcpSession(party, spec.parties,
                         spec.config.private_rng(party), spec.endpoints(),
                         timeout=timeout)
    try:
        manifest, timings = _run_party_folds(session, spec, X, y,
                                             descriptor)
    finally:
        session.close()
    base = os.path.join(spec.output, f"party{party}")
    _write_json(os.path.join(base, "manifest.json"), manifest)
    _write_json(os.path.join(base, "timings.json"), timings)
