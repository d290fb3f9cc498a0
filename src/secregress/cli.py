"""Command-line driver and orchestration layer.

Turns a run spec (one JSON file shared by every party) into a five-fold
cross-validated training run of any of the ten model configurations: the
eight secure ones, Sec-{LiRe,LoRe}-{TI,OTI}-{H,V}, plus the two plaintext
references. Parties run either as threads over the in-process loopback
transport or as separate OS processes over localhost TCP; both modes
consume the same seeds in the same order, so the manifests they leave
behind are byte-identical.

Determinism contract: manifest.json and report.json contain only values
that replay exactly (seeds, hashes, model words, byte counts). Wall-clock
measurements go to timings.json and stdout, never into the deterministic
artifacts. When the triple variant runs, triple generation is offline
provisioning: its time is metered separately and excluded from the
reported training seconds, and the manifest flags this.

Exit codes: 0 success, 2 configuration or input error, 3 protocol or
transport failure, 4 cross-party equivalence-check failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, replace

import jsonschema
import numpy as np

from .baseline import auc, rmse, train_plain
from .data import (
    build_batch_schedule,
    check_binary_labels,
    kfold,
    load_csv,
    make_classification_data,
    make_regression_data,
    minmax_normalize,
    quantize,
)
from .errors import (
    BatchTooLarge,
    EmptyInput,
    HashMismatch,
    LabelDomainError,
    MagnitudeOverflow,
    MissingLabelColumn,
    ParseError,
    PartyCrashed,
    PolicyMismatch,
    SecregressError,
    SpecHashMismatch,
    TooFewColumns,
    TooFewRows,
    TransportError,
)
from .protocols import HorizontalEngine, TrainingConfig, VerticalEngine
from .protocols.config import (
    horizontal_schedule,
    horizontal_triple_needs,
    vertical_triple_needs,
)
from .ring import decode_raw
from .rng import CounterDrbg
from .smm import TriplePool
from .transport import TcpSession, loopback_sessions

# Engines running consecutive CV folds over one session space their frame
# round numbers this far apart (rounds are u32 on the wire).
ROUND_STRIDE = 1_000_000

SCALING_SIZES = (500, 1000, 2000, 4000)

_VARIANT_ALIASES = {"smm1": "smm1", "smm2": "smm2", "TI": "smm1",
                    "OTI": "smm2"}
_VARIANT_TAG = {"smm1": "TI", "smm2": "OTI"}
_SCHEME_TAG = {"horizontal": "H", "vertical": "V"}

RUNSPEC_SCHEMA = {
    "type": "object",
    "required": ["task", "scheme", "config", "dataset"],
    "additionalProperties": False,
    "properties": {
        "task": {"enum": ["LiRe", "LoRe"]},
        "scheme": {"enum": ["horizontal", "vertical", "plaintext"]},
        "smm_variant": {"enum": ["smm1", "smm2", "TI", "OTI"]},
        "sigmoid": {"enum": ["poly", "true"]},
        "parties": {"type": "integer", "minimum": 2, "maximum": 8},
        "folds": {"type": "integer", "minimum": 2, "maximum": 10},
        "config": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "learning_rate": {"type": "number", "minimum": 0},
                "batch_size": {"type": "integer", "minimum": 1},
                "iterations": {"type": "integer", "minimum": 1,
                               "maximum": 100000},
                "seed": {"type": ["integer", "string"]},
                "owner_policy": {"enum": ["sequential", "random"]},
                "label_party": {"type": "integer", "minimum": 0},
            },
        },
        "dataset": {
            "type": "object",
            "required": ["kind"],
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": ["synthetic-linear", "synthetic-logistic",
                                  "csv"]},
                "m": {"type": "integer", "minimum": 8},
                "d": {"type": "integer", "minimum": 1},
                "seed": {"type": ["integer", "string"]},
                "path": {"type": "string"},
                "label_column": {"type": "string"},
                "subsample": {"type": "integer", "minimum": 8},
                "sha256": {"type": "string"},
            },
        },
        "partition": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "ratios": {"type": "array", "minItems": 2,
                           "items": {"type": "integer", "minimum": 1}},
            },
        },
        "roster": {"type": "array", "minItems": 2,
                   "items": {"type": "string", "pattern": "^.+:[0-9]+$"}},
        "output": {"type": "string"},
    },
}


class ConfigFileError(SecregressError):
    """Run spec failed schema or semantic validation."""


# --------------------------------------------------------------------------
# run spec


@dataclass(frozen=True)
class RunSpec:
    task: str
    scheme: str
    config: TrainingConfig
    dataset: dict
    smm_variant: str | None = None
    sigmoid: str = "poly"
    parties: int = 2
    folds: int = 5
    partition_ratios: tuple[int, ...] | None = None
    roster: tuple[str, ...] | None = None
    output: str | None = None

    @classmethod
    def from_dict(cls, raw: dict) -> "RunSpec":
        try:
            jsonschema.validate(raw, RUNSPEC_SCHEMA)
        except jsonschema.ValidationError as e:
            where = "/".join(str(p) for p in e.absolute_path) or "(top level)"
            raise ConfigFileError(f"spec invalid at {where}: {e.message}")
        scheme = raw["scheme"]
        variant = raw.get("smm_variant")
        if scheme == "plaintext":
            if variant is not None:
                raise ConfigFileError(
                    "plaintext runs take no smm_variant")
        else:
            if variant is None:
                raise ConfigFileError(
                    f"scheme {scheme!r} requires smm_variant")
            if raw.get("sigmoid") == "true":
                raise ConfigFileError(
                    "secure engines evaluate the polynomial sigmoid only; "
                    "sigmoid=true is a plaintext reference option")
            variant = _VARIANT_ALIASES[variant]
        cfg_dict = dict(raw.get("config", {}))
        cfg_dict["smm_variant"] = variant or "smm1"
        try:
            config = TrainingConfig.from_dict(cfg_dict)
        except ValueError as e:
            raise ConfigFileError(f"config: {e}")
        parties = raw.get("parties", 2)
        if scheme == "vertical" and not config.label_party < parties:
            raise ConfigFileError(
                f"label_party {config.label_party} out of range for "
                f"{parties} parties")
        spec = cls(
            task=raw["task"],
            scheme=scheme,
            config=config,
            dataset=_normalize_dataset(raw["dataset"], raw["task"], config),
            smm_variant=variant,
            sigmoid=raw.get("sigmoid", "poly"),
            parties=parties,
            folds=raw.get("folds", 5),
            partition_ratios=(tuple(raw["partition"]["ratios"])
                              if raw.get("partition", {}).get("ratios")
                              else None),
            roster=tuple(raw["roster"]) if raw.get("roster") else None,
            output=raw.get("output"),
        )
        if spec.partition_ratios and len(spec.partition_ratios) != parties:
            raise ConfigFileError(
                f"{len(spec.partition_ratios)} partition ratios for "
                f"{parties} parties")
        if spec.roster and len(spec.roster) != parties:
            raise ConfigFileError(
                f"roster lists {len(spec.roster)} endpoints for "
                f"{parties} parties")
        return spec

    @classmethod
    def from_file(cls, path: str) -> "RunSpec":
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except OSError as e:
            raise ConfigFileError(f"cannot read spec {path}: {e}")
        except json.JSONDecodeError as e:
            raise ConfigFileError(f"{path} is not valid JSON: {e}")
        return cls.from_dict(raw)

    def model_name(self) -> str:
        if self.scheme == "plaintext":
            if self.task == "LoRe" and self.sigmoid == "true":
                return "LoRe-true"
            return self.task
        return (f"Sec-{self.task}-{_VARIANT_TAG[self.smm_variant]}-"
                f"{_SCHEME_TAG[self.scheme]}")

    def semantic_core(self) -> dict:
        """Everything that defines the computation. Roster and output
        location are launch plumbing and deliberately excluded, so thread
        and process runs of one spec hash identically."""
        cfg = self.config.public_dict()
        # the variant lives at the top level of a spec
        cfg.pop("smm_variant", None)
        return {
            "task": self.task,
            "scheme": self.scheme,
            "smm_variant": self.smm_variant,
            "sigmoid": self.sigmoid,
            "parties": self.parties,
            "folds": self.folds,
            "config": cfg,
            "dataset": self.dataset,
            "partition_ratios": (list(self.partition_ratios)
                                 if self.partition_ratios else None),
        }

    def spec_hash(self) -> str:
        canon = json.dumps(self.semantic_core(), sort_keys=True,
                           separators=(",", ":"))
        return hashlib.sha256(
            b"secregress.spec.v1\x00" + canon.encode()).hexdigest()

    def to_dict(self) -> dict:
        out = self.semantic_core()
        if out["smm_variant"] is None:
            del out["smm_variant"]
        if self.partition_ratios:
            out["partition"] = {"ratios": list(self.partition_ratios)}
        del out["partition_ratios"]
        if self.roster:
            out["roster"] = list(self.roster)
        if self.output:
            out["output"] = self.output
        return out


def _normalize_dataset(ds: dict, task: str, config: TrainingConfig) -> dict:
    kind = ds["kind"]
    if kind.startswith("synthetic"):
        for key in ("path", "label_column", "subsample", "sha256"):
            if key in ds:
                raise ConfigFileError(f"dataset.{key} is a csv-only field")
        if "m" not in ds or "d" not in ds:
            raise ConfigFileError("synthetic datasets need m and d")
        want = ("synthetic-logistic" if task == "LoRe"
                else "synthetic-linear")
        if kind != want:
            raise ConfigFileError(f"task {task} pairs with {want}")
        return {"kind": kind, "m": ds["m"], "d": ds["d"],
                "seed": ds.get("seed", config.seed)}
    if "path" not in ds or "label_column" not in ds:
        raise ConfigFileError("csv datasets need path and label_column")
    out = {"kind": "csv", "path": ds["path"],
           "label_column": ds["label_column"]}
    if "subsample" in ds:
        out["subsample"] = ds["subsample"]
        out["seed"] = ds.get("seed", config.seed)
    if "sha256" in ds:
        out["sha256"] = ds["sha256"]
    return out


# --------------------------------------------------------------------------
# dataset loading and partitioning


def load_dataset(spec: RunSpec) -> tuple[np.ndarray, np.ndarray, dict]:
    """Materialize the spec's dataset: load, subsample, normalize,
    quantize. Returns (X, y, descriptor) with the descriptor pinned to the
    exact bytes used (csv files get a content hash)."""
    ds = spec.dataset
    if ds["kind"] == "synthetic-linear":
        X, y = make_regression_data(ds["m"], ds["d"], seed=ds["seed"])
        return X, y, dict(ds)
    if ds["kind"] == "synthetic-logistic":
        X, y = make_classification_data(ds["m"], ds["d"], seed=ds["seed"])
        return X, y, dict(ds)
    with open(ds["path"], "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    if "sha256" in ds and ds["sha256"] != digest:
        raise SpecHashMismatch(
            f"{ds['path']} hashes to {digest[:12]}.., the spec pinned "
            f"{ds['sha256'][:12]}..")
    X, y, _names = load_csv(ds["path"], ds["label_column"])
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    descriptor = dict(ds)
    descriptor["sha256"] = digest
    if "subsample" in ds and ds["subsample"] < len(X):
        picker = CounterDrbg(ds["seed"], label="subsample")
        rows = sorted(picker.sample(len(X), ds["subsample"]))
        X, y = X[rows], y[rows]
    if spec.task == "LoRe":
        check_binary_labels(y)
        X = quantize(minmax_normalize(X))
    else:
        X, y = minmax_normalize(X, scale_labels=True, y=y)
        X, y = quantize(X), quantize(y)
    return X, y, descriptor


@dataclass(frozen=True)
class PartitionedDataset:
    """How one axis of the data splits across parties.

    bounds are cut points over rows (horizontal) or columns (vertical);
    slice i is [bounds[i], bounds[i+1]). Slices are disjoint, in order,
    and cover the axis, so concatenating them reproduces the input.
    """

    scheme: str
    bounds: tuple[int, ...]

    @property
    def n_parties(self) -> int:
        return len(self.bounds) - 1

    def span(self, i: int) -> tuple[int, int]:
        return self.bounds[i], self.bounds[i + 1]


def partition(m: int, d: int, scheme: str, n_parties: int,
              ratios=None) -> PartitionedDataset:
    """Cut points for an m x d dataset; equal split unless ratios given."""
    if n_parties < 2:
        raise ConfigFileError("partitioning needs at least 2 parties")
    axis = m if scheme == "horizontal" else d
    weights = list(ratios) if ratios else [1] * n_parties
    if len(weights) != n_parties:
        raise ConfigFileError(
            f"{len(weights)} ratios for {n_parties} parties")
    total = sum(weights)
    acc = 0
    bounds = [0]
    for w in weights:
        acc += w
        bounds.append(round(axis * acc / total))
    if scheme == "vertical":
        if any(b - a < 1 for a, b in zip(bounds, bounds[1:])):
            raise TooFewColumns(
                f"{d} columns cannot give every one of {n_parties} "
                f"parties a block")
    elif axis < n_parties:
        raise TooFewRows(f"{m} rows across {n_parties} parties")
    return PartitionedDataset(scheme, tuple(bounds))


# --------------------------------------------------------------------------
# per-party fold execution


def _fold_seed(base, k: int) -> str:
    return f"{base}::fold{k}"


def _model_hash(model_hex: str) -> str:
    return hashlib.sha256(
        b"secregress.model.v1\x00" + model_hex.encode()).hexdigest()


def _run_party_folds(session, spec: RunSpec, X, y, descriptor):
    """Train every CV fold for one party on an open session.

    Returns (manifest, timings): the manifest holds only deterministic
    facts, the timings everything wall-clock.
    """
    me = session.party_id
    parts = partition(len(X), X.shape[1], spec.scheme, spec.parties,
                      spec.partition_ratios)
    folds = kfold(len(X), spec.folds, seed=spec.config.seed)
    task = "linear" if spec.task == "LiRe" else "logistic"
    fold_records = []
    fold_timings = []
    for k, (train_idx, _test_idx) in enumerate(folds):
        cfg_k = replace(spec.config, seed=_fold_seed(spec.config.seed, k))
        Xt, yt = X[train_idx], y[train_idx]
        bytes0 = session.bytes_sent, session.bytes_received
        frames0 = session.frames_sent
        t0 = time.perf_counter()
        if spec.scheme == "horizontal":
            fold_parts = partition(len(Xt), Xt.shape[1], "horizontal",
                                   spec.parties, spec.partition_ratios)
            lo, hi = fold_parts.span(me)
            eng = HorizontalEngine(session, cfg_k, task,
                                   round_base=k * ROUND_STRIDE)
            res = eng.run([list(r) for r in Xt[lo:hi]], list(yt[lo:hi]))
        else:
            lo, hi = parts.span(me)
            labels = list(yt) if me == cfg_k.label_party else None
            eng = VerticalEngine(session, cfg_k, task,
                                 round_base=k * ROUND_STRIDE)
            res = eng.run([list(r[lo:hi]) for r in Xt], labels)
        wall = time.perf_counter() - t0
        model_hex = "".join(f"{w:016x}" for w in res.weights_raw)
        fold_records.append({
            "fold": k,
            "seed": cfg_k.seed,
            "config_hash": res.config_hash,
            "schedule_hash": res.schedule_hash,
            "block_sizes": res.block_sizes,
            "model_encoding": "ring-u64be-hex",
            "model_hex": model_hex,
            "model_hash": _model_hash(model_hex),
            "transcript_sha256": res.transcript_hash,
            "bytes_sent": session.bytes_sent - bytes0[0],
            "bytes_received": session.bytes_received - bytes0[1],
            "frames_sent": session.frames_sent - frames0,
        })
        fold_timings.append({
            "fold": k,
            "wall_seconds": wall,
            "triple_seconds": res.triple_seconds,
            "iterations": len(res.iter_seconds),
        })
    manifest = {
        "format": "secregress.manifest.v1",
        "spec_hash": spec.spec_hash(),
        "model": spec.model_name(),
        "party": me,
        "n_parties": spec.parties,
        "task": spec.task,
        "scheme": spec.scheme,
        "smm_variant": spec.smm_variant,
        "offline_provisioning": spec.smm_variant == "smm1",
        "config": spec.config.public_dict(),
        "dataset": descriptor,
        "partition_bounds": list(parts.bounds),
        "folds": fold_records,
        "run_model_hash": _model_hash(
            "".join(r["model_hash"] for r in fold_records)),
    }
    timings = {
        "party": me,
        "folds": fold_timings,
        "offline_provisioning": spec.smm_variant == "smm1",
        "train_seconds": sum(t["wall_seconds"] - t["triple_seconds"]
                             for t in fold_timings),
        "triple_seconds": sum(t["triple_seconds"] for t in fold_timings),
    }
    return manifest, timings


# --------------------------------------------------------------------------
# orchestration


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
    if any(o is None for o in outs):
        dead = [i for i, o in enumerate(outs) if o is None]
        raise PartyCrashed(f"parties {dead} never finished")
    return outs, seconds


def _spawn_processes(spec: RunSpec, timeout: float):
    import tempfile

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
    deadline) kills the survivors and raises PartyCrashed with the
    failing child's diagnostics."""
    deadline = time.monotonic() + timeout
    pending = dict(enumerate(procs))

    def fail(i: int, what: str, errtxt: str):
        for p in pending.values():
            p.kill()
            p.communicate()
        tail = "\n".join(errtxt.strip().splitlines()[-4:])
        raise PartyCrashed(f"party {i} {what}" + (f"\n{tail}" if tail
                                                  else ""))

    while pending:
        for i in list(pending):
            if pending[i].poll() is None:
                continue
            p = pending.pop(i)
            _, errtxt = p.communicate()
            if p.returncode != 0:
                fail(i, f"exited {p.returncode}", errtxt)
        if pending and time.monotonic() > deadline:
            i = next(iter(pending))
            pending.pop(i).kill()
            fail(i, "timed out", "")
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
    endpoints = []
    for item in spec.roster:
        host, port_text = item.rsplit(":", 1)
        endpoints.append((host, int(port_text)))
    session = TcpSession(party, spec.parties,
                         spec.config.private_rng(party), endpoints,
                         timeout=timeout)
    try:
        manifest, timings = _run_party_folds(session, spec, X, y,
                                             descriptor)
    finally:
        session.close()
    base = os.path.join(spec.output, f"party{party}")
    _write_json(os.path.join(base, "manifest.json"), manifest)
    _write_json(os.path.join(base, "timings.json"), timings)


# --------------------------------------------------------------------------
# plaintext reference runs


def _plain_schedule(cfg: TrainingConfig, m_train: int):
    """The batch schedule a plaintext run replays. Matches the vertical
    engines directly; horizontal comparisons replay the owner-based
    schedule separately (see _matched_plain_weights)."""
    return build_batch_schedule(m_train, cfg.batch_size, cfg.iterations,
                                cfg.seed)


def _matched_plain_weights(spec: RunSpec, cfg_k: TrainingConfig, Xt, yt):
    """Plaintext weights under the exact schedule a secure engine of this
    spec draws, making RMSE/AUC comparable digit for digit."""
    plain_task = "linear" if spec.task == "LiRe" else "logistic-poly"
    if spec.scheme == "horizontal":
        fold_parts = partition(len(Xt), Xt.shape[1], "horizontal",
                               spec.parties, spec.partition_ratios)
        m_list = [hi - lo for lo, hi in
                  (fold_parts.span(i) for i in range(spec.parties))]
        # global_rows index the stacked party slices, which partition()
        # keeps in original row order
        _owners, _local, schedule = horizontal_schedule(cfg_k, m_list)
    else:
        schedule = _plain_schedule(cfg_k, len(Xt))
    # effective_rate is what the ring arithmetic applies; using it keeps
    # the replay within truncation noise of the secure run
    return train_plain(Xt, yt, schedule, cfg_k.effective_rate(), plain_task)


def run_plaintext(spec: RunSpec):
    """Five-fold CV of the plaintext reference; returns the same
    (manifests, timings) shape as spawn_parties with one pseudo-party."""
    X, y, descriptor = load_dataset(spec)
    folds = kfold(len(X), spec.folds, seed=spec.config.seed)
    plain_task = ("linear" if spec.task == "LiRe" else
                  f"logistic-{spec.sigmoid}")
    fold_records, fold_timings = [], []
    for k, (train_idx, _test_idx) in enumerate(folds):
        cfg_k = replace(spec.config, seed=_fold_seed(spec.config.seed, k))
        Xt, yt = X[train_idx], y[train_idx]
        t0 = time.perf_counter()
        w = train_plain(Xt, yt, _plain_schedule(cfg_k, len(Xt)),
                        cfg_k.learning_rate, plain_task)
        wall = time.perf_counter() - t0
        model_hex = np.asarray(w, dtype="<f8").tobytes().hex()
        fold_records.append({
            "fold": k,
            "seed": cfg_k.seed,
            "config_hash": None,
            "schedule_hash": None,
            "block_sizes": None,
            "model_encoding": "f64le-hex",
            "model_hex": model_hex,
            "model_hash": _model_hash(model_hex),
            "transcript_sha256": None,
            "bytes_sent": 0,
            "bytes_received": 0,
            "frames_sent": 0,
        })
        fold_timings.append({"fold": k, "wall_seconds": wall,
                             "triple_seconds": 0.0})
    manifest = {
        "format": "secregress.manifest.v1",
        "spec_hash": spec.spec_hash(),
        "model": spec.model_name(),
        "party": 0,
        "n_parties": 1,
        "task": spec.task,
        "scheme": "plaintext",
        "smm_variant": None,
        "offline_provisioning": False,
        "config": spec.config.public_dict(),
        "dataset": descriptor,
        "partition_bounds": None,
        "folds": fold_records,
        "run_model_hash": _model_hash(
            "".join(r["model_hash"] for r in fold_records)),
    }
    timings = {
        "party": 0,
        "folds": fold_timings,
        "offline_provisioning": False,
        "train_seconds": sum(t["wall_seconds"] for t in fold_timings),
        "triple_seconds": 0.0,
    }
    return [manifest], [timings]


# --------------------------------------------------------------------------
# evaluation


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


def evaluate(spec: RunSpec, manifests: list[dict],
             with_plain_replay: bool = True) -> dict:
    """Score a finished run: per-fold metric on the held-out split, plus
    (for secure runs) the matched-schedule plaintext metric that the
    equality criterion compares against. Deterministic."""
    X, y, _ = load_dataset(spec)
    folds = kfold(len(X), spec.folds, seed=spec.config.seed)
    metric_name = "rmse" if spec.task == "LiRe" else "auc"
    fold_metrics, replay_metrics = [], []
    for k, (train_idx, test_idx) in enumerate(folds):
        w = _fold_weights(spec, manifests, k)
        Xs, ys = X[test_idx], y[test_idx]
        scores = Xs @ w
        val = (rmse(ys, scores) if spec.task == "LiRe"
               else auc(ys, scores))
        fold_metrics.append(val)
        if with_plain_replay and spec.scheme != "plaintext":
            cfg_k = replace(spec.config,
                            seed=_fold_seed(spec.config.seed, k))
            wp = _matched_plain_weights(spec, cfg_k, X[train_idx],
                                        y[train_idx])
            sp = Xs @ wp
            replay_metrics.append(
                rmse(ys, sp) if spec.task == "LiRe" else auc(ys, sp))
    row = {
        "model": spec.model_name(),
        "task": spec.task,
        "metric": metric_name,
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
    """Wall time attributable to the protocol itself. Triple generation
    is offline provisioning and excluded (the loopback parties share one
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
    if manifests[0].get("offline_provisioning"):
        offline = max(t["triple_seconds"] for t in timings)
        print(f"offline triple provisioning: {offline:.2f}s "
              f"(excluded from seconds)")
    if where:
        print(f"artifacts: {where}")
    return 0


def _cmd_report(args) -> int:
    base = _report_base_spec(args)
    rows, seconds = [], {}
    manifests_by_model = {}
    for raw in _report_model_specs(base, args.task):
        spec = RunSpec.from_dict(raw)
        row, manifests, timings = run(spec, mode="threads")
        rows.append(row)
        seconds[spec.model_name()] = _train_seconds(timings)
        manifests_by_model[spec.model_name()] = manifests
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
    names, specs = [], []
    for variant in ("TI", "OTI"):
        for scheme in ("horizontal", "vertical"):
            names.append(f"Sec-LiRe-{variant}-{_SCHEME_TAG[scheme]}")
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
    for k, name in enumerate(names):
        secs = best[k * len(swept):(k + 1) * len(swept)]
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


def _scaling_point(spec: RunSpec, provision: bool = True):
    """Train one fold-0-style LiRe run; return (seconds, results, pools).

    Before the clock starts, each party's slice is converted to the lists
    the engines take and, under TI, each party's pool is stocked with
    exactly the triples the run draws (see _provision_pools). The seconds
    are then one wall-clock span from starting the party threads to the
    last join: online protocol time only, with nothing subtracted.
    provision=False leaves the engines on seed-backed pools, which derive
    each triple when it is drawn, inside the span.
    """
    X, y, _descriptor = load_dataset(spec)
    n = spec.parties
    parts = partition(len(X), X.shape[1], spec.scheme, n,
                      spec.partition_ratios)
    spans = [parts.span(i) for i in range(n)]
    task = "linear"
    if spec.scheme == "horizontal":
        inputs = [([list(r) for r in X[lo:hi]], list(y[lo:hi]))
                  for lo, hi in spans]
        needs = horizontal_triple_needs(spec.config, task, n, X.shape[1])
        engine = HorizontalEngine
    else:
        labels = list(y)
        inputs = [([list(r[lo:hi]) for r in X],
                   labels if i == spec.config.label_party else None)
                  for i, (lo, hi) in enumerate(spans)]
        needs = vertical_triple_needs(spec.config, task,
                                      [hi - lo for lo, hi in spans])
        engine = VerticalEngine
    if provision and spec.smm_variant == "smm1":
        pools = _provision_pools(spec, needs)
    else:
        pools = [None] * n
    rngs = [spec.config.private_rng(i) for i in range(n)]
    sessions = loopback_sessions(n, rngs, timeout=600.0)
    engines = [engine(sessions[i], spec.config, task, pools[i])
               for i in range(n)]
    outs, seconds = _run_threads(
        sessions, [lambda e=e, a=a: e.run(*a)
                   for e, a in zip(engines, inputs)], 600.0)
    return seconds, outs, pools


def _provision_pools(spec: RunSpec, needs: dict) -> list[TriplePool]:
    """One pool per party, stocked with the triples a run draws.

    The triples come from a seed-backed pool on the same trusted-initializer
    path each engine would otherwise derive them from, so the stocked pools
    replay the seed-backed run bit for bit. Only matrix shapes are supported
    (the scaling runs are LiRe, which draws no elementwise triples).
    """
    source = TriplePool.from_seed(spec.config.seed)
    triples = [source.take(*key)
               for key, count in needs.items() for _ in range(count)]
    return [TriplePool.from_triples(triples) for _ in range(spec.parties)]


def _cmd_partition(args) -> int:
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
    label_party = args.label_party
    for i in range(parts.n_parties):
        lo, hi = parts.span(i)
        path = os.path.join(args.out, f"party{i}.csv")
        with open(path, "w") as fh:
            if args.scheme == "horizontal":
                fh.write(",".join(names + [args.label]) + "\n")
                for r in range(lo, hi):
                    cells = ([repr(float(v)) for v in X[r]]
                             + [repr(float(y[r]))])
                    fh.write(",".join(cells) + "\n")
            else:
                cols = names[lo:hi]
                with_label = i == label_party
                fh.write(",".join(cols + ([args.label] if with_label
                                          else [])) + "\n")
                for r in range(len(X)):
                    cells = [repr(float(v)) for v in X[r, lo:hi]]
                    if with_label:
                        cells.append(repr(float(y[r])))
                    fh.write(",".join(cells) + "\n")
    _write_json(os.path.join(args.out, "partition.json"), {
        "format": "secregress.partition.v1",
        "scheme": args.scheme,
        "bounds": list(parts.bounds),
        "label_party": label_party if args.scheme == "vertical" else None,
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

_CONFIG_ERRORS = (ConfigFileError, ParseError, MissingLabelColumn,
                  TooFewRows, TooFewColumns, PolicyMismatch,
                  SpecHashMismatch, MagnitudeOverflow, BatchTooLarge,
                  LabelDomainError, EmptyInput, ValueError,
                  FileNotFoundError)


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
    except (TransportError, PartyCrashed, SecregressError) as e:
        print(f"protocol failure: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
