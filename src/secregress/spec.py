"""Run specs and the data they name.

A run spec is one JSON document shared by every party: the task, the
scheme, the secure product variant, the training config, the dataset and
how it splits across parties, and, for process runs, the roster and the
output directory. RunSpec validates it against RUNSPEC_SCHEMA and the
checks the schema cannot express; load_dataset materializes its dataset
and partition cuts it into per-party row or column ranges.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import jsonschema
import numpy as np

from .data import (
    check_binary_labels,
    load_csv,
    make_classification_data,
    make_regression_data,
    minmax_normalize,
    quantize,
)
from .errors import InputError, SpecHashMismatch, TooFewColumns, TooFewRows
from .protocols import TrainingConfig
from .rng import CounterDrbg

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


class ConfigFileError(InputError):
    """Run spec failed schema or semantic validation."""


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
        for host, port in spec.endpoints():
            if not 0 < port < 1 << 16:
                raise ConfigFileError(
                    f"roster endpoint {host}:{port}: port out of range")
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

    def endpoints(self) -> list[tuple[str, int]]:
        """The roster as (host, port) pairs, in party order."""
        return [(host, int(port)) for host, port
                in (item.rsplit(":", 1) for item in self.roster or ())]

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
    if ds["kind"] != "csv":
        make = (make_regression_data if ds["kind"] == "synthetic-linear"
                else make_classification_data)
        X, y = make(ds["m"], ds["d"], seed=ds["seed"])
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

    def cut(self, X, y, i: int, label_party: int):
        """Party i's (features, labels): its rows and their labels
        (horizontal), or its column block with every label on the label
        party and None elsewhere (vertical)."""
        lo, hi = self.span(i)
        if self.scheme == "horizontal":
            return X[lo:hi], y[lo:hi]
        return X[:, lo:hi], (y if i == label_party else None)


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
    if min(weights) < 1:
        raise ConfigFileError(f"ratios must be at least 1, got {weights}")
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
