"""Datasets, quantization, batch schedules, fold splits.

Everything here is shared verbatim by the plaintext baseline and the secure
engines: both consume the same grid-quantized float64 arrays and the same
index schedules, which is what makes their outputs comparable digit for
digit.
"""

from __future__ import annotations

import csv

import numpy as np

from .errors import (
    EmptyInput,
    LabelDomainError,
    MissingLabelColumn,
    ParseError,
    TooFewColumns,
    TooFewRows,
)
from .ring import FRAC_BITS
from .rng import CounterDrbg


def quantize(arr):
    """Snap values to the 2^-f grid with the same rounding as the encoder
    (half away from zero), so encoding a quantized value is exact."""
    a = np.asarray(arr, dtype=np.float64)
    scale = float(1 << FRAC_BITS)
    return np.copysign(np.floor(np.abs(a) * scale + 0.5), a) / scale


def minmax_normalize(X, scale_labels: bool = False, y=None):
    """Per-column min-max map onto [0, 1]; constant columns become zero.

    Returns X' (and y' when given). Label scaling is for regression targets
    only; classification labels stay 0/1.
    """
    X = np.asarray(X, dtype=np.float64)
    lo = X.min(axis=0)
    span = X.max(axis=0) - lo
    span[span == 0.0] = 1.0
    Xn = (X - lo) / span
    if y is None:
        return Xn
    y = np.asarray(y, dtype=np.float64)
    if scale_labels:
        ylo, yhi = y.min(), y.max()
        y = (y - ylo) / (yhi - ylo) if yhi > ylo else np.zeros_like(y)
    return Xn, y


def _uniform_grid(rng: CounterDrbg, shape, lo: float, hi: float):
    n = int(np.prod(shape))
    scale = 1 << FRAC_BITS
    steps = int(round((hi - lo) * scale))
    base = int(round(lo * scale))
    vals = [(base + rng.randrange(steps + 1)) / scale for _ in range(n)]
    return np.array(vals, dtype=np.float64).reshape(shape)


def make_regression_data(m: int, d: int, seed, noise: float = 0.02):
    """Synthetic linear data on the encoding grid, features and labels in
    [0, 1]."""
    rng = CounterDrbg(seed, label="synth-linear")
    X = _uniform_grid(rng.child("X"), (m, d), 0.0, 1.0)
    w = _uniform_grid(rng.child("w"), (d,), -1.0, 1.0)
    y = X @ w
    if noise:
        y = y + _uniform_grid(rng.child("noise"), (m,), -noise, noise)
    lo, hi = y.min(), y.max()
    y = (y - lo) / (hi - lo)
    return quantize(X), quantize(y)


def make_classification_data(m: int, d: int, seed, margin: float = 0.15):
    """Separable binary labels; features on the grid in [0, 1]."""
    rng = CounterDrbg(seed, label="synth-logistic")
    X = _uniform_grid(rng.child("X"), (m, d), 0.0, 1.0)
    w = _uniform_grid(rng.child("w"), (d,), -1.0, 1.0)
    z = X @ w
    thresh = float(np.median(z))
    y = (z > thresh).astype(np.float64)
    # push points inside the margin band outward to keep classes separable
    band = np.abs(z - thresh) < margin
    X = X.copy()
    if band.any():
        direction = np.sign(z[band] - thresh)
        direction[direction == 0.0] = 1.0
        shift = (margin - np.abs(z[band] - thresh) + margin) * direction
        wn = w / float(w @ w)
        X[band] = np.clip(X[band] + np.outer(shift, wn), 0.0, 1.0)
        y[band] = ((X[band] @ w) > thresh).astype(np.float64)
    return quantize(X), y


def load_csv(path: str, label_col: str):
    """Numeric CSV with a header row; returns (X, y, feature_names)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyInput(f"{path} is empty") from None
        if label_col not in header:
            raise MissingLabelColumn(
                f"column {label_col!r} not in {header}")
        ycol = header.index(label_col)
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(header):
                raise ParseError(f"{path}:{lineno}: {len(row)} fields, "
                                 f"header has {len(header)}")
            try:
                rows.append([float(c) for c in row])
            except ValueError as e:
                raise ParseError(f"{path}:{lineno}: {e}") from None
    if len(rows) < 2:
        raise TooFewRows(f"{path}: need at least 2 data rows")
    if len(header) < 2:
        raise TooFewColumns(f"{path}: need features besides the label")
    arr = np.array(rows, dtype=np.float64)
    y = arr[:, ycol]
    X = np.delete(arr, ycol, axis=1)
    names = [h for i, h in enumerate(header) if i != ycol]
    return X, y, names


def check_binary_labels(y) -> None:
    vals = set(np.unique(np.asarray(y)))
    if not vals <= {0.0, 1.0}:
        raise LabelDomainError(f"labels must be 0/1, got {sorted(vals)}")


def build_batch_schedule(m: int, batch: int, iters: int, seed) -> list[list[int]]:
    """Global row indices for each iteration; both pipelines replay this."""
    if batch > m:
        raise ValueError(f"batch {batch} exceeds {m} samples")
    root = CounterDrbg(seed, label="schedule")
    return [root.child("batch", t).sample(m, batch) for t in range(iters)]


def kfold(m: int, k: int, seed) -> list[tuple[list[int], list[int]]]:
    """Deterministic shuffled k-fold split: list of (train, test) indices."""
    if k < 2 or k > m:
        raise ValueError(f"k={k} out of range for {m} samples")
    perm = CounterDrbg(seed, label="kfold").shuffle(list(range(m)))
    folds = [perm[i::k] for i in range(k)]
    out = []
    for i in range(k):
        test = sorted(folds[i])
        train = sorted(ix for j, f in enumerate(folds) if j != i for ix in f)
        out.append((train, test))
    return out
