"""Plaintext float64 reference: the oracle the secure engines must match.

Mini-batch SGD with zeros init and update w -= lr/B * Xb^T (pred - yb),
driven by an explicit index schedule so a secure run with the same schedule
is comparable coordinate by coordinate.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import EmptyInput, NonFiniteLoss, SingleClassError

# (q0, q1, q2, q3) of q0 + q1 z + q2 z^2 + q3 z^3, the degree-3 stand-in for
# the logistic function that the secure engines and this replay both apply;
# strictly increasing, so rankings (and AUC) are preserved.
SIGMOID_POLY = (0.5, 0.197, 0.0, 0.004)


def poly_sigmoid(z):
    q0, q1, q2, q3 = SIGMOID_POLY
    z = np.asarray(z, dtype=np.float64)
    return q0 + q1 * z + q2 * z * z + q3 * z ** 3


def true_sigmoid(z):
    return 1.0 / (1.0 + np.exp(-np.asarray(z, dtype=np.float64)))


def _predict(z, task: str):
    if task == "linear":
        return z
    if task == "logistic-poly":
        return poly_sigmoid(z)
    if task == "logistic-true":
        return true_sigmoid(z)
    raise ValueError(f"unknown task {task!r}")


def train_plain(X, y, schedule, lr: float, task: str = "linear") -> np.ndarray:
    """Returns the weight vector after replaying the whole schedule."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or X.size == 0:
        raise EmptyInput("feature matrix is empty")
    m, d = X.shape
    w = np.zeros(d, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        for t, batch in enumerate(schedule):
            Xb = X[batch]
            err = _predict(Xb @ w, task) - y[batch]
            if not np.all(np.isfinite(err)):
                raise NonFiniteLoss(f"diverged at iteration {t} (lr={lr})")
            w = w - (lr / len(batch)) * (Xb.T @ err)
    return w


def rmse(y_true, y_pred) -> float:
    a = np.asarray(y_true, dtype=np.float64)
    b = np.asarray(y_pred, dtype=np.float64)
    if a.size == 0:
        raise EmptyInput("no samples to score")
    return float(math.sqrt(np.mean((a - b) ** 2)))


def _rank_average_ties(scores: np.ndarray) -> np.ndarray:
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(len(scores), dtype=np.float64)
    i = 0
    while i < len(scores):
        j = i
        while j + 1 < len(scores) and scores[order[j + 1]] == scores[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def auc(y_true, scores) -> float:
    """Rank AUC; tied scores get half credit."""
    y = np.asarray(y_true, dtype=np.float64)
    s = np.asarray(scores, dtype=np.float64)
    npos = int(np.sum(y == 1.0))
    nneg = int(np.sum(y == 0.0))
    if npos == 0 or nneg == 0:
        raise SingleClassError("AUC needs both classes present")
    ranks = _rank_average_ties(s)
    pos_rank_sum = float(np.sum(ranks[y == 1.0]))
    return (pos_rank_sum - npos * (npos + 1) / 2.0) / (npos * nneg)
