"""Float64 reference trainer and metrics."""

import math

import numpy as np
import pytest

from secregress.baseline import (
    SIGMOID_POLY,
    auc,
    poly_sigmoid,
    rmse,
    train_plain,
    true_sigmoid,
)
from secregress.data import build_batch_schedule, make_classification_data, \
    make_regression_data
from secregress.errors import EmptyInput, NonFiniteLoss, SingleClassError

from oracles import surrogate_loss


def test_single_update_by_hand():
    # one batch, lr=0.5: w = -0.5/2 * X^T(Xw0 - y) with w0 = 0
    X = np.array([[1.0, 2.0], [3.0, 4.0]])
    y = np.array([1.0, 2.0])
    w = train_plain(X, y, [[0, 1]], lr=0.5, task="linear")
    grad = X.T @ (X @ np.zeros(2) - y) / 2
    assert np.allclose(w, -0.5 * grad)
    assert w.tolist() == [0.25 * (1 + 6), 0.25 * (2 + 8)]


def test_linear_convergence_to_true_weights():
    X, _ = make_regression_data(200, 3, seed=11, noise=0.0)
    w_true = np.array([0.5, -0.25, 0.125])
    y = X @ w_true
    sched = [list(range(200))] * 800
    w = train_plain(X, y, sched, lr=0.5, task="linear")
    assert np.allclose(w, w_true, atol=5e-3)
    assert rmse(y, X @ w) < 1e-3


def test_schedule_is_respected():
    X = np.array([[1.0], [100.0]])
    y = np.array([1.0, 50.0])
    # only sample 0 is ever visited, so the huge sample cannot move w
    w = train_plain(X, y, [[0], [0], [0]], lr=0.1, task="linear")
    assert abs(w[0]) < 0.3
    w2 = train_plain(X, y, [[1]], lr=0.1, task="linear")
    assert abs(w2[0]) > 100


def test_poly_sigmoid_values():
    assert poly_sigmoid(0.0) == 0.5
    assert math.isclose(poly_sigmoid(1.0), 0.701)
    assert math.isclose(poly_sigmoid(-1.0), 0.299)
    assert SIGMOID_POLY[2] == 0.0
    # strictly increasing on a wide range: derivative q1 + 3 q3 z^2 > 0
    z = np.linspace(-8, 8, 200)
    assert np.all(np.diff(poly_sigmoid(z)) > 0)


def test_true_sigmoid():
    assert true_sigmoid(0.0) == 0.5
    assert math.isclose(true_sigmoid(2.0), 1 / (1 + math.exp(-2)))


def test_surrogate_gradient_matches_finite_difference():
    rng = np.random.default_rng(4)
    X = rng.uniform(0, 1, size=(30, 4))
    y = (rng.uniform(size=30) > 0.5).astype(float)
    w = rng.normal(scale=0.3, size=4)
    grad = X.T @ (poly_sigmoid(X @ w) - y) / len(y)
    eps = 1e-6
    for j in range(4):
        e = np.zeros(4)
        e[j] = eps
        num = (surrogate_loss(X @ (w + e), y)
               - surrogate_loss(X @ (w - e), y)) / (2 * eps)
        assert math.isclose(num, grad[j], rel_tol=1e-5, abs_tol=1e-8)


def test_divergence_raises():
    X = np.array([[10.0], [12.0]])
    y = np.array([0.0, 1.0])
    with pytest.raises(NonFiniteLoss):
        train_plain(X, y, [[0, 1]] * 400, lr=50.0, task="linear")
    with pytest.raises(EmptyInput):
        train_plain(np.zeros((0, 2)), np.zeros(0), [], 0.1)
    with pytest.raises(ValueError):
        train_plain(X, y, [[0]], 0.1, task="quadratic")


def test_rmse():
    assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert rmse([0.0, 0.0], [3.0, 4.0]) == math.sqrt(12.5)
    with pytest.raises(EmptyInput):
        rmse([], [])


def test_auc_hand_cases():
    y = [1, 1, 0, 0]
    assert auc(y, [0.9, 0.8, 0.2, 0.1]) == 1.0
    assert auc(y, [0.1, 0.2, 0.8, 0.9]) == 0.0
    assert auc(y, [0.5, 0.5, 0.5, 0.5]) == 0.5          # all tied: half credit
    assert auc([1, 0], [0.7, 0.7]) == 0.5
    assert auc([1, 1, 0, 0], [0.9, 0.3, 0.3, 0.1]) == 0.875
    with pytest.raises(SingleClassError):
        auc([1, 1], [0.1, 0.2])


def test_auc_invariant_under_monotone_sigmoid():
    rng = np.random.default_rng(9)
    z = rng.normal(size=100)
    y = (rng.uniform(size=100) < true_sigmoid(2 * z)).astype(float)
    assert auc(y, z) == auc(y, poly_sigmoid(z))
    assert auc(y, z) == auc(y, true_sigmoid(z))


def test_logistic_training_reaches_high_auc():
    X, y = make_classification_data(400, 8, seed=21)
    sched = build_batch_schedule(400, 40, 300, seed=5)
    for task in ("logistic-poly", "logistic-true"):
        w = train_plain(X, y, sched, lr=0.5, task=task)
        assert auc(y, X @ w) >= 0.95, task
