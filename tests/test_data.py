"""Dataset plumbing: quantization, normalization, CSV, schedules, folds."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from secregress.data import (
    _uniform_grid,
    build_batch_schedule,
    check_binary_labels,
    kfold,
    load_csv,
    make_classification_data,
    make_regression_data,
    median,
    minmax_normalize,
    quantize,
)
from secregress.errors import (
    EmptyInput,
    LabelDomainError,
    MissingLabelColumn,
    ParseError,
    TooFewRows,
)
from secregress.ring import decode_raw, encode_raw
from secregress.rng import CounterDrbg

import draw_reference


def test_quantize_matches_encoder_rounding():
    vals = [0.0, 1.5, -1.5, 0.1, -0.1, 2.0 ** -21, -(2.0 ** -21),
            3 * 2.0 ** -21, 123.456, -99.999]
    q = quantize(vals)
    for v, qq in zip(vals, q):
        assert qq == decode_raw(encode_raw(v))
    # quantized values encode without further rounding
    assert np.array_equal(quantize(q), q)


def test_quantize_grid():
    assert quantize(0.5 * 2.0 ** -20) == 2.0 ** -20          # half away from 0
    assert quantize(-0.5 * 2.0 ** -20) == -(2.0 ** -20)
    assert quantize(0.49 * 2.0 ** -20) == 0.0


def test_minmax_normalize():
    X = np.array([[1.0, 5.0, 7.0], [3.0, 5.0, 3.0], [2.0, 5.0, 5.0]])
    Xn = minmax_normalize(X)
    assert Xn.min() >= 0.0 and Xn.max() <= 1.0
    assert np.array_equal(Xn[:, 1], np.zeros(3))      # constant column
    assert Xn[0, 0] == 0.0 and Xn[1, 0] == 1.0

    y = np.array([10.0, 30.0, 20.0])
    _, yn = minmax_normalize(X, scale_labels=True, y=y)
    assert yn.tolist() == [0.0, 1.0, 0.5]
    _, same = minmax_normalize(X, scale_labels=False, y=y)
    assert np.array_equal(same, y)


def test_regression_data_deterministic_and_on_grid():
    X1, y1 = make_regression_data(50, 4, seed=7)
    X2, y2 = make_regression_data(50, 4, seed=7)
    X3, _ = make_regression_data(50, 4, seed=8)
    assert np.array_equal(X1, X2) and np.array_equal(y1, y2)
    assert not np.array_equal(X1, X3)
    assert X1.shape == (50, 4)
    assert np.array_equal(quantize(X1), X1)
    assert np.array_equal(quantize(y1), y1)
    assert X1.min() >= 0.0 and X1.max() <= 1.0
    assert y1.min() >= 0.0 and y1.max() <= 1.0


def test_classification_data_two_classes_on_grid():
    X, y = make_classification_data(120, 5, seed=3)
    assert set(np.unique(y)) == {0.0, 1.0}
    assert np.array_equal(quantize(X), X)
    assert 0.2 < y.mean() < 0.8     # reasonably balanced


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 10, 59, 60, 999, 1000])
def test_median_is_numpys_bit_for_bit(n):
    rng = np.random.default_rng(n)
    for scale in (1e-6, 1.0, 1e6):
        for a in (rng.standard_normal(n) * scale,
                  rng.integers(-3, 4, n).astype(np.float64)):  # ties
            got = np.float64(median(a))
            assert got.tobytes() == np.float64(np.median(a)).tobytes()


def test_logistic_run_leaves_numpy_ma_unloaded():
    # np.median and np.unique import numpy.ma, about 20 ms of a party's
    # start-up or of its first engine run
    src = Path(__file__).resolve().parent.parent / "src"
    code = """if True:
        import sys
        from secregress.orchestration import spawn_parties
        from secregress.spec import RunSpec
        spec = RunSpec.from_dict({
            "task": "LoRe", "scheme": "vertical", "smm_variant": "OTI",
            "parties": 2, "folds": 2,
            "dataset": {"kind": "synthetic-logistic", "m": 64, "d": 4,
                        "seed": 1},
            "config": {"batch_size": 8, "iterations": 2, "seed": 1}})
        spawn_parties(spec, "threads", timeout=60.0)
        print("numpy.ma" in sys.modules)
    """
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(src)))
    assert out.stdout.strip() == "False"


def test_binary_labels():
    for ok in ([0.0, 1.0, 1.0], [0, 1], [True, False], np.zeros(3), []):
        check_binary_labels(ok)
    for bad, shown in (([0.0, 2.0], "[0.0, 2.0]"), ([1.0, -1.0], "[-1.0, 1.0]"),
                       ([0.5], "[0.5]"), (["a", "b"], "['a', 'b']")):
        with pytest.raises(LabelDomainError, match=re.escape(shown)):
            check_binary_labels(bad)
    with pytest.raises(LabelDomainError):
        check_binary_labels([0.0, float("nan")])


def test_load_csv(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("a,b,target\n1,2,3\n4,5,6\n7,8,9\n")
    X, y, names = load_csv(str(p), "target")
    assert names == ["a", "b"]
    assert X.tolist() == [[1, 2], [4, 5], [7, 8]]
    assert y.tolist() == [3, 6, 9]

    p.write_text("a,b\n1,2\n")
    with pytest.raises(MissingLabelColumn):
        load_csv(str(p), "target")
    p.write_text("a,target\n1\n2,3\n")
    with pytest.raises(ParseError):
        load_csv(str(p), "target")
    p.write_text("a,target\nx,1\n2,3\n")
    with pytest.raises(ParseError):
        load_csv(str(p), "target")
    p.write_text("")
    with pytest.raises(EmptyInput):
        load_csv(str(p), "target")
    p.write_text("a,target\n1,2\n")
    with pytest.raises(TooFewRows):
        load_csv(str(p), "target")


def test_batch_schedule():
    sched = build_batch_schedule(100, 8, 10, seed=5)
    assert len(sched) == 10
    for batch in sched:
        assert len(batch) == 8
        assert len(set(batch)) == 8
        assert all(0 <= i < 100 for i in batch)
    assert sched == build_batch_schedule(100, 8, 10, seed=5)
    assert sched != build_batch_schedule(100, 8, 10, seed=6)
    assert sched[0] != sched[1]
    with pytest.raises(ValueError):
        build_batch_schedule(5, 6, 1, seed=0)


def test_kfold():
    folds = kfold(23, 5, seed=1)
    assert len(folds) == 5
    all_test = sorted(i for _, test in folds for i in test)
    assert all_test == list(range(23))
    for train, test in folds:
        assert not set(train) & set(test)
        assert sorted(train + test) == list(range(23))
    assert folds == kfold(23, 5, seed=1)
    with pytest.raises(ValueError):
        kfold(10, 1, seed=0)
    with pytest.raises(ValueError):
        kfold(3, 4, seed=0)


@pytest.mark.parametrize("shape,lo,hi", [
    ((40, 3), 0.0, 1.0), ((7,), -1.0, 1.0), ((13,), -0.02, 0.02),
    ((1200,), 0.0, 1.0), ((30,), -2.0 ** 42, 2.0 ** 42),
])
def test_uniform_grid_matches_word_by_word(shape, lo, hi):
    fast, slow = CounterDrbg("grid"), CounterDrbg("grid")
    got = _uniform_grid(fast, shape, lo, hi)
    want = draw_reference.uniform_grid(slow, shape, lo, hi)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert fast.u64() == slow.u64()
