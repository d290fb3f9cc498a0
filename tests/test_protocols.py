"""End-to-end checks for the secure training engines.

Every test drives real parties over loopback sessions and compares the
reconstructed models against the float64 reference replaying the same
batch schedule. Truncation puts each run a few 2^-20 ulps away from the
reference, never bit-equal, so tolerances here are stated in ulps.
"""

import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secregress import sharing
from secregress.baseline import (
    SIGMOID_POLY,
    auc,
    poly_sigmoid,
    rmse,
    train_plain,
)
from secregress.data import (
    build_batch_schedule,
    iter_batch_schedule,
    make_classification_data,
    make_regression_data,
    quantize,
)
from secregress.errors import (
    BatchTooLarge,
    MagnitudeOverflow,
    PolicyMismatch,
    TransportError,
    TripleExhausted,
)
from secregress.orchestration import _run_threads
from secregress.protocols import (
    HorizontalEngine,
    TrainingConfig,
    VerticalEngine,
    horizontal_schedule,
    product_plan,
    select_batch_owner,
    vertical,
)
from secregress.protocols.base import _EngineBase
from secregress.protocols.config import (
    ScheduleDigest,
    iter_horizontal_schedule,
)
from secregress.ring import FRAC_BITS, RingMatrix
from secregress.rng import CounterDrbg
from secregress.sharing import share_matrix
from secregress.smm import (
    elementwise_steps,
    generate_triple,
    smm1_steps,
    smm2_x_steps,
    smm2_y_steps,
    triple_halves,
)
from secregress.transport import loopback_sessions

import comm_model
from one_product import run_one
from oracles import (
    decode_rows,
    reconstruct,
    record,
    schedule_hash,
    surrogate_loss,
    weights,
)

ULP = 2.0 ** -20
TOL = 10 * ULP  # oracle-equivalence budget per coordinate


def run_parties(n, cfg, fns, timeout=60.0):
    """Run one callable per party over loopback threads, through the
    orchestrator's harness: a party's own error is raised before the
    transport errors it drags its peers into."""
    rngs = [cfg.private_rng(i) for i in range(n)]
    sessions = loopback_sessions(n, rngs, timeout=timeout)
    return _run_threads(sessions, [lambda i=i: fns[i](sessions[i])
                                   for i in range(n)], timeout + 30)[0]


def split_rows(X, y, cuts):
    """Row slices per party from cumulative cut points."""
    bounds = [0, *cuts, len(X)]
    return [(X[bounds[i]:bounds[i + 1]], y[bounds[i]:bounds[i + 1]])
            for i in range(len(bounds) - 1)]


def run_horizontal(cfg, X, y, cuts, task="linear"):
    parts = split_rows([list(r) for r in X], list(y), cuts)
    fns = [
        (lambda s, xi=xi, yi=yi: HorizontalEngine(s, cfg, task).run(xi, yi))
        for xi, yi in parts
    ]
    return run_parties(len(parts), cfg, fns)


def run_vertical(cfg, X, y, col_cuts, task="linear"):
    bounds = [0, *col_cuts, len(X[0])]
    blocks = [[list(r[bounds[i]:bounds[i + 1]]) for r in X]
              for i in range(len(bounds) - 1)]
    fns = [
        (lambda s, xb=xb, lab=(list(y) if i == cfg.label_party else None):
         VerticalEngine(s, cfg, task).run(xb, lab))
        for i, xb in enumerate(blocks)
    ]
    return run_parties(len(blocks), cfg, fns)


def max_drift(weights, reference):
    return max(abs(a - b) for a, b in zip(weights, reference))


# -- the rate word ---------------------------------------------------------

def test_lr_word_is_the_encoding_of_lr_over_batch():
    # the word lr_word computed by hand before it called encode_raw:
    # round-half-up of lr/B * 2^f, refused from 2^63 (lr/B >= 2^43) on
    def by_hand(lr, batch):
        word = math.floor(lr / batch * (1 << FRAC_BITS) + 0.5)
        if word >= 1 << 63:
            raise MagnitudeOverflow
        return word

    edge = 2.0 ** (63 - FRAC_BITS)
    rates = [0, 1e-9, 2 ** -21, 3 * 2 ** -21, 1e-4, 0.01, 0.1, 1 / 3, 1,
             3, 8, 64, 1e6, math.nextafter(edge, 0), edge,
             math.nextafter(2 * edge, 0), 2 * edge]
    outcomes = set()
    for lr, batch in itertools.product(
            rates, [1, 2, 3, 4, 5, 7, 8, 16, 1000, 2 ** 20]):
        cfg = TrainingConfig(learning_rate=lr, batch_size=batch)
        try:
            want = by_hand(lr, batch)
        except MagnitudeOverflow:
            with pytest.raises(MagnitudeOverflow):
                cfg.lr_word()
            outcomes.add("overflow")
        else:
            assert cfg.lr_word() == want, (lr, batch)
            outcomes.add("word")
    assert outcomes == {"overflow", "word"}


# -- batch-owner policy ----------------------------------------------------

def test_sequential_owner_is_round_robin():
    assert [select_batch_owner(t, 3, "sequential", 0)
            for t in range(4)] == [0, 1, 2, 0]


def test_random_owner_reproducible_and_seed_sensitive():
    a = [select_batch_owner(t, 4, "random", "s1") for t in range(64)]
    b = [select_batch_owner(t, 4, "random", "s1") for t in range(64)]
    c = [select_batch_owner(t, 4, "random", "s2") for t in range(64)]
    assert a == b
    assert a != c
    assert set(a) <= {0, 1, 2, 3}


def test_unknown_owner_policy_rejected():
    with pytest.raises(PolicyMismatch):
        select_batch_owner(0, 2, "alphabetical", 0)


def test_horizontal_schedule_skips_small_parties():
    cfg = TrainingConfig(batch_size=5, iterations=9, seed="sched")
    owners, local_rows, global_rows = horizontal_schedule(cfg, [12, 3, 20])
    assert len(owners) == 9
    assert 1 not in owners  # 3 rows cannot fill a batch of 5
    offsets = [0, 12, 15]
    sizes = [12, 3, 20]
    for t, owner in enumerate(owners):
        assert len(local_rows[t]) == 5
        assert all(0 <= r < sizes[owner] for r in local_rows[t])
        assert global_rows[t] == [offsets[owner] + r for r in local_rows[t]]


def test_horizontal_schedule_no_eligible_owner():
    cfg = TrainingConfig(batch_size=5, iterations=3)
    with pytest.raises(BatchTooLarge):
        horizontal_schedule(cfg, [3, 2])


@settings(max_examples=25, deadline=None)
@given(
    sizes=st.lists(st.integers(min_value=0, max_value=30), min_size=2,
                   max_size=4),
    batch=st.integers(min_value=1, max_value=8),
)
def test_horizontal_schedule_rows_always_in_owner_range(sizes, batch):
    cfg = TrainingConfig(batch_size=batch, iterations=6, seed="prop")
    if not any(sz >= batch for sz in sizes):
        with pytest.raises(BatchTooLarge):
            horizontal_schedule(cfg, sizes)
        return
    owners, local_rows, _ = horizontal_schedule(cfg, sizes)
    again = horizontal_schedule(cfg, sizes)
    assert (owners, local_rows) == (again[0], again[1])
    for t, owner in enumerate(owners):
        assert sizes[owner] >= batch
        assert len(set(local_rows[t])) == batch
        assert all(0 <= r < sizes[owner] for r in local_rows[t])


@settings(max_examples=40, deadline=None)
@given(
    sizes=st.lists(st.integers(min_value=0, max_value=30), min_size=2,
                   max_size=4),
    batch=st.integers(min_value=1, max_value=8),
    iterations=st.integers(min_value=1, max_value=70),  # up to 3 blocks
    policy=st.sampled_from(["sequential", "random"]),
)
def test_per_iteration_draws_match_the_schedule_lists(sizes, batch,
                                                      iterations, policy):
    cfg = TrainingConfig(batch_size=batch, iterations=iterations,
                         owner_policy=policy, seed="lazy")
    if any(sz >= batch for sz in sizes):
        owners, local_rows, global_rows = horizontal_schedule(cfg, sizes)
        digest, drawn = ScheduleDigest(), []
        for owner, rows, global_ in iter_horizontal_schedule(cfg, sizes):
            digest.add(global_)
            drawn.append((owner, rows, global_))
        assert drawn == list(zip(owners, local_rows, global_rows))
        assert digest.hexdigest() == schedule_hash(global_rows)
    m = sum(sizes)
    if batch <= m:
        schedule = build_batch_schedule(m, batch, iterations, "lazy")
        digest, drawn = ScheduleDigest(), []
        for rows in iter_batch_schedule(m, batch, iterations, "lazy"):
            digest.add(rows)
            drawn.append(rows)
        assert drawn == schedule
        assert digest.hexdigest() == schedule_hash(schedule)


def test_lazy_schedules_refuse_a_batch_before_drawing():
    cfg = TrainingConfig(batch_size=5, iterations=3)
    with pytest.raises(BatchTooLarge):
        iter_horizontal_schedule(cfg, [3, 0])
    with pytest.raises(ValueError):
        iter_batch_schedule(4, 5, 3, seed=0)


@pytest.mark.parametrize("variant", ["smm1", "smm2"])
def test_recording_leaves_the_transcript_digest_unchanged(variant):
    X, y = make_regression_data(40, 3, seed=4)
    cfg = TrainingConfig(batch_size=5, iterations=4, smm_variant=variant,
                         seed="rec")
    parts = split_rows([list(r) for r in X], list(y), [20])

    def party(recorded):
        def go(s):
            if recorded:
                record(s)
            res = HorizontalEngine(s, cfg).run(*parts[s.party_id])
            if recorded:
                h = hashlib.sha256()
                for frame in s.transcript.frames:
                    h.update(frame.encode())
                assert h.hexdigest() == res.transcript_hash
            return res.transcript_hash, len(s.transcript)
        return go

    plain = run_parties(2, cfg, [party(False)] * 2)
    assert run_parties(2, cfg, [party(True)] * 2) == plain


# -- shared sigmoid --------------------------------------------------------

def _grid_poly(z):
    """The polynomial the shares actually evaluate: coefficients snap to
    the 2^-20 grid, which costs up to half an ulp per coefficient and
    scales with z^3, so the float-coefficient curve is the wrong
    reference away from small z."""
    q = [float(quantize(c)) for c in SIGMOID_POLY]
    return q[0] + q[1] * z + q[2] * z * z + q[3] * z ** 3


@pytest.mark.parametrize("variant", ["smm1", "smm2"])
def test_sigmoid_shares_track_polynomial(variant):
    zs = [0.0, 1.0, -1.0, 0.5, -0.25, 3.0, -3.0]
    n = len(zs)
    # the sigmoid runs on a batch-size column
    cfg = TrainingConfig(smm_variant=variant, seed="sig", batch_size=n)
    z_enc = RingMatrix.encode_rows([[v] for v in zs])
    shares = share_matrix(z_enc.arr, 2, CounterDrbg("sig-shares"))
    # the sigmoid's three elementwise products, as a plan for the dealer
    plan = [(0, 1, n, True), (0, 1, n, True), (1, 0, n, True)]

    def sigmoid(s, sh):
        eng = HorizontalEngine(s, cfg, "logistic",
                               triple_halves(cfg.seed, plan, s.party_id))
        eng._stages([1, 1])  # the fold's tapes, the sigmoid's among them
        return RingMatrix.wrap(eng._sigmoid_from_zf(sh))

    fns = [(lambda s, sh=shares[i]: sigmoid(s, sh)) for i in range(2)]
    out = run_parties(2, cfg, fns)
    got = [row[0] for row in
           decode_rows(reconstruct(out), frac_bits=40)]
    for z, val in zip(zs, got):
        assert abs(val - _grid_poly(z)) <= 3 * ULP
        if abs(z) <= 1.0:
            assert abs(val - poly_sigmoid(z)) <= 3 * ULP
    assert abs(got[0] - 0.5) <= ULP          # z = 0
    assert abs(got[1] - 0.701) <= 3 * ULP    # z = 1
    assert abs(got[2] - 0.299) <= 3 * ULP    # z = -1


# -- horizontal linear -----------------------------------------------------

@pytest.mark.parametrize("variant", ["smm1", "smm2"])
def test_horizontal_linear_matches_reference(variant):
    X, y = make_regression_data(120, 4, seed=7)
    cfg = TrainingConfig(learning_rate=0.1, batch_size=8, iterations=40,
                         smm_variant=variant, seed="h-eq")
    res = run_horizontal(cfg, X, y, [70])
    _, _, global_rows = horizontal_schedule(cfg, [70, 50])
    w_ref = train_plain(X, y, global_rows, cfg.effective_rate())
    assert res[0].weights_raw == res[1].weights_raw
    assert max_drift(weights(res[0]), w_ref) <= TOL
    r_sec = rmse(y, np.asarray(X) @ np.asarray(weights(res[0])))
    r_ref = rmse(y, np.asarray(X) @ w_ref)
    assert abs(r_sec - r_ref) < 5e-5


def test_horizontal_single_feature_recovers_slope():
    xs = list(quantize(np.linspace(0.5, 1.5, 8)))
    X = [[v] for v in xs]
    y = list(quantize([2.0 * v for v in xs]))
    cfg = TrainingConfig(learning_rate=0.1, batch_size=2, iterations=100,
                         seed="slope")
    res = run_horizontal(cfg, X, y, [4])
    assert abs(weights(res[0])[0] - 2.0) <= 0.05


def test_zero_learning_rate_leaves_zero_init():
    X, y = make_regression_data(30, 3, seed=3)
    cfg = TrainingConfig(learning_rate=0.0, batch_size=5, iterations=12,
                         seed="frozen")
    res = run_horizontal(cfg, X, y, [15])
    assert res[0].weights_raw == [0, 0, 0]
    assert weights(res[0]) == [0.0, 0.0, 0.0]


def test_horizontal_three_parties_matches_reference():
    X, y = make_regression_data(300, 5, seed=17)
    cfg = TrainingConfig(learning_rate=0.1, batch_size=10, iterations=50,
                         seed="h3")
    res = run_horizontal(cfg, X, y, [120, 220])
    owners, _, global_rows = horizontal_schedule(cfg, [120, 100, 80])
    w_ref = train_plain(X, y, global_rows, cfg.effective_rate())
    assert res[0].weights_raw == res[1].weights_raw == res[2].weights_raw
    assert max_drift(weights(res[0]), w_ref) <= TOL
    assert owners[:6] == [0, 1, 2, 0, 1, 2]
    assert res[0].schedule_hash == schedule_hash(global_rows)


def test_one_party_holding_everything_matches_reference():
    """The partition must not matter: a degenerate split where one party
    owns every row follows the single-machine trajectory."""
    X, y = make_regression_data(40, 3, seed=9)
    cfg = TrainingConfig(learning_rate=0.1, batch_size=5, iterations=30,
                         seed="lopsided")
    res = run_horizontal(cfg, X, y, [40])
    owners, _, global_rows = horizontal_schedule(cfg, [40, 0])
    assert set(owners) == {0}
    assert res[0].schedule_hash == schedule_hash(global_rows)
    w_ref = train_plain(X, y, global_rows, cfg.effective_rate())
    assert max_drift(weights(res[0]), w_ref) <= TOL


def test_config_disagreement_is_detected():
    X, y = make_regression_data(30, 3, seed=5)
    parts = split_rows([list(r) for r in X], list(y), [15])
    cfg_a = TrainingConfig(learning_rate=0.1, batch_size=5, iterations=5,
                           seed="agree")
    cfg_b = TrainingConfig(learning_rate=0.01, batch_size=5, iterations=5,
                           seed="agree")
    fns = [
        (lambda s: HorizontalEngine(s, cfg_a).run(*parts[0])),
        (lambda s: HorizontalEngine(s, cfg_b).run(*parts[1])),
    ]
    with pytest.raises(PolicyMismatch):
        run_parties(2, cfg_a, fns, timeout=5.0)


# -- vertical linear -------------------------------------------------------

@pytest.mark.parametrize("variant", ["smm1", "smm2"])
def test_vertical_linear_matches_reference(variant):
    X, y = make_regression_data(300, 5, seed=31)
    cfg = TrainingConfig(learning_rate=0.1, batch_size=10, iterations=50,
                         smm_variant=variant, seed="v-eq")
    res = run_vertical(cfg, X, y, [3])
    schedule = build_batch_schedule(300, 10, 50, "v-eq")
    w_ref = train_plain(X, y, schedule, cfg.effective_rate())
    w_sec = weights(res[0]) + weights(res[1])  # blocks: columns 0-2 and 3-4
    assert res[0].block_sizes == [3, 2]
    assert max_drift(w_sec, w_ref) <= TOL


def test_vertical_sum_of_two_features():
    rng = CounterDrbg("vsum-data")
    x1 = quantize([rng.randrange(1000) / 1000 for _ in range(40)])
    x2 = quantize([rng.randrange(1000) / 1000 for _ in range(40)])
    X = [[a, b] for a, b in zip(x1, x2)]
    y = [a + b for a, b in zip(x1, x2)]
    cfg = TrainingConfig(learning_rate=0.1, batch_size=5, iterations=200,
                         seed="vsum")
    res = run_vertical(cfg, X, y, [1])
    assert abs(weights(res[0])[0] - 1.0) <= 0.05
    assert abs(weights(res[1])[0] - 1.0) <= 0.05


def test_vertical_zero_labels_barely_moves():
    """All-zero labels with zero init keep the model at zero up to
    truncation noise (the share-wise rounding carries make exact zero
    unattainable, so this asserts the honest drift bound)."""
    X, _ = make_regression_data(60, 4, seed=41)
    y = [0.0] * 60
    cfg = TrainingConfig(learning_rate=0.1, batch_size=6, iterations=100,
                         seed="zeros")
    res = run_vertical(cfg, X, y, [2])
    for r in res:
        assert all(abs(w) <= 1e-4 for w in weights(r))


def test_vertical_three_parties_matches_reference():
    X, y = make_regression_data(200, 5, seed=47)
    cfg = TrainingConfig(learning_rate=0.1, batch_size=10, iterations=30,
                         seed="v3", label_party=2)
    res = run_vertical(cfg, X, y, [2, 4])
    schedule = build_batch_schedule(200, 10, 30, "v3")
    w_ref = train_plain(X, y, schedule, cfg.effective_rate())
    w_sec = weights(res[0]) + weights(res[1]) + weights(res[2])
    assert [r.block_sizes for r in res] == [[2, 2, 1]] * 3
    assert {r.schedule_hash for r in res} == {schedule_hash(schedule)}
    assert max_drift(w_sec, w_ref) <= TOL


def test_vertical_labels_must_sit_with_configured_party():
    X, y = make_regression_data(20, 2, seed=51)
    cfg = TrainingConfig(batch_size=5, iterations=2, seed="mislabel")
    blocks = [[[r[0]] for r in X], [[r[1]] for r in X]]
    fns = [
        (lambda s, xb=xb: VerticalEngine(s, cfg).run(xb, list(y)))
        for xb in blocks  # both supply labels; party 1 must refuse
    ]
    with pytest.raises(ValueError):
        run_parties(2, cfg, fns, timeout=5.0)


# -- logistic --------------------------------------------------------------

def test_horizontal_logistic_separable_auc():
    X, y = make_classification_data(200, 2, seed=61)
    cfg = TrainingConfig(learning_rate=0.5, batch_size=10, iterations=60,
                         seed="hlog")
    res = run_horizontal(cfg, X, y, [120], task="logistic")
    _, _, global_rows = horizontal_schedule(cfg, [120, 80])
    w_ref = train_plain(X, y, global_rows, cfg.effective_rate(),
                         task="logistic-poly")
    a_ref = auc(y, np.asarray(X) @ w_ref)
    a_sec = auc(y, np.asarray(X) @ np.asarray(weights(res[0])))
    assert a_ref >= 0.95
    assert a_sec >= 0.95
    assert abs(a_sec - a_ref) <= 0.02


def test_vertical_logistic_separable_auc():
    X, y = make_classification_data(200, 2, seed=67)
    cfg = TrainingConfig(learning_rate=0.5, batch_size=10, iterations=60,
                         seed="vlog", label_party=1)
    res = run_vertical(cfg, X, y, [1], task="logistic")
    schedule = build_batch_schedule(200, 10, 60, "vlog")
    w_ref = train_plain(X, y, schedule, cfg.effective_rate(),
                         task="logistic-poly")
    a_ref = auc(y, np.asarray(X) @ w_ref)
    w_sec = weights(res[0]) + weights(res[1])
    a_sec = auc(y, np.asarray(X) @ np.asarray(w_sec))
    assert a_ref >= 0.95
    assert a_sec >= 0.95
    assert abs(a_sec - a_ref) <= 0.02


def test_logistic_first_step_is_the_surrogate_gradient():
    """One sample, one full-weight step: the recovered model equals the
    negated surrogate gradient at w = 0, checked against both the closed
    form (sigma(0) - y) x and a central finite difference."""
    x = [0.25, 0.75, 0.5]
    cfg = TrainingConfig(learning_rate=1.0, batch_size=1, iterations=1,
                         seed="gradchk")
    res = run_horizontal(cfg, [x, x], [1.0, 1.0], [1], task="logistic")
    grad_sec = [-w for w in weights(res[0])]
    closed = [(poly_sigmoid(0.0) - 1.0) * v for v in x]
    assert max_drift(grad_sec, closed) <= 5 * ULP
    eps = 1e-4
    for j in range(3):
        wp = np.zeros(3)
        wm = np.zeros(3)
        wp[j] += eps
        wm[j] -= eps
        fd = (surrogate_loss(np.asarray(x) @ wp, [1.0])
              - surrogate_loss(np.asarray(x) @ wm, [1.0])) / (2 * eps)
        assert abs(grad_sec[j] - fd) <= 1e-3 * max(abs(fd), 1e-6)


def test_logistic_all_positive_first_error_is_minus_half():
    """With every label 1 and zero init the first-iteration residual is
    sigma(0) - 1 = -0.5, so one step moves each weight by
    +0.5 * lr * mean(x_j) up to truncation noise."""
    X = [[0.5, 0.25], [0.75, 1.0]]
    cfg = TrainingConfig(learning_rate=1.0, batch_size=2, iterations=1,
                         seed="allpos")
    res = run_horizontal(cfg, X, [1.0, 1.0], [2], task="logistic")
    expected = [0.5 * (0.5 + 0.75) / 2, 0.5 * (0.25 + 1.0) / 2]
    assert max_drift(weights(res[0]), expected) <= 5 * ULP


# -- SMM variant interchangeability ----------------------------------------

def test_variants_land_on_the_same_model():
    """Triple-based and triple-free products are interchangeable: same
    seed, same schedule, models equal up to accumulated truncation noise
    (bit-equality is out of reach because the two variants randomize the
    pre-truncation shares differently)."""
    X, y = make_regression_data(100, 4, seed=71)
    out = {}
    for variant in ("smm1", "smm2"):
        cfg = TrainingConfig(learning_rate=0.1, batch_size=8, iterations=40,
                             smm_variant=variant, seed="swap")
        out[variant] = weights(run_horizontal(cfg, X, y, [60])[0])
    assert max_drift(out["smm1"], out["smm2"]) <= 2 * TOL


# -- the product plan and the triple dealer ---------------------------------

@pytest.mark.parametrize("n", [2, 3, 4, 8])
@pytest.mark.parametrize("layout", ["horizontal", "vertical"])
@pytest.mark.parametrize("task", ["linear", "logistic"])
def test_product_plan_matches_the_hand_written_model(task, layout, n):
    # the plan derived from config.iteration_stages against the per-layout
    # closed form it replaced
    cfg = TrainingConfig(batch_size=3, iterations=2)
    widths = [4] * n if layout == "horizontal" else [1 + i % 3
                                                      for i in range(n)]
    assert (product_plan(cfg, task, layout, widths)
            == comm_model.product_plan(cfg, task, layout, widths))


def test_triple_draws_match_the_projection(monkeypatch):
    # every engine opens exactly the plan's products, in the plan's order,
    # and each party draws exactly its own halves of it, to the last one
    opened = {}
    run_stage = _EngineBase._run_stage

    def recording_stage(self, stage, operands):
        opened.setdefault(self.me, []).extend(stage.plan)
        return run_stage(self, stage, operands)

    monkeypatch.setattr(_EngineBase, "_run_stage", recording_stage)
    for task, layout, n in itertools.product(
            ("linear", "logistic"), ("horizontal", "vertical"), (2, 3)):
        make = (make_regression_data if task == "linear"
                else make_classification_data)
        X, y = make(24, 5, seed=81)
        cfg = TrainingConfig(learning_rate=0.1, batch_size=4, iterations=3,
                             seed="draws")
        if layout == "horizontal":
            widths = [5] * n
            inputs = split_rows([list(r) for r in X], list(y),
                                [10, 18][:n - 1])
            engine = HorizontalEngine
        else:
            bounds = [0, 2, 4, 5] if n == 3 else [0, 3, 5]
            spans = list(zip(bounds, bounds[1:]))
            widths = [hi - lo for lo, hi in spans]
            inputs = [([list(r[lo:hi]) for r in X],
                       list(y) if i == cfg.label_party else None)
                      for i, (lo, hi) in enumerate(spans)]
            engine = VerticalEngine
        plan = product_plan(cfg, task, layout, widths)
        halves = [iter(list(triple_halves(cfg.seed, plan, i)))
                  for i in range(n)]
        opened.clear()
        run_parties(n, cfg, [
            (lambda s, i=i: engine(s, cfg, task, halves[i]).run(*inputs[i]))
            for i in range(n)])
        for i in range(n):
            assert opened[i] == plan, (task, layout, n, i)
            assert next(halves[i], None) is None, (task, layout, n, i)


def test_vertical_triple_draws_match_the_projection():
    # each party of a 3-party vertical run draws one half per plan product
    # it is in, and the run uses up its dealt list exactly
    X, y = make_regression_data(30, 5, seed=83)
    cfg = TrainingConfig(learning_rate=0.1, batch_size=5, iterations=6,
                         seed="vdraws")
    bounds = [0, 2, 4, 5]
    blocks = [[list(r[bounds[i]:bounds[i + 1]]) for r in X]
              for i in range(3)]
    plan = product_plan(cfg, "linear", "vertical", [2, 2, 1])
    dealt = [list(triple_halves(cfg.seed, plan, i)) for i in range(3)]
    halves = [iter(d) for d in dealt]

    def party(s, i, xb):
        eng = VerticalEngine(s, cfg, "linear", halves[i])
        return eng.run(xb, list(y) if i == cfg.label_party else None)

    run_parties(3, cfg, [(lambda s, i=i, xb=xb: party(s, i, xb))
                         for i, xb in enumerate(blocks)])
    for i in range(3):
        assert len(dealt[i]) == sum(i in (a, b) for a, b, _, _ in plan)
        assert next(halves[i], None) is None


def test_file_pool_replay_and_exhaustion():
    # halves cut from triples made outside the seed's dealer replay in plan
    # order to the plain model, and a list one half short runs dry
    X, y = make_regression_data(20, 2, seed=91)
    cfg = TrainingConfig(learning_rate=0.1, batch_size=4, iterations=6,
                         seed="filepool")
    plan = product_plan(cfg, "linear", "horizontal", [2, 2])
    gen = CounterDrbg("filepool-gen")
    dealt = [[], []]
    for k, (a, b, shape, elementwise) in enumerate(plan):
        assert not elementwise
        t = generate_triple(*shape, gen.child("t", k))
        dealt[a].append(t.half(0))
        dealt[b].append(t.half(1))

    parts = split_rows([list(r) for r in X], list(y), [12])

    def fns(lists):
        return [(lambda s, i=i, xi=xi, yi=yi:
                 HorizontalEngine(s, cfg, "linear", lists[i]).run(xi, yi))
                for i, (xi, yi) in enumerate(parts)]

    res = run_parties(2, cfg, fns(dealt))
    _, _, global_rows = horizontal_schedule(cfg, [12, 8])
    w_ref = train_plain(X, y, global_rows, cfg.effective_rate())
    assert max_drift(weights(res[0]), w_ref) <= TOL

    with pytest.raises(TripleExhausted):
        run_parties(2, cfg, fns([dealt[0], dealt[1][:-1]]), timeout=5.0)


# --- stages against one-product calls ---

# (a, b, shape, elementwise): a holds the left operand, b the right one
STAGE_PRODUCTS = {
    2: [(0, 1, (3, 4, 2), False), (1, 0, (2, 5, 1), False),
        (0, 1, 5, True), (1, 0, 4, True), (0, 1, (3, 4, 2), False)],
    3: [(0, 1, (3, 4, 2), False), (2, 0, (2, 3, 1), False),
        (1, 2, 5, True), (2, 1, (1, 3, 3), False), (0, 2, 4, True),
        (1, 0, (2, 2, 2), False)],
}


def _operand(pid, k, a, shape, elementwise):
    """Party pid's operand of product k: deterministic random words."""
    rng = CounterDrbg("stage-operands").child("op", pid, k)
    if elementwise:
        rows, cols = shape, 1
    else:
        rows, cols = shape[:2] if pid == a else shape[1:]
    return RingMatrix(rows, cols, rng.u64_array(rows * cols))


def _stage_products(pid, products):
    return [(a, b, _operand(pid, k, a, shape, el) if pid in (a, b) else None,
             shape, el) for k, (a, b, shape, el) in enumerate(products)]


def _staged(eng, products, _halves):
    """The products as one stage, one sum a-b per product; bystanders
    read None."""
    stage = eng._tape(*[((a,), (b,), shape, el)
                        for a, b, _mine, shape, el in products])
    totals = eng._run_stage(stage, [
        (None, None) if mine is None else (mine.arr, mine.arr)
        for _a, _b, mine, _shape, _el in products])
    return [RingMatrix.wrap(total) if eng.me in (a, b) else None
            for total, (a, b, *_) in zip(totals, products)]


def _one_at_a_time(eng, products, halves):
    """The products run one at a time, in order: the reference."""
    out = []
    for a, b, mine, shape, el in products:
        r = eng._round
        eng._round += 1
        if eng.me not in (a, b):
            out.append(None)
            continue
        side, peer = (0, b) if eng.me == a else (1, a)
        if halves is not None:
            out.append(run_one(eng.s, peer, r, smm1_steps, side, mine,
                               next(halves), mine.rows if el else 1))
        elif el:
            out.append(run_one(eng.s, peer, r, elementwise_steps, side, mine))
        else:
            fn = (smm2_x_steps, smm2_y_steps)[side]
            out.append(run_one(eng.s, peer, r, fn, mine))
    return out


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("variant", ["smm1", "smm2"])
def test_stage_matches_one_product_calls(variant, n):
    cfg = TrainingConfig(smm_variant=variant, seed="stage")
    products = STAGE_PRODUCTS[n]

    def party(run):
        def go(s):
            record(s)
            # STAGE_PRODUCTS is itself a product plan for the dealer
            halves = (triple_halves(cfg.seed, products, s.party_id)
                      if variant == "smm1" else None)
            eng = _EngineBase(s, cfg, "linear", halves)
            shares = run(eng, _stage_products(s.party_id, products), halves)
            bodies = sorted(f.encode() for f in s.transcript.frames)
            left = None if halves is None else list(halves)
            return (shares, s.rng.u64_array(4).tolist(), left, bodies,
                    s.frames_sent, s.bytes_sent)
        return go

    staged = run_parties(n, cfg, [party(_staged)] * n)
    alone = run_parties(n, cfg, [party(_one_at_a_time)] * n)
    for pid in range(n):
        assert staged[pid][1:] == alone[pid][1:]
        assert staged[pid][0] == alone[pid][0]
        # each party drew all its halves, and no more
        assert staged[pid][2] == ([] if variant == "smm1" else None)
    # every product reconstructs to the plain product of the operands
    for k, (a, b, shape, el) in enumerate(products):
        x = _operand(a, k, a, shape, el).arr
        y = _operand(b, k, a, shape, el).arr
        got = [staged[pid][0][k] for pid in (a, b)]
        assert np.array_equal(reconstruct(got).arr, x * y if el else x @ y)
        assert all(staged[pid][0][k] is None
                   for pid in range(n) if pid not in (a, b))


def _column(s, taller: int) -> np.ndarray:
    """A zero 2x1 share, one row taller on party `taller`."""
    return np.zeros((2 + (s.party_id == taller), 1), dtype=np.uint64)


CFG3 = TrainingConfig(seed="refuse", batch_size=2, iterations=1)
# Per caller of _EngineBase._exchange: how each of three parties calls it
# with one frame of the wrong shape in it, the frame's kind, and which party
# each receiver names. The opening and the re-share get a 3x1 block from
# party 2 where 2x1 is due (party 2, opening to everyone, expects 3x1 from
# party 0 in turn); the policy row of party 1 is one word wider.
WRONG_SHAPES = {
    "open-all": (lambda s: HorizontalEngine(s, CFG3)._open(
        _column(s, 2), range(3)), "W_SHARE", {0: 2, 1: 2, 2: 0}),
    "open-one": (lambda s: HorizontalEngine(s, CFG3)._open(
        _column(s, 2), (1,)), "W_SHARE", {1: 2}),
    "re-share": (lambda s: HorizontalEngine(s, CFG3)._shift(
        _column(s, 2)), "SHARE_DIST", {0: 2, 1: 2}),
    "policy": (lambda s: HorizontalEngine(s, CFG3)._policy_exchange(
        [7] * (2 + (s.party_id == 1))), "CONTROL", {0: 1, 1: 0, 2: 1}),
    "weight-split": (None, "W_SHARE", {0: 1, 2: 1}),
}


@pytest.mark.parametrize("case", list(WRONG_SHAPES))
def test_exchange_refuses_a_frame_of_the_wrong_shape(case, monkeypatch):
    call, kind, names = WRONG_SHAPES[case]
    if call is None:
        # party 1 splits a zero weight block one row taller than the one
        # it announced; its engine tells party 1 by the rng it passes
        tall = []

        def zero_shares(rows, cols, n, rng):
            taller = any(rng is t for t in tall)
            return sharing.zero_shares(rows + taller, cols, n, rng)

        def call(s):
            if s.party_id == 1:
                tall.append(s.rng)
            return VerticalEngine(s, CFG3).run(
                [[0.5]] * 4, [1.0] * 4 if s.party_id == 0 else None)

        monkeypatch.setattr(vertical, "zero_shares", zero_shares)

    def party(s):
        try:
            return call(s)
        except (PolicyMismatch, TransportError) as exc:
            return exc

    got = run_parties(3, CFG3, [party] * 3, timeout=5.0)
    for pid in range(3):
        if pid in names:
            assert isinstance(got[pid], PolicyMismatch)
            assert str(got[pid]).startswith(f"party {names[pid]} sent a ")
            assert f" {kind} frame in round " in str(got[pid])
        else:
            # a party that took no frame of the wrong shape refuses none;
            # after the weight split, party 1 only finds its peers gone
            assert not isinstance(got[pid], PolicyMismatch)
            if case != "weight-split":
                assert not isinstance(got[pid], Exception)
