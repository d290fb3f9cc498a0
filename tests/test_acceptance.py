"""Acceptance gate: one test per numbered criterion in the README checklist.

Every test prints a single PASS/FAIL line with the measured quantities and
enforces its own wall-clock budget on top of the functional assertions.
Run with `-s` (or `-rA`) to see the lines for passing tests too.

Criterion 3 optionally checks a user-supplied dataset: point
SECREGRESS_DATASET_CSV at a numeric CSV (and SECREGRESS_DATASET_LABEL at
its label column, default "label") and the secure engines are held to the
same four-decimal equality on a seeded 2000-row subset of it.
"""

import contextlib
import json
import os
import threading
import time
from pathlib import Path

import pytest
import scipy.stats

from secregress.cli import RunSpec, _scaling_sweep, run, spawn_parties
from secregress.ring import MASK, RingMatrix, mat_mul_raw
from secregress.rng import CounterDrbg
from secregress.smm import (
    LeakageReport,
    extract_leakage,
    generate_triple,
    smm1_steps,
    smm2_x_steps,
    smm2_y_steps,
)
from secregress.transport import Frame, loopback_sessions

from one_product import run_one
from oracles import (
    decode_rows,
    leakage_of_x,
    leakage_of_y,
    reconstruct,
    record,
    select,
    share_raw,
    truncate,
    verify_triple,
)

ULP = 2.0 ** -20

CSV_ENV = "SECREGRESS_DATASET_CSV"
LABEL_ENV = "SECREGRESS_DATASET_LABEL"

ENGINES = (("TI", "horizontal"), ("TI", "vertical"),
           ("OTI", "horizontal"), ("OTI", "vertical"))


_CAPTURE = None


@pytest.fixture(autouse=True)
def _verdict_channel(capfd):
    # verdict lines are the gate's contract: route them around pytest's
    # fd-level capture so a plain `pytest -v` run still shows one line
    # per criterion
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def _emit(line):
    ctx = _CAPTURE.disabled() if _CAPTURE else contextlib.nullcontext()
    with ctx:
        print(line, flush=True)


def _verdict(tag, t0, budget, failures, detail):
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < budget
    _emit(f"[{tag}] {'PASS' if ok else 'FAIL'} "
          f"({elapsed:.1f}s of {budget:.0f}s budget): {detail}")
    assert not failures, f"{tag}: " + " | ".join(failures[:8])
    assert elapsed < budget, (
        f"{tag}: wall time {elapsed:.1f}s exceeds the {budget:.0f}s budget")


def _pair(tag):
    rngs = [CounterDrbg(tag).child("private", i) for i in range(2)]
    return loopback_sessions(2, rngs, timeout=60.0)


def _both(fa, fb):
    out = [None, None]
    errs = []

    def wrap(slot, fn):
        try:
            out[slot] = fn()
        except Exception as e:  # noqa: BLE001
            errs.append(e)

    ta = threading.Thread(target=wrap, args=(0, fa), daemon=True)
    tb = threading.Thread(target=wrap, args=(1, fb), daemon=True)
    ta.start(), tb.start()
    ta.join(120), tb.join(120)
    if errs:
        raise errs[0]
    return out


def _grid_matrix(rows, cols, rng, span=8.0):
    # entries on the 2^-20 grid so the float reference product is exact
    scale = 1 << 20
    lim = int(span * scale)
    vals = [[(rng.randrange(2 * lim + 1) - lim) / scale for _ in range(cols)]
            for _ in range(rows)]
    return RingMatrix.encode_rows(vals), vals


# --- 1. secure matrix product accuracy -------------------------------------

def test_criterion_1_smm_product_accuracy():
    t0 = time.monotonic()
    rng = CounterDrbg("acceptance", label="smm-accuracy")
    failures = []
    worst_ulp = 0.0
    for proto in ("smm1", "smm2"):
        cases = []
        for i in range(200):
            xr, zr = 1 + rng.randrange(8), 1 + rng.randrange(8)
            # inner width 2..8: share-wise truncation costs a floor loss
            # plus one masked carry, just under 2 ulp however wide the
            # inner product is, so a 1-wide instance cannot meet an
            # inner*ulp budget; the unit suite pins inner=1 at its true
            # 2-ulp bound instead
            yr = 2 + rng.randrange(7)
            cases.append((_grid_matrix(xr, yr, rng),
                          _grid_matrix(yr, zr, rng)))
        s = _pair(f"c1-{proto}")
        ti = CounterDrbg("c1-ti")
        triples = [generate_triple(ex.rows, ex.cols, ey.cols,
                                   ti.child("triple", i))
                   for i, ((ex, _), (ey, _)) in enumerate(cases)]

        def side_x():
            outs = []
            for i, ((ex, _), _) in enumerate(cases):
                if proto == "smm1":
                    outs.append(run_one(s[0], 1, i, smm1_steps, 0, ex,
                                        triples[i].half(0)))
                else:
                    outs.append(run_one(s[0], 1, i, smm2_x_steps, ex))
            return outs

        def side_y():
            outs = []
            for i, (_, (ey, _)) in enumerate(cases):
                if proto == "smm1":
                    outs.append(run_one(s[1], 0, i, smm1_steps, 1, ey,
                                        triples[i].half(1)))
                else:
                    outs.append(run_one(s[1], 0, i, smm2_y_steps, ey))
            return outs

        ms, ns = _both(side_x, side_y)
        for i, ((ex, xv), (ey, yv)) in enumerate(cases):
            m, n = ms[i], ns[i]
            if reconstruct([m, n]) != mat_mul_raw(ex, ey):
                failures.append(f"{proto} #{i}: in-ring product differs "
                                "before truncation")
                continue
            # share-wise truncation: each party truncates its own raw
            # share locally, as the engines do once per aggregate
            got = decode_rows(reconstruct([truncate(m), truncate(n)]))
            inner = ex.cols
            tol = inner * ULP
            for r in range(ex.rows):
                for c in range(ey.cols):
                    exact = sum(xv[r][j] * yv[j][c] for j in range(inner))
                    err = abs(got[r][c] - exact)
                    worst_ulp = max(worst_ulp, err / ULP)
                    if err > tol:
                        failures.append(
                            f"{proto} #{i} entry ({r},{c}): error {err:.3e} "
                            f"over inner*2^-20 = {tol:.3e}")
    _verdict("criterion 1", t0, 10.0, failures,
             "200 instances per protocol exact in-ring; truncated decode "
             f"within inner*2^-20 (worst {worst_ulp:.2f} ulp)")


# --- 2. multiplication triple validity --------------------------------------

def test_criterion_2_triple_validity():
    t0 = time.monotonic()
    rng = CounterDrbg("acceptance", label="triples")
    failures = []
    for i in range(100):
        x, y, z = (1 + rng.randrange(8) for _ in range(3))
        t = generate_triple(x, y, z, rng.child("triple", i))
        u = reconstruct([t.half(0).u, t.half(1).u])
        v = reconstruct([t.half(0).v, t.half(1).v])
        w = reconstruct([t.half(0).w, t.half(1).w])
        if w != mat_mul_raw(u, v):
            failures.append(f"triple #{i} ({x}x{y}x{z}): W != U*V in-ring")
        if not verify_triple(t):
            failures.append(f"triple #{i} ({x}x{y}x{z}): verifier rejected")
    _verdict("criterion 2", t0, 5.0, failures,
             "100 triples: halves reconstruct and W = U*V holds exactly")


# --- 3. linear regression equals plaintext ----------------------------------

def _lire_spec(variant, scheme, dataset):
    return RunSpec.from_dict({
        "task": "LiRe", "scheme": scheme, "smm_variant": variant,
        "parties": 2, "folds": 5, "dataset": dict(dataset),
        "config": {"learning_rate": 0.1, "batch_size": 8,
                   "iterations": 80, "seed": "acceptance-lire"},
    })


def _lire_equality(tag, dataset):
    t0 = time.monotonic()
    failures = []
    worst = 0.0
    shown = []
    for variant, scheme in ENGINES:
        c0 = time.monotonic()
        spec = _lire_spec(variant, scheme, dataset)
        row, _, _ = run(spec)
        per_config = time.monotonic() - c0
        if per_config >= 300.0:
            failures.append(f"{spec.model_name()}: {per_config:.0f}s "
                            "exceeds the 300s per-configuration budget")
        values = list(zip(row["fold_values"], row["plain_replay_values"]))
        values.append((row["mean"], row["plain_replay_mean"]))
        for s_val, p_val in values:
            gap = abs(s_val - p_val)
            worst = max(worst, gap)
            if gap > 5e-5:
                failures.append(
                    f"{spec.model_name()}: rmse {s_val:.6f} vs plaintext "
                    f"{p_val:.6f} differs in the 4th decimal")
        shown.append(f"{spec.model_name()} {row['mean']:.4f}")
    _verdict(tag, t0, 1200.0, failures,
             "rmse equal to the schedule-matched plaintext run to 4 "
             f"decimals, max gap {worst:.1e} ({'; '.join(shown)})")


def test_criterion_3_linear_equality_synthetic():
    _lire_equality("criterion 3",
                   {"kind": "synthetic-linear", "m": 400, "d": 8,
                    "seed": 1234})


def test_criterion_3_linear_equality_user_dataset():
    path = os.environ.get(CSV_ENV)
    if not path:
        _emit(f"[criterion 3, user dataset] SKIPPED: set {CSV_ENV} to a "
              f"numeric CSV (and {LABEL_ENV} to its label column, default "
              "'label') to run the same equality check on a seeded "
              "2000-row subset")
        pytest.skip("no user-supplied dataset")
    _lire_equality("criterion 3, user dataset",
                   {"kind": "csv", "path": path,
                    "label_column": os.environ.get(LABEL_ENV, "label"),
                    "subsample": 2000})


# --- 4. logistic approximation stays close ----------------------------------

def test_criterion_4_logistic_approximation_gap():
    t0 = time.monotonic()
    failures = []
    base = {
        "task": "LoRe", "folds": 5,
        "dataset": {"kind": "synthetic-logistic", "m": 400, "d": 8,
                    "seed": 4321},
        # short schedule on purpose: at convergence every model scores a
        # flat 1.0 on separable data and the gap bounds compare nothing
        "config": {"learning_rate": 0.2, "batch_size": 8,
                   "iterations": 30, "seed": "acceptance-lore"},
    }
    plain = {}
    for sigmoid in ("poly", "true"):
        row, _, _ = run(RunSpec.from_dict(
            {**base, "scheme": "plaintext", "sigmoid": sigmoid}))
        plain[sigmoid] = row["mean"]
        if row["mean"] < 0.95:
            failures.append(f"plaintext {sigmoid} auc {row['mean']:.4f} "
                            "below the 0.95 baseline")
    shown = [f"poly {plain['poly']:.4f}", f"true {plain['true']:.4f}"]
    for variant, scheme in ENGINES:
        c0 = time.monotonic()
        spec = RunSpec.from_dict(
            {**base, "scheme": scheme, "smm_variant": variant, "parties": 2})
        row, _, _ = run(spec)
        per_config = time.monotonic() - c0
        if per_config >= 600.0:
            failures.append(f"{spec.model_name()}: {per_config:.0f}s "
                            "exceeds the 600s per-configuration budget")
        auc = row["mean"]
        shown.append(f"{spec.model_name()} {auc:.4f}")
        if abs(auc - plain["poly"]) > 0.01:
            failures.append(
                f"{spec.model_name()}: auc {auc:.4f} more than 0.01 from "
                f"plaintext-poly {plain['poly']:.4f}")
        if abs(auc - plain["true"]) > 0.02:
            failures.append(
                f"{spec.model_name()}: auc {auc:.4f} more than 0.02 from "
                f"true-sigmoid {plain['true']:.4f}")
    _verdict("criterion 4", t0, 2400.0, failures, "; ".join(shown))


# --- 5. triple-free leakage is exactly the folded aggregates -----------------

def test_criterion_5_leakage_characterization():
    t0 = time.monotonic()
    rng = CounterDrbg("acceptance", label="leakage")
    failures = []
    cases = []
    for _ in range(50):
        xr, yr, zr = (1 + rng.randrange(8) for _ in range(3))
        cases.append((_grid_matrix(xr, yr, rng)[0],
                      _grid_matrix(yr, zr, rng)[0]))

    s2 = record(*_pair("c5-smm2"))
    _both(lambda: [run_one(s2[0], 1, i, smm2_x_steps, ex)
                   for i, (ex, _) in enumerate(cases)],
          lambda: [run_one(s2[1], 0, i, smm2_y_steps, ey)
                   for i, (_, ey) in enumerate(cases)])
    for i, (ex, ey) in enumerate(cases):
        got_x = extract_leakage(select(s2[0].transcript, round_no=i))
        if got_x != LeakageReport("smm2", "x", leakage_of_y(ey)):
            failures.append(f"run #{i}: X-holder leak is not Y_e - Y_o")
        got_y = extract_leakage(select(s2[1].transcript, round_no=i))
        if got_y != LeakageReport("smm2", "y", leakage_of_x(ex)):
            failures.append(f"run #{i}: Y-holder leak is not X_e + X_o")

    s1 = record(*_pair("c5-smm1"))
    ti = CounterDrbg("c5-ti")
    triples = [generate_triple(ex.rows, ex.cols, ey.cols,
                               ti.child("triple", i))
               for i, (ex, ey) in enumerate(cases)]

    def one_sided(side, sess):
        return [run_one(sess, 1 - side, i, smm1_steps, side, (ex, ey)[side],
                        triples[i].half(side))
                for i, (ex, ey) in enumerate(cases)]

    _both(lambda: one_sided(0, s1[0]), lambda: one_sided(1, s1[1]))
    empty = LeakageReport("smm1", None, None)
    for i in range(len(cases)):
        for sess in s1:
            if extract_leakage(select(sess.transcript, round_no=i)) != empty:
                failures.append(f"run #{i}: triple-based transcript "
                                "yielded a non-empty profile")
    _verdict("criterion 5", t0, 10.0, failures,
             "50 triple-free runs leak exactly X_e+X_o / Y_e-Y_o, "
             "bit-exact; 50 triple-based runs leak nothing")


# --- 6. wall time scales linearly in the sample count ------------------------

def test_criterion_6_linear_scaling():
    t0 = time.monotonic()
    sizes = (500, 1000, 2000, 4000)
    specs = [
        RunSpec.from_dict({
            "task": "LiRe", "scheme": scheme, "smm_variant": variant,
            "parties": 2, "folds": 2,
            "dataset": {"kind": "synthetic-linear", "m": m, "d": 8,
                        "seed": 7},
            "config": {"learning_rate": 0.01, "batch_size": m // 2,
                       "iterations": 50, "seed": 7},
        })
        for variant, scheme in ENGINES for m in sizes
    ]
    best = _scaling_sweep(specs)
    failures = []
    shown = []
    for k, (variant, scheme) in enumerate(ENGINES):
        points = best[k * len(sizes):(k + 1) * len(sizes)]
        ratios = [points[i + 1] / points[i] for i in range(len(points) - 1)]
        name = f"Sec-LiRe-{variant}-{scheme[0].upper()}"
        shown.append(name + " " + "/".join(f"{r:.2f}" for r in ratios)
                     + " (" + "/".join(f"{s:.2f}" for s in points) + " s)")
        for r in ratios:
            if not 1.7 <= r <= 2.5:
                failures.append(f"{name}: per-doubling ratio {r:.2f} "
                                "outside [1.7, 2.5]")
    _verdict("criterion 6", t0, 1200.0, failures,
             "per-doubling ratios (best seconds) over m=500..4000: "
             + "; ".join(shown))


# --- 7. transports agree and the wire format is frozen -----------------------

def test_criterion_7_transport_equivalence_and_wire_stability(tmp_path):
    t0 = time.monotonic()
    failures = []
    specs = [
        RunSpec.from_dict({
            "task": "LiRe", "scheme": "horizontal", "smm_variant": "TI",
            "parties": 3, "folds": 2,
            "dataset": {"kind": "synthetic-linear", "m": 60, "d": 3,
                        "seed": 11},
            "config": {"learning_rate": 0.1, "batch_size": 6,
                       "iterations": 12, "seed": "c7-h"},
            "output": str(tmp_path / "h3"),
        }),
        RunSpec.from_dict({
            "task": "LoRe", "scheme": "vertical", "smm_variant": "OTI",
            "parties": 2, "folds": 2,
            "dataset": {"kind": "synthetic-logistic", "m": 40, "d": 4,
                        "seed": 12},
            "config": {"learning_rate": 0.5, "batch_size": 4,
                       "iterations": 10, "seed": "c7-v"},
            "output": str(tmp_path / "v2"),
        }),
    ]
    for spec in specs:
        threads, _ = spawn_parties(spec, "threads")
        procs, _ = spawn_parties(spec, "processes")
        if (json.dumps(threads, sort_keys=True)
                != json.dumps(procs, sort_keys=True)):
            failures.append(f"{spec.model_name()}: thread and TCP "
                            "manifests differ")

    golden = json.loads(
        (Path(__file__).parent / "golden_frames.json").read_text())
    for name, g in sorted(golden.items()):
        mat = RingMatrix(g["matrix"]["rows"], g["matrix"]["cols"],
                         [int(w) for w in g["matrix"]["words"]])
        frame = Frame(g["round_no"], g["kind"], g["sender"], g["receiver"],
                      mat.to_bytes())
        if frame.encode().hex() != g["encoded"]:
            failures.append(f"golden {name}: encode() drifted")
        if frame.encode_stream().hex() != g["stream"]:
            failures.append(f"golden {name}: encode_stream() drifted")
        if Frame.decode(bytes.fromhex(g["encoded"])) != frame:
            failures.append(f"golden {name}: decode() no longer inverts")
    _verdict("criterion 7", t0, 120.0, failures,
             f"{len(specs)} specs bit-identical across thread and TCP "
             f"transports; {len(golden)} golden frames byte-stable")


# --- 8. shares look uniform ---------------------------------------------------

def test_criterion_8_share_uniformity():
    t0 = time.monotonic()
    rng = CounterDrbg("acceptance", label="share-uniformity")
    counts = [0] * 256
    for i in range(100_000):
        secret = (i * 0x9E3779B97F4A7C15) & MASK
        counts[share_raw(secret, 2, rng)[0] & 0xFF] += 1
    expected = 100_000 / 256
    stat = sum((c - expected) ** 2 / expected for c in counts)
    crit = float(scipy.stats.chi2.isf(0.01, 255))
    failures = ([] if stat < crit else
                [f"chi-square {stat:.2f} >= critical {crit:.2f}"])
    _verdict("criterion 8", t0, 30.0, failures,
             f"low byte of the first share over 10^5 splits: chi-square "
             f"{stat:.1f} < {crit:.1f} (255 dof, alpha 0.01)")
