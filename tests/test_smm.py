"""Both secure multiplication protocols, triples, leakage, simulator."""

import threading

import pytest

from secregress.errors import DimensionMismatch, MalformedTranscript
from secregress.ring import (
    RingMatrix,
    mat_mul_raw,
    mul_op_count,
    uniform_matrix,
)
from secregress.rng import CounterDrbg
from secregress.smm import (
    LeakageReport,
    Triple,
    elementwise_steps,
    extract_leakage,
    generate_triple,
    smm1_steps,
    smm2_x_steps,
    smm2_y_steps,
    triple_halves,
)
from secregress.transport import loopback_sessions

from one_product import run_one
from oracles import (
    decode_rows,
    leakage_of_x,
    leakage_of_y,
    reconstruct,
    record,
    simulate_view,
    truncate,
    verify_triple,
)

ULP = 2.0 ** -20


def run_pair(fa, fb):
    out = {}
    errs = []

    def wrap(tag, fn):
        try:
            out[tag] = fn()
        except Exception as e:
            errs.append(e)

    ta = threading.Thread(target=wrap, args=("a", fa))
    tb = threading.Thread(target=wrap, args=("b", fb))
    ta.start(), tb.start()
    ta.join(30), tb.join(30)
    if errs:
        raise errs[0]
    return out["a"], out["b"]


def sessions(tag):
    """A recorded pair: the leakage tests read the frames each side got."""
    rngs = [CounterDrbg(tag).child("private", i) for i in range(2)]
    return record(*loopback_sessions(2, rngs, timeout=10.0))


def rand_real_matrix(rows, cols, rng, span=8.0):
    # values on the encoding grid so ring products are exact at 2f
    scale = 1 << 20
    lim = int(span * scale)
    vals = [[(rng.randrange(2 * lim + 1) - lim) / scale for _ in range(cols)]
            for _ in range(rows)]
    return RingMatrix.encode_rows(vals), vals


# --- triples ---

def own(half, side):
    """A half's own mask and its share of W: all a commodity half holds."""
    return (half.u if side == 0 else half.v), half.w


def test_triple_reconstructs_and_verifies():
    t = generate_triple(3, 4, 2, CounterDrbg("t1"))
    assert (t.u.rows, t.u.cols, t.v.cols) == (3, 4, 2)
    assert verify_triple(t)
    assert reconstruct([t.w0, t.w1]) == mat_mul_raw(t.u, t.v)
    # Triple.half builds the mask a side does not hold as zeros
    assert not t.half(0).v.arr.any() and not t.half(1).u.arr.any()
    assert t.half(0).v.arr.shape == (4, 2) and t.half(1).u.arr.shape == (3, 4)


def test_elem_triple():
    t = generate_triple(1, 1, 1, CounterDrbg("te"), blocks=7)
    assert verify_triple(t, blocks=7)
    assert not verify_triple(Triple(t.u, t.v, t.w0, t.u), blocks=7)


def test_halves_from_one_seed_reassemble():
    # every party's halves of one plan come from the same triples, and a
    # shape's next draw is a fresh triple
    plan = [(0, 1, (2, 2, 2), False), (0, 1, (2, 2, 2), False),
            (1, 0, 5, True)]
    h0 = list(triple_halves("common", plan, 0))
    h1 = list(triple_halves("common", plan, 1))
    assert h0 == list(triple_halves("common", plan, 0))
    whole = []
    for (a, *_), x, y in zip(plan, h0, h1):
        s0, s1 = (x, y) if a == 0 else (y, x)
        assert s0.v is None and s1.u is None
        whole.append(Triple(s0.u, s1.v, s0.w, s1.w))
    assert verify_triple(whole[0]) and verify_triple(whole[1])
    assert whole[0] != whole[1]
    assert verify_triple(whole[2], blocks=5)


@pytest.mark.parametrize("dims", [(500, 8, 1), (8, 500, 1), (3, 5, 7),
                                  (1, 1, 1)])
def test_side0_half_is_the_whole_triples_half(dims):
    # each side derives only its own half, the side with the smaller mask
    # without drawing the larger one; both must be the whole triple's
    # halves, draw for draw
    root = CounterDrbg("halves", label="trusted-initializer")
    whole = [generate_triple(*dims, root.child("triple", *dims, i))
             for i in range(3)]
    plan = [(0, 1, dims, False)] * 3
    for side in (0, 1):
        assert [own(h, side) for h in triple_halves("halves", plan, side)] \
            == [own(t.half(side), side) for t in whole]
    # a party that sits out draw 1 gets nothing for it and stays aligned
    sat_out = [(2, 1, dims, False), (0, 1, dims, False), (2, 1, dims, False)]
    assert [own(h, 0) for h in triple_halves("halves", sat_out, 2)] == [
        own(whole[0].half(0), 0), own(whole[2].half(0), 0)]


@pytest.mark.parametrize("n", [1, 16, 17])
def test_side0_elem_half_is_the_whole_triples_half(n):
    root = CounterDrbg("ehalves", label="trusted-initializer")
    whole = [generate_triple(1, 1, 1, root.child("etriple", n, i), blocks=n)
             for i in range(3)]
    plan = [(0, 1, n, True)] * 3
    for side in (0, 1):
        assert [own(h, side) for h in triple_halves("ehalves", plan, side)] \
            == [own(t.half(side), side) for t in whole]
    sat_out = [(2, 1, n, True), (0, 1, n, True), (2, 1, n, True)]
    assert [own(h, 0) for h in triple_halves("ehalves", sat_out, 2)] == [
        own(whole[0].half(0), 0), own(whole[2].half(0), 0)]


DEALT = [((500, 8, 1), False, 0), ((8, 500, 1), False, 0),
         ((3, 5, 7), False, 1), ((1, 1, 1), False, 0), ((2, 3, 2), False, 0),
         (1, True, 0), (16, True, 0), (17, True, 0)]


@pytest.mark.parametrize(
    "shape, elementwise, deriving", DEALT,
    ids=[f"elem{s}" if e else "x".join(map(str, s)) for s, e, _ in DEALT])
def test_dealer_deals_commodity_halves_at_least_cost(shape, elementwise,
                                                     deriving, monkeypatch):
    # side 0 holds U and W0, side 1 V and W1, and neither half holds the
    # other mask. The side whose mask has more entries, side 0 on a tie,
    # draws U, V and R; the other draws its own mask and R only.
    (x, y, z), blocks = ((1, 1, 1), shape) if elementwise else (shape, 1)
    drawn = []
    original = CounterDrbg.u64_array

    def counted(self, n):
        drawn.append(n)
        return original(self, n)

    monkeypatch.setattr(CounterDrbg, "u64_array", counted)
    halves, words = [], []
    for party in (0, 1):
        drawn.clear()
        (half,) = triple_halves("dealt", [(0, 1, shape, elementwise)], party)
        halves.append(half)
        words.append(sum(drawn))
    h0, h1 = halves
    assert h0.v is None and h1.u is None
    assert (h0.u.rows, h0.u.cols, h1.v.rows, h1.v.cols) == (
        blocks * x, y, blocks * y, z)
    assert verify_triple(Triple(h0.u, h1.v, h0.w, h1.w), blocks)
    u, v, w = blocks * x * y, blocks * y * z, blocks * x * z
    assert words[deriving] == u + v + w
    assert words[1 - deriving] == (v if deriving == 0 else u) + w


@pytest.mark.parametrize("shape, elementwise", [((3, 5, 7), False),
                                                 (5, True)])
def test_smm1_runs_alike_on_dealt_and_whole_triple_halves(shape,
                                                          elementwise):
    # a dealt half holds no other mask (None), Triple.half's holds zeros:
    # smm1_steps reads neither, so both give the same shares and frames
    (x, y, z), k = ((1, 1, 1), shape) if elementwise else (shape, 1)
    rng = CounterDrbg("forms")
    xm, _ = rand_real_matrix(k * x, y, rng)
    ym, _ = rand_real_matrix(k * y, z, rng)
    plan = [(0, 1, shape, elementwise)]
    root = CounterDrbg("forms", label="trusted-initializer")
    whole = generate_triple(x, y, z, root.child(
        *(("etriple", shape, 0) if elementwise else ("triple", *shape, 0))),
        blocks=k)
    dealt = [next(triple_halves("forms", plan, p)) for p in (0, 1)]
    assert dealt[0].v is None and dealt[1].u is None
    runs = []
    for halves in (dealt, [whole.half(0), whole.half(1)]):
        s = sessions("forms")
        shares = run_pair(
            lambda: run_one(s[0], 1, 0, smm1_steps, 0, xm, halves[0], k),
            lambda: run_one(s[1], 0, 0, smm1_steps, 1, ym, halves[1], k))
        runs.append((shares, [v.transcript.frames for v in s]))
    assert runs[0] == runs[1]
    assert reconstruct(list(runs[0][0])) == mat_mul_raw(xm, ym, k)


# --- protocol harness ---

def run_smm1(x_vals, y_vals, tag):
    s = sessions(tag)
    x = RingMatrix.encode_rows(x_vals)
    y = RingMatrix.encode_rows(y_vals)
    t = generate_triple(x.rows, x.cols, y.cols, CounterDrbg(tag + "-ti"))
    return run_pair(
        lambda: run_one(s[0], 1, 0, smm1_steps, 0, x, t.half(0)),
        lambda: run_one(s[1], 0, 0, smm1_steps, 1, y, t.half(1)),
    ), s


def run_smm2(x_vals, y_vals, tag):
    s = sessions(tag)
    x = RingMatrix.encode_rows(x_vals)
    y = RingMatrix.encode_rows(y_vals)
    return run_pair(
        lambda: run_one(s[0], 1, 0, smm2_x_steps, x),
        lambda: run_one(s[1], 0, 0, smm2_y_steps, y),
    ), s


DIMS = [(1, 1, 1), (2, 2, 2), (1, 2, 1), (3, 1, 2), (2, 3, 1),
        (4, 5, 3), (5, 4, 1), (1, 7, 1), (8, 8, 8)]


@pytest.mark.parametrize("protocol", ["smm1", "smm2"])
def test_product_exact_before_truncation(protocol):
    rng = CounterDrbg(protocol + " sweep")
    runner = run_smm1 if protocol == "smm1" else run_smm2
    for idx, (xr, yr, zr) in enumerate(DIMS):
        _, xv = rand_real_matrix(xr, yr, rng)
        _, yv = rand_real_matrix(yr, zr, rng)
        (m, n), _ = runner(xv, yv, f"{protocol}-{idx}")
        got = decode_rows(reconstruct([m, n]), frac_bits=40)
        for i in range(xr):
            for k in range(zr):
                exact = sum(xv[i][j] * yv[j][k] for j in range(yr))
                assert got[i][k] == exact, (protocol, xr, yr, zr)


@pytest.mark.parametrize("protocol", ["smm1", "smm2"])
def test_truncated_product_within_tolerance(protocol):
    # share-wise truncation floors each share, so the reconstructed value
    # sits within 2 ulp of the exact product (floor loss plus one carry)
    rng = CounterDrbg(protocol + " trunc")
    runner = run_smm1 if protocol == "smm1" else run_smm2
    for idx, (xr, yr, zr) in enumerate(DIMS):
        _, xv = rand_real_matrix(xr, yr, rng)
        _, yv = rand_real_matrix(yr, zr, rng)
        (m, n), _ = runner(xv, yv, f"{protocol}t-{idx}")
        got = decode_rows(reconstruct([truncate(m), truncate(n)]))
        for i in range(xr):
            for k in range(zr):
                exact = sum(xv[i][j] * yv[j][k] for j in range(yr))
                assert abs(got[i][k] - exact) <= 2 * ULP


@pytest.mark.parametrize("elementwise", [False, True])
@pytest.mark.parametrize("side", [0, 1])
def test_smm1_triple_shape_guard(side, elementwise):
    # an operand that does not fit this side's half is refused before any
    # frame leaves
    s = sessions("guard")
    if elementwise:
        x = RingMatrix.encode_rows([[1.0], [2.0]])
        bad = generate_triple(1, 1, 1, CounterDrbg("g"), blocks=3)
    else:
        x = RingMatrix.encode_rows([[1.0, 2.0]])
        bad = generate_triple(3, 3, 3, CounterDrbg("g"))
    with pytest.raises(DimensionMismatch):
        run_one(s[side], 1 - side, 0, smm1_steps, side, x, bad.half(side),
                x.rows if elementwise else 1)
    assert s[side].frames_sent == 0


def test_smm1_mismatched_operands_detected():
    s = sessions("mismatch")
    x = RingMatrix.encode_rows([[1.0, 2.0]])        # 1x2
    y = RingMatrix.encode_rows([[1.0], [2.0], [3.0]])  # 3x1, inner dim off
    ha = generate_triple(1, 2, 1, CounterDrbg("mm")).half(0)
    hb = generate_triple(3, 3, 1, CounterDrbg("mm"))  # wrong shape for y too

    def a():
        return run_one(s[0], 1, 0, smm1_steps, 0, x, ha)

    def b():
        return run_one(s[1], 0, 0, smm1_steps, 1, y, hb.half(1))

    with pytest.raises(DimensionMismatch):
        run_pair(a, b)


@pytest.mark.parametrize("protocol", ["smm1", "smm2"])
def test_blockwise_product_is_the_per_block_products(protocol):
    # three stacked blocks: 2x4 blocks of X against 4x3 blocks of Y
    k, x, y, z = 3, 2, 4, 3
    rng = CounterDrbg(protocol + " blocks")
    xm, _ = rand_real_matrix(k * x, y, rng)
    ym, _ = rand_real_matrix(k * y, z, rng)
    s = sessions(protocol + " blocks")
    if protocol == "smm1":
        t = generate_triple(x, y, z, CounterDrbg("blocks-ti"), blocks=k)
        m, n = run_pair(
            lambda: run_one(s[0], 1, 0, smm1_steps, 0, xm, t.half(0), k),
            lambda: run_one(s[1], 0, 0, smm1_steps, 1, ym, t.half(1), k))
    else:
        m, n = run_pair(
            lambda: run_one(s[0], 1, 0, smm2_x_steps, xm, blocks=k),
            lambda: run_one(s[1], 0, 0, smm2_y_steps, ym, blocks=k))
    want = [mat_mul_raw(RingMatrix.wrap(xm.arr[j * x:(j + 1) * x]),
                        RingMatrix.wrap(ym.arr[j * y:(j + 1) * y]))
            for j in range(k)]
    got = reconstruct([m, n])
    for j in range(k):
        assert RingMatrix.wrap(got.arr[j * x:(j + 1) * x]) == want[j]


@pytest.mark.parametrize("k, x, y, z", [(1, 3, 4, 2), (5, 1, 1, 1)])
def test_smm1_costs_two_products_over_both_sides(k, x, y, z):
    # each side multiplies once, by the one mask its commodity half holds:
    # 2*k*x*y*z ring multiplications in all, a matrix product (k = 1) and
    # an elementwise one (k blocks of 1 by 1) alike
    rng = CounterDrbg(f"cost-{k}")
    xm, _ = rand_real_matrix(k * x, y, rng)
    ym, _ = rand_real_matrix(k * y, z, rng)
    t = generate_triple(x, y, z, CounterDrbg(f"cost-{k}-ti"), blocks=k)
    s = sessions(f"cost-{k}")
    before = mul_op_count()
    m, n = run_pair(
        lambda: run_one(s[0], 1, 0, smm1_steps, 0, xm, t.half(0), k),
        lambda: run_one(s[1], 0, 0, smm1_steps, 1, ym, t.half(1), k))
    assert mul_op_count() - before == 2 * k * x * y * z
    assert reconstruct([m, n]) == mat_mul_raw(xm, ym, k)


@pytest.mark.parametrize("rows, blocks", [(6, 2), (3, 3), (5, 2)])
def test_smm2_y_refuses_blocks_of_odd_height(rows, blocks):
    # padding only the foot of a stack would fold rows of two blocks
    # together: refused before any frame leaves
    s = sessions("oddblocks")
    y = RingMatrix.encode_rows([[float(i)] for i in range(rows)])
    with pytest.raises(DimensionMismatch):
        run_one(s[1], 0, 0, smm2_y_steps, y, blocks=blocks)
    assert s[1].frames_sent == 0


# --- leakage ---

def test_smm1_leaks_nothing():
    (_, _), s = run_smm1([[1.0, 2.0]], [[3.0], [4.0]], "leak1")
    for view in s:
        rep = extract_leakage(view.transcript.frames)
        assert rep.protocol == "smm1"
        assert rep.leaked is None


def test_smm2_leakage_is_exactly_the_folded_aggregates():
    rng = CounterDrbg("leak sweep")
    for idx, (xr, yr, zr) in enumerate([(2, 4, 1), (3, 3, 2), (1, 5, 1),
                                        (4, 2, 3)]):
        x, xv = rand_real_matrix(xr, yr, rng)
        _, yv = rand_real_matrix(yr, zr, rng)
        (_, _), s = run_smm2(xv, yv, f"leak2-{idx}")
        y = RingMatrix.encode_rows(yv)

        rep_a = extract_leakage(s[0].transcript.frames)
        assert (rep_a.protocol, rep_a.role) == ("smm2", "x")
        assert rep_a.leaked == leakage_of_y(y)       # bit-exact

        rep_b = extract_leakage(s[1].transcript.frames)
        assert (rep_b.protocol, rep_b.role) == ("smm2", "y")
        assert rep_b.leaked == leakage_of_x(x)


def test_simulated_view_matches_real_distribution_constraints():
    rng = CounterDrbg("simul")
    x, _ = rand_real_matrix(3, 4, rng)
    y, _ = rand_real_matrix(4, 2, rng)

    leak_x = leakage_of_x(x)
    f1, f2 = simulate_view(leak_x, "y", rng.child("sim-y"))
    # the simulated pair satisfies the same relation as the real frames
    from oracles import cols_even, cols_odd
    assert (cols_even(f1).arr + cols_odd(f1).arr - f2.arr == leak_x.arr).all()

    leak_y = leakage_of_y(y)
    g1, g2 = simulate_view(leak_y, "x", rng.child("sim-x"))
    from oracles import rows_even, rows_odd
    assert (g2.arr - (rows_even(g1).arr - rows_odd(g1).arr)
            == leak_y.arr).all()

    # fresh randomness: two simulations differ in the uniform component
    h1, _ = simulate_view(leak_y, "x", rng.child("sim-x2"))
    assert h1 != g1

    with pytest.raises(ValueError):
        simulate_view(leak_y, "q", rng)


def test_extract_leakage_rejects_malformed():
    with pytest.raises(MalformedTranscript):
        extract_leakage([])
    from secregress.transport import Frame, KIND_SMM_D
    only_d = Frame(0, KIND_SMM_D, 0, 1, RingMatrix(2, 2, [0] * 4).to_bytes())
    with pytest.raises(MalformedTranscript):
        extract_leakage([only_d])
    bad_shape = [
        Frame(0, 2, 0, 1, RingMatrix(3, 3, [0] * 9).to_bytes()),
        Frame(0, 3, 0, 1, RingMatrix(2, 2, [0] * 4).to_bytes()),
    ]
    with pytest.raises(MalformedTranscript):
        extract_leakage(bad_shape)


# --- elementwise ---

def vec_vals(n, rng, span=4.0):
    scale = 1 << 20
    lim = int(span * scale)
    return [(rng.randrange(2 * lim + 1) - lim) / scale for _ in range(n)]


@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_smm1_elementwise(n):
    rng = CounterDrbg(f"ew1-{n}")
    av, bv = vec_vals(n, rng), vec_vals(n, rng)
    s = sessions(f"ew1-{n}")
    a = RingMatrix.encode_rows([[v] for v in av])
    b = RingMatrix.encode_rows([[v] for v in bv])
    t = generate_triple(1, 1, 1, CounterDrbg(f"ew1-{n}-ti"), blocks=n)
    m, nn = run_pair(
        lambda: run_one(s[0], 1, 0, smm1_steps, 0, a, t.half(0), n),
        lambda: run_one(s[1], 0, 0, smm1_steps, 1, b, t.half(1), n))
    got = decode_rows(reconstruct([m, nn]), frac_bits=40)
    assert got == [[av[i] * bv[i]] for i in range(n)]


@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_smm2_elementwise(n):
    rng = CounterDrbg(f"ew2-{n}")
    av, bv = vec_vals(n, rng), vec_vals(n, rng)
    s = sessions(f"ew2-{n}")
    a = RingMatrix.encode_rows([[v] for v in av])
    b = RingMatrix.encode_rows([[v] for v in bv])
    m, nn = run_pair(lambda: run_one(s[0], 1, 0, elementwise_steps, 0, a),
                     lambda: run_one(s[1], 0, 0, elementwise_steps, 1, b))
    got = decode_rows(reconstruct([m, nn]), frac_bits=40)
    assert got == [[av[i] * bv[i]] for i in range(n)]


def test_smm2_elementwise_leak_is_vector_and_differences():
    n = 6
    rng = CounterDrbg("ewleak")
    av, bv = vec_vals(n, rng), vec_vals(n, rng)
    s = sessions("ewleak")
    a = RingMatrix.encode_rows([[v] for v in av])
    b = RingMatrix.encode_rows([[v] for v in bv])
    run_pair(lambda: run_one(s[0], 1, 0, elementwise_steps, 0, a),
             lambda: run_one(s[1], 0, 0, elementwise_steps, 1, b))

    # y-holder's transcript exposes the x vector itself
    rep_b = extract_leakage(s[1].transcript.frames)
    assert rep_b.leaked == a
    # x-holder's transcript exposes adjacent differences of b
    rep_a = extract_leakage(s[0].transcript.frames)
    assert rep_a.leaked == RingMatrix.wrap(b.arr[0::2] - b.arr[1::2])


def test_elementwise_communication_is_linear():
    # frame bytes grow linearly in the vector length, not quadratically
    def bytes_for(n):
        rng = CounterDrbg(f"lin-{n}")
        av, bv = vec_vals(n, rng), vec_vals(n, rng)
        s = sessions(f"lin-{n}")
        a = RingMatrix.encode_rows([[v] for v in av])
        b = RingMatrix.encode_rows([[v] for v in bv])
        run_pair(lambda: run_one(s[0], 1, 0, elementwise_steps, 0, a),
                 lambda: run_one(s[1], 0, 0, elementwise_steps, 1, b))
        return s[0].bytes_sent + s[1].bytes_sent

    b64, b128 = bytes_for(64), bytes_for(128)
    assert b128 < 2.5 * b64


def test_padding_odd_lengths():
    rng = CounterDrbg("oddpad")
    for n in (1, 3, 7):
        av, bv = vec_vals(n, rng), vec_vals(n, rng)
        s = sessions(f"oddpad-{n}")
        m, nn = run_pair(
            lambda: run_one(s[0], 1, 0, elementwise_steps, 0,
                            RingMatrix.encode_rows([[v] for v in av])),
            lambda: run_one(s[1], 0, 0, elementwise_steps, 1,
                            RingMatrix.encode_rows([[v] for v in bv])))
        got = decode_rows(reconstruct([m, nn]), frac_bits=40)
        assert got == [[av[i] * bv[i]] for i in range(n)]
