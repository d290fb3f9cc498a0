"""Both secure multiplication protocols, triples, leakage, simulator."""

import threading

import pytest

from secregress.errors import (
    DimensionMismatch,
    MalformedTranscript,
    TripleExhausted,
)
from secregress.ring import (
    RingMatrix,
    mat_add,
    mat_hadamard,
    mat_mul_raw,
    mat_sub,
    to_signed,
    truncate,
    uniform_matrix,
)
from secregress.rng import CounterDrbg
from secregress.smm import (
    LeakageReport,
    Triple,
    TriplePool,
    extract_leakage,
    generate_elem_triple,
    generate_triple,
    leakage_of_x,
    leakage_of_y,
    simulate_view,
    smm1,
    smm2_elem_x,
    smm2_elem_y,
    smm2_x,
    smm2_y,
    verify_triple,
)
from secregress.transport import loopback_sessions

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
    rngs = [CounterDrbg(tag).child("private", i) for i in range(2)]
    return loopback_sessions(2, rngs, timeout=10.0)


def rand_real_matrix(rows, cols, rng, span=8.0):
    # values on the encoding grid so ring products are exact at 2f
    scale = 1 << 20
    lim = int(span * scale)
    vals = [[(rng.randrange(2 * lim + 1) - lim) / scale for _ in range(cols)]
            for _ in range(rows)]
    return RingMatrix.encode_rows(vals), vals


# --- triples ---

def test_triple_reconstructs_and_verifies():
    t = generate_triple(3, 4, 2, CounterDrbg("t1"))
    assert t.dims == (3, 4, 2)
    assert verify_triple(t)
    u = mat_add(t.u1, t.u2)
    v = mat_add(t.v1, t.v2)
    assert mat_add(t.w1, t.w2) == mat_mul_raw(u, v)


def test_elem_triple():
    t = generate_elem_triple(7, CounterDrbg("te"))
    assert verify_triple(t, elementwise=True)
    assert not verify_triple(
        Triple(t.u1, t.u2, t.v1, t.v2, t.w1, t.u2), elementwise=True)


def test_pool_from_seed_is_shared():
    a = TriplePool.from_seed("common")
    b = TriplePool.from_seed("common")
    ta, tb = a.take(2, 2, 2), b.take(2, 2, 2)
    assert ta == tb
    assert a.take(2, 2, 2) != ta          # consumption advances
    assert a.consumed[(2, 2, 2)] == 2
    assert verify_triple(a.take_elem(5), elementwise=True)


def test_pool_from_file_fifo_and_exhaustion():
    t1 = generate_triple(2, 2, 2, CounterDrbg(1))
    t2 = generate_triple(2, 2, 2, CounterDrbg(2))
    pool = TriplePool.from_triples([t1, t2])
    assert pool.take(2, 2, 2) == t1
    assert pool.take(2, 2, 2) == t2
    with pytest.raises(TripleExhausted):
        pool.take(2, 2, 2)
    with pytest.raises(TripleExhausted):
        pool.take(9, 9, 9)
    with pytest.raises(TripleExhausted):
        pool.take_elem(4)


@pytest.mark.parametrize("dims", [(500, 8, 1), (8, 500, 1), (3, 5, 7),
                                  (1, 1, 1)])
def test_side0_half_is_the_whole_triples_half(dims):
    # side 0 derives only its half; it must be the half of the triple
    # that side 1 cuts its own half from, draw for draw
    root = CounterDrbg("halves", label="trusted-initializer")
    whole = [generate_triple(*dims, root.child("triple", *dims, i))
             for i in range(3)]
    side0 = TriplePool.from_seed("halves")
    side1 = TriplePool.from_seed("halves")
    assert [side0.take(*dims, side=0) for _ in range(3)] == [
        t.half(0) for t in whole]
    assert [side1.take(*dims, side=1) for _ in range(3)] == [
        t.half(1) for t in whole]
    # a party that sat out draw 1 stays aligned
    sat_out = TriplePool.from_seed("halves")
    sat_out.take(*dims, side=0)
    sat_out.skip(*dims)
    assert sat_out.take(*dims, side=0) == whole[2].half(0)
    assert sat_out.consumed == side0.consumed == {dims: 3}


@pytest.mark.parametrize("n", [1, 16, 17])
def test_side0_elem_half_is_the_whole_triples_half(n):
    root = CounterDrbg("ehalves", label="trusted-initializer")
    whole = [generate_elem_triple(n, root.child("etriple", n, i))
             for i in range(3)]
    side0 = TriplePool.from_seed("ehalves")
    side1 = TriplePool.from_seed("ehalves")
    assert [side0.take_elem(n, side=0) for _ in range(3)] == [
        t.half(0) for t in whole]
    assert [side1.take_elem(n, side=1) for _ in range(3)] == [
        t.half(1) for t in whole]
    sat_out = TriplePool.from_seed("ehalves")
    sat_out.take_elem(n, side=0)
    sat_out.skip_elem(n)
    assert sat_out.take_elem(n, side=0) == whole[2].half(0)
    assert sat_out.consumed == side0.consumed == {("elem", n): 3}


# --- protocol harness ---

def run_smm1(x_vals, y_vals, tag):
    s = sessions(tag)
    x = RingMatrix.encode_rows(x_vals)
    y = RingMatrix.encode_rows(y_vals)
    pool_a = TriplePool.from_seed(tag + "-ti")
    pool_b = TriplePool.from_seed(tag + "-ti")
    ha = pool_a.take(x.rows, x.cols, y.cols).half(0)
    hb = pool_b.take(x.rows, x.cols, y.cols).half(1)
    return run_pair(
        lambda: smm1(s[0], 1, 0, x, ha, 0),
        lambda: smm1(s[1], 0, 1, y, hb, 0),
    ), s


def run_smm2(x_vals, y_vals, tag, reveal=False):
    s = sessions(tag)
    x = RingMatrix.encode_rows(x_vals)
    y = RingMatrix.encode_rows(y_vals)
    return run_pair(
        lambda: smm2_x(s[0], 1, x, 0, reveal=reveal),
        lambda: smm2_y(s[1], 0, y, 0, reveal=reveal),
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
        got = mat_add(m, n).decode_rows(frac_bits=40)
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
        got = mat_add(truncate(m), truncate(n)).decode_rows()
        for i in range(xr):
            for k in range(zr):
                exact = sum(xv[i][j] * yv[j][k] for j in range(yr))
                assert abs(got[i][k] - exact) <= 2 * ULP


def test_smm2_reveal_gives_product_to_a():
    xv = [[1.5, -2.0], [0.25, 4.0]]
    yv = [[2.0], [-1.0]]
    (prod, nothing), _ = run_smm2(xv, yv, "reveal", reveal=True)
    assert nothing is None
    assert truncate(prod).decode_rows() == [[5.0], [-3.5]]


@pytest.mark.parametrize("elementwise", [False, True])
@pytest.mark.parametrize("side", [0, 1])
def test_smm1_triple_shape_guard(side, elementwise):
    # an operand that does not fit this side's half is refused before any
    # frame leaves
    s = sessions("guard")
    pool = TriplePool.from_seed("g")
    if elementwise:
        x = RingMatrix.column([1.0, 2.0])
        bad = pool.take_elem(3)
    else:
        x = RingMatrix.encode_rows([[1.0, 2.0]])
        bad = pool.take(3, 3, 3)
    with pytest.raises(DimensionMismatch):
        smm1(s[side], 1 - side, side, x, bad.half(side), 0,
             elementwise=elementwise)
    assert s[side].frames_sent == 0


def test_smm1_mismatched_operands_detected():
    s = sessions("mismatch")
    x = RingMatrix.encode_rows([[1.0, 2.0]])        # 1x2
    y = RingMatrix.encode_rows([[1.0], [2.0], [3.0]])  # 3x1, inner dim off
    pa = TriplePool.from_seed("mm")
    pb = TriplePool.from_seed("mm")
    ha = pa.take(1, 2, 1).half(0)
    hb = pb.take(3, 3, 1)  # wrong shape for y too

    def a():
        return smm1(s[0], 1, 0, x, ha, 0)

    def b():
        return smm1(s[1], 0, 1, y, hb.half(1), 0)

    with pytest.raises(DimensionMismatch):
        run_pair(a, b)


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
    from secregress.smm import cols_even, cols_odd
    assert mat_sub(mat_add(cols_even(f1), cols_odd(f1)), f2) == leak_x

    leak_y = leakage_of_y(y)
    g1, g2 = simulate_view(leak_y, "x", rng.child("sim-x"))
    from secregress.smm import rows_even, rows_odd
    assert mat_sub(g2, mat_sub(rows_even(g1), rows_odd(g1))) == leak_y

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
    a = RingMatrix.column(av)
    b = RingMatrix.column(bv)
    pa = TriplePool.from_seed(f"ew1-{n}-ti")
    pb = TriplePool.from_seed(f"ew1-{n}-ti")
    ha, hb = pa.take_elem(n).half(0), pb.take_elem(n).half(1)
    m, nn = run_pair(lambda: smm1(s[0], 1, 0, a, ha, 0, elementwise=True),
                     lambda: smm1(s[1], 0, 1, b, hb, 0, elementwise=True))
    got = mat_add(m, nn).decode_rows(frac_bits=40)
    assert got == [[av[i] * bv[i]] for i in range(n)]


@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_smm2_elementwise(n):
    rng = CounterDrbg(f"ew2-{n}")
    av, bv = vec_vals(n, rng), vec_vals(n, rng)
    s = sessions(f"ew2-{n}")
    a = RingMatrix.column(av)
    b = RingMatrix.column(bv)
    m, nn = run_pair(lambda: smm2_elem_x(s[0], 1, a, 0),
                     lambda: smm2_elem_y(s[1], 0, b, 0))
    got = mat_add(m, nn).decode_rows(frac_bits=40)
    assert got == [[av[i] * bv[i]] for i in range(n)]


def test_smm2_elementwise_leak_is_vector_and_differences():
    n = 6
    rng = CounterDrbg("ewleak")
    av, bv = vec_vals(n, rng), vec_vals(n, rng)
    s = sessions("ewleak")
    a = RingMatrix.column(av)
    b = RingMatrix.column(bv)
    run_pair(lambda: smm2_elem_x(s[0], 1, a, 0),
             lambda: smm2_elem_y(s[1], 0, b, 0))

    # y-holder's transcript exposes the x vector itself
    rep_b = extract_leakage(s[1].transcript.frames)
    assert rep_b.leaked == a
    # x-holder's transcript exposes adjacent differences of b
    rep_a = extract_leakage(s[0].transcript.frames)
    want = [(b.data[2 * j] - b.data[2 * j + 1]) & ((1 << 64) - 1)
            for j in range(n // 2)]
    assert rep_a.leaked == RingMatrix(n // 2, 1, want)


def test_elementwise_communication_is_linear():
    # frame bytes grow linearly in the vector length, not quadratically
    def bytes_for(n):
        rng = CounterDrbg(f"lin-{n}")
        av, bv = vec_vals(n, rng), vec_vals(n, rng)
        s = sessions(f"lin-{n}")
        run_pair(lambda: smm2_elem_x(s[0], 1, RingMatrix.column(av), 0),
                 lambda: smm2_elem_y(s[1], 0, RingMatrix.column(bv), 0))
        return s[0].bytes_sent + s[1].bytes_sent

    b64, b128 = bytes_for(64), bytes_for(128)
    assert b128 < 2.5 * b64


def test_padding_odd_lengths():
    rng = CounterDrbg("oddpad")
    for n in (1, 3, 7):
        av, bv = vec_vals(n, rng), vec_vals(n, rng)
        s = sessions(f"oddpad-{n}")
        m, nn = run_pair(
            lambda: smm2_elem_x(s[0], 1, RingMatrix.column(av), 0),
            lambda: smm2_elem_y(s[1], 0, RingMatrix.column(bv), 0))
        got = mat_add(m, nn).decode_rows(frac_bits=40)
        assert got == [[av[i] * bv[i]] for i in range(n)]
