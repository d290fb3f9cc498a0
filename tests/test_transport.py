"""Frame codec, loopback and TCP sessions, transcripts, barriers."""

import socket
import threading

import pytest

from secregress.errors import (
    BarrierTimeout,
    DeserializeError,
    HashMismatch,
    PeerClosed,
    RosterMismatch,
    TransportError,
    UnexpectedKind,
)
from secregress.ring import RingMatrix
from secregress.rng import CounterDrbg
from secregress.transport import (
    KIND_CONTROL,
    KIND_SHARE_DIST,
    KIND_SMM_D,
    KIND_SMM_E,
    Frame,
    TcpSession,
    Transcript,
    loopback_sessions,
)

GOLDEN_FRAME = (
    b"\x00\x00\x00\x20"                      # length 32, big-endian
    b"\x03\x00\x00\x00"                      # round 3
    b"\x02\x00"                              # kind SMM_D
    b"\x00\x00"                              # sender 0
    b"\x01\x00"                              # receiver 1
    b"\x00\x00"                              # pad
    b"\x00\x00\x00\x00"                      # reserved
    b"\x01\x00\x00\x00\x01\x00\x00\x00"      # 1x1 matrix
    b"\xef\xbe\xad\xde\x00\x00\x00\x00"      # 0xDEADBEEF
)


def run_parties(*fns):
    """Run one function per party in threads; re-raise the first failure."""
    errors = []

    def wrap(fn):
        try:
            fn()
        except Exception as e:  # propagated below
            errors.append(e)

    threads = [threading.Thread(target=wrap, args=(fn,)) for fn in fns]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    if errors:
        raise errors[0]


def make_rngs(n, tag):
    return [CounterDrbg(tag).child("private", i) for i in range(n)]


# --- frame codec ---

def test_frame_golden_bytes():
    f = Frame(3, KIND_SMM_D, 0, 1, RingMatrix(1, 1, [0xDEADBEEF]).to_bytes())
    assert f.encode_stream() == GOLDEN_FRAME


def test_frame_roundtrip():
    f = Frame(7, KIND_SHARE_DIST, 2, 0,
              RingMatrix(2, 3, list(range(6))).to_bytes())
    g = Frame.decode(f.encode())
    assert g == f
    assert g.matrix == RingMatrix(2, 3, list(range(6)))


def test_frame_decode_rejects_garbage():
    with pytest.raises(DeserializeError):
        Frame.decode(b"\x00" * 10)                       # too short
    ok = Frame(1, KIND_SMM_E, 0, 1, b"").encode()
    bad_kind = ok[:4] + b"\x63\x00" + ok[6:]
    with pytest.raises(DeserializeError):
        Frame.decode(bad_kind)
    bad_pad = ok[:10] + b"\x01\x00" + ok[12:]
    with pytest.raises(DeserializeError):
        Frame.decode(bad_pad)


# --- loopback ---

def test_loopback_exchange():
    s = loopback_sessions(2, make_rngs(2, "lb"))
    m = RingMatrix.encode_rows([[1.5, -2.0]])

    got = {}

    def p0():
        s[0].send(1, KIND_SHARE_DIST, m, 0)
        got[0] = s[0].recv(1, KIND_SMM_D, 0)

    def p1():
        got[1] = s[1].recv(0, KIND_SHARE_DIST, 0)
        s[1].send(0, KIND_SMM_D, got[1], 0)

    run_parties(p0, p1)
    assert got[0] == m and got[1] == m
    # 4-byte length + 16-byte header + 8 + 2*8 payload
    assert s[0].bytes_sent == 4 + 16 + 8 + 16 == s[1].bytes_received
    assert s[0].bytes_received == s[1].bytes_sent


def test_recv_validates_kind_and_round():
    s = loopback_sessions(2, make_rngs(2, "strict"))
    m = RingMatrix.zeros(1, 1)
    s[0].send(1, KIND_SMM_D, m, 5)
    with pytest.raises(UnexpectedKind):
        s[1].recv(0, KIND_SMM_E, 5)
    s[0].send(1, KIND_SMM_D, m, 5)
    with pytest.raises(UnexpectedKind):
        s[1].recv(0, KIND_SMM_D, 6)


def test_recv_timeout():
    s = loopback_sessions(2, make_rngs(2, "tmo"), timeout=0.05)
    with pytest.raises(TransportError):
        s[0].recv(1, KIND_SMM_D, 0)


def test_peer_closed():
    s = loopback_sessions(2, make_rngs(2, "closed"))
    s[0].close()
    with pytest.raises(PeerClosed):
        s[1].recv(0, KIND_SMM_D, 0)


def test_transcript_records_received_only():
    s = loopback_sessions(2, make_rngs(2, "tr"))
    m = RingMatrix(1, 1, [42])
    s[0].send(1, KIND_SHARE_DIST, m, 0)
    s[0].send(1, KIND_SMM_D, m, 1)
    assert len(s[0].transcript) == 0
    s[1].recv(0, KIND_SHARE_DIST, 0)
    s[1].recv(0, KIND_SMM_D, 1)
    assert len(s[1].transcript) == 2
    assert s[1].transcript.select(kind=KIND_SMM_D)[0].round_no == 1
    empty = Transcript().digest()
    assert s[1].transcript.digest() != empty


def test_transcript_digest_is_order_sensitive():
    a, b = Transcript(), Transcript()
    f1 = Frame(0, KIND_SMM_D, 0, 1, RingMatrix(1, 1, [1]).to_bytes()).encode()
    f2 = Frame(0, KIND_SMM_E, 0, 1, RingMatrix(1, 1, [2]).to_bytes()).encode()
    a.append(f1), a.append(f2)
    b.append(f2), b.append(f1)
    assert a.digest() != b.digest()


def test_barrier_three_parties():
    s = loopback_sessions(3, make_rngs(3, "barrier"))
    run_parties(*(lambda i=i: s[i].barrier("after-setup", 9) for i in range(3)))
    # every party consumed n-1 control frames
    assert all(len(x.transcript.select(kind=KIND_CONTROL)) == 2 for x in s)


def test_barrier_label_mismatch():
    s = loopback_sessions(2, make_rngs(2, "bmis"))
    errs = []

    def p0():
        try:
            s[0].barrier("phase-a", 0)
        except HashMismatch as e:
            errs.append(e)

    def p1():
        try:
            s[1].barrier("phase-b", 0)
        except HashMismatch as e:
            errs.append(e)

    run_parties(p0, p1)
    assert len(errs) == 2


def test_barrier_timeout():
    s = loopback_sessions(2, make_rngs(2, "btmo"), timeout=0.05)
    with pytest.raises(BarrierTimeout):
        s[0].barrier("alone", 0)


# --- tcp ---

def free_endpoints(n):
    socks, ports = [], []
    for _ in range(n):
        sk = socket.socket()
        sk.bind(("127.0.0.1", 0))
        socks.append(sk)
        ports.append(sk.getsockname()[1])
    for sk in socks:
        sk.close()
    return [("127.0.0.1", p) for p in ports]


def tcp_sessions(n, tag, endpoints=None, timeout=20.0):
    endpoints = endpoints or free_endpoints(n)
    rngs = make_rngs(n, tag)
    out = [None] * n

    def up(i):
        out[i] = TcpSession(i, n, rngs[i], endpoints, timeout=timeout)

    run_parties(*(lambda i=i: up(i) for i in range(n)))
    return out


def test_tcp_exchange_matches_loopback_transcript():
    m1 = RingMatrix.encode_rows([[2.5, -1.0], [0.125, 9.0]])
    m2 = RingMatrix(1, 3, [7, 8, 9])

    def run(sessions):
        def p0():
            sessions[0].send(1, KIND_SHARE_DIST, m1, 0)
            sessions[0].recv(1, KIND_SMM_D, 1)
            sessions[0].barrier("done", 2)

        def p1():
            sessions[1].recv(0, KIND_SHARE_DIST, 0)
            sessions[1].send(0, KIND_SMM_D, m2, 1)
            sessions[1].barrier("done", 2)

        run_parties(p0, p1)
        return [x.transcript.digest() for x in sessions]

    lb = run(loopback_sessions(2, make_rngs(2, "cmp")))
    tc_sessions = tcp_sessions(2, "cmp")
    try:
        tc = run(tc_sessions)
    finally:
        for x in tc_sessions:
            x.close()
    assert lb == tc


def test_tcp_three_party_barrier_and_traffic():
    s = tcp_sessions(3, "tcp3")
    m = RingMatrix(2, 2, [1, 2, 3, 4])
    try:
        def party(i):
            def go():
                s[i].barrier("start", 0)
                for j in range(3):
                    if j != i:
                        s[i].send(j, KIND_SMM_E, m, 1)
                for j in range(3):
                    if j != i:
                        assert s[i].recv(j, KIND_SMM_E, 1) == m
                s[i].barrier("end", 2)
            return go

        run_parties(*(party(i) for i in range(3)))
    finally:
        for x in s:
            x.close()


def test_tcp_large_bidirectional_send():
    # both sides push ~1.6 MB simultaneously; reader threads must drain
    s = tcp_sessions(2, "big")
    big = RingMatrix(400, 500, list(range(200000)))
    try:
        def p0():
            s[0].send(1, KIND_SMM_D, big, 0)
            assert s[0].recv(1, KIND_SMM_D, 0) == big

        def p1():
            s[1].send(0, KIND_SMM_D, big, 0)
            assert s[1].recv(0, KIND_SMM_D, 0) == big

        run_parties(p0, p1)
    finally:
        for x in s:
            x.close()


def test_tcp_roster_mismatch():
    eps = free_endpoints(2)
    # party 0 still dials the right address but disagrees on the roster
    other = [("10.9.9.9", 1234), eps[1]]
    rngs = make_rngs(2, "roster")
    errs = []

    def p0():
        try:
            TcpSession(0, 2, rngs[0], other, timeout=5.0).close()
        except (RosterMismatch, PeerClosed, TransportError) as e:
            errs.append(e)

    def p1():
        try:
            TcpSession(1, 2, rngs[1], eps, timeout=5.0).close()
        except (RosterMismatch, PeerClosed, TransportError) as e:
            errs.append(e)

    run_parties(p0, p1)
    assert any(isinstance(e, RosterMismatch) for e in errs)
