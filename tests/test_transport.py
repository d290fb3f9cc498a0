"""Frame codec, loopback and TCP sessions, transcripts."""

import os
import socket
import struct
import threading
import time

import pytest

from secregress.errors import (
    ConnectTimeout,
    DeserializeError,
    PeerClosed,
    RosterMismatch,
    TransportError,
    UnexpectedKind,
)
from secregress.ring import RingMatrix
from secregress.rng import CounterDrbg
from secregress.transport import (
    _HANDSHAKE_FMT,
    _HANDSHAKE_LEN,
    _HANDSHAKE_MAGIC,
    _WIRE_VERSION,
    KIND_CONTROL,
    KIND_SHARE_DIST,
    KIND_SMM_D,
    KIND_SMM_E,
    Frame,
    TcpSession,
    Transcript,
    loopback_sessions,
    roster_hash,
)

from oracles import record, select

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
        (got[0],) = s[0].recv_many(1, [(KIND_SMM_D, 0)])

    def p1():
        (got[1],) = s[1].recv_many(0, [(KIND_SHARE_DIST, 0)])
        s[1].send_many(0, [(KIND_SMM_D, got[1], 0)])

    run_parties(p0, p1)
    assert got[0].tolist() == got[1].tolist() == m.arr.tolist()
    # 4-byte length + 16-byte header + 8 + 2*8 payload
    assert s[0].bytes_sent == 4 + 16 + 8 + 16 == s[1].bytes_received
    assert s[0].bytes_received == s[1].bytes_sent


def test_recv_validates_kind_and_round():
    s = loopback_sessions(2, make_rngs(2, "strict"))
    m = RingMatrix(1, 1, [0])
    s[0].send(1, KIND_SMM_D, m, 5)
    with pytest.raises(UnexpectedKind):
        s[1].recv_many(0, [(KIND_SMM_E, 5)])
    s[0].send(1, KIND_SMM_D, m, 5)
    with pytest.raises(UnexpectedKind):
        s[1].recv_many(0, [(KIND_SMM_D, 6)])


def two_sessions(transport, tag, timeout=20.0):
    """Parties 0 and 1 of two over loopback queues or localhost TCP."""
    if transport == "loopback":
        return loopback_sessions(2, make_rngs(2, tag), timeout=timeout)
    return tcp_sessions(2, tag, timeout=timeout)


@pytest.mark.parametrize("transport", ["loopback", "tcp"])
def test_recv_timeout(transport):
    s = two_sessions(transport, "tmo", timeout=0.3)
    try:
        with pytest.raises(TransportError, match="party 0: nothing from 1"):
            s[0].recv_many(1, [(KIND_SMM_D, 0)])
    finally:
        for x in s:
            x.close()


@pytest.mark.parametrize("transport", ["loopback", "tcp"])
def test_peer_closed(transport):
    s = two_sessions(transport, "closed")
    a, b = RingMatrix(1, 1, [1]), RingMatrix(1, 2, [2, 3])
    try:
        # a send_many of no frames delivers nothing; what follows arrives
        s[0].send_many(1, [])
        s[0].send_many(1, [(KIND_SMM_D, a.arr, 0), (KIND_SMM_E, b.arr, 0)])
        s[0].close()
        # two frames of one write, taken one at a time: the second waits
        # in the inbox between the calls, and only then is the peer gone
        (got_a,) = s[1].recv_many(0, [(KIND_SMM_D, 0)])
        (got_b,) = s[1].recv_many(0, [(KIND_SMM_E, 0)])
        assert (got_a.tolist(), got_b.tolist()) == ([[1]], [[2, 3]])
        assert len(s[1].transcript) == 2
        with pytest.raises(PeerClosed, match="^party 0 closed the"):
            s[1].recv_many(0, [(KIND_SMM_D, 1)])
    finally:
        for x in s:
            x.close()


def test_transcript_records_received_only():
    s = record(*loopback_sessions(2, make_rngs(2, "tr")))
    m = RingMatrix(1, 1, [42])
    s[0].send(1, KIND_SHARE_DIST, m, 0)
    s[0].send(1, KIND_SMM_D, m, 1)
    assert len(s[0].transcript) == 0
    s[1].recv_many(0, [(KIND_SHARE_DIST, 0)])
    s[1].recv_many(0, [(KIND_SMM_D, 1)])
    assert len(s[1].transcript) == 2
    assert select(s[1].transcript, kind=KIND_SMM_D)[0].round_no == 1
    empty = Transcript().digest()
    assert s[1].transcript.digest() != empty


def test_transcript_digest_is_order_sensitive():
    a, b = Transcript(), Transcript()
    f1 = Frame(0, KIND_SMM_D, 0, 1, RingMatrix(1, 1, [1]).to_bytes()).encode()
    f2 = Frame(0, KIND_SMM_E, 0, 1, RingMatrix(1, 1, [2]).to_bytes()).encode()
    a.extend((f1, f2))
    b.extend((f2, f1))
    assert a.digest() != b.digest()


def barrier(session, round_no):
    """All-to-all exchange of one control frame: no party gets past it
    before every party has reached it."""
    tag = RingMatrix(1, 1, [round_no])
    peers = [p for p in range(session.n_parties) if p != session.party_id]
    for p in peers:
        session.send(p, KIND_CONTROL, tag, round_no)
    for p in peers:
        (got,) = session.recv_many(p, [(KIND_CONTROL, round_no)])
        assert got.tolist() == tag.arr.tolist()


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
            sessions[0].recv_many(1, [(KIND_SMM_D, 1)])
            barrier(sessions[0], 2)

        def p1():
            sessions[1].recv_many(0, [(KIND_SHARE_DIST, 0)])
            sessions[1].send(0, KIND_SMM_D, m2, 1)
            barrier(sessions[1], 2)

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
                barrier(s[i], 0)
                for j in range(3):
                    if j != i:
                        s[i].send(j, KIND_SMM_E, m, 1)
                for j in range(3):
                    if j != i:
                        (got,) = s[i].recv_many(j, [(KIND_SMM_E, 1)])
                        assert got.tolist() == m.arr.tolist()
                barrier(s[i], 2)
            return go

        run_parties(*(party(i) for i in range(3)))
    finally:
        for x in s:
            x.close()


def test_tcp_large_bidirectional_send():
    # both sides push ~1.6 MB simultaneously; each must keep reading its
    # socket while its own send waits
    s = tcp_sessions(2, "big")
    big = RingMatrix(400, 500, list(range(200000)))
    try:
        def p0():
            s[0].send(1, KIND_SMM_D, big, 0)
            (got,) = s[0].recv_many(1, [(KIND_SMM_D, 0)])
            assert got.tolist() == big.arr.tolist()

        def p1():
            s[1].send(0, KIND_SMM_D, big, 0)
            (got,) = s[1].recv_many(0, [(KIND_SMM_D, 0)])
            assert got.tolist() == big.arr.tolist()

        run_parties(p0, p1)
    finally:
        for x in s:
            x.close()


def test_tcp_dialer_waits_for_a_late_listener():
    # party 0 dials before party 1 has bound its port, so its first
    # connects are refused and must be retried
    eps = free_endpoints(2)
    rngs = make_rngs(2, "late")
    s = [None, None]
    m = RingMatrix(1, 2, [5, 6])

    def p0():
        s[0] = TcpSession(0, 2, rngs[0], eps, timeout=20.0)
        s[0].send(1, KIND_SMM_D, m, 0)

    def p1():
        time.sleep(0.2)
        s[1] = TcpSession(1, 2, rngs[1], eps, timeout=20.0)
        (got,) = s[1].recv_many(0, [(KIND_SMM_D, 0)])
        assert got.tolist() == m.arr.tolist()

    try:
        run_parties(p0, p1)
    finally:
        for x in s:
            if x is not None:
                x.close()


def test_tcp_listener_without_dialer_times_out():
    # party 1 listens for party 0, which never dials
    t0 = time.monotonic()
    with pytest.raises(ConnectTimeout):
        TcpSession(1, 2, make_rngs(2, "lonely")[1], free_endpoints(2),
                   timeout=0.5)
    assert time.monotonic() - t0 < 3.0


def test_failed_connect_leaves_no_thread_behind():
    # party 1 of 3 dials party 2, which never listens
    before = set(threading.enumerate())
    with pytest.raises(ConnectTimeout):
        TcpSession(1, 3, make_rngs(3, "alone")[1], free_endpoints(3),
                   timeout=0.5)
    assert set(threading.enumerate()) - before == set()


@pytest.mark.parametrize("order", [(0, 1, 2, 3), (3, 2, 1, 0), (1, 3, 0, 2)],
                         ids=["lowest-first", "highest-first", "staggered"])
def test_tcp_four_parties_connect_in_any_start_order(order):
    # the k-th party in order starts 0.1 s * k late, then every pair
    # exchanges one frame each way
    eps = free_endpoints(4)
    rngs = make_rngs(4, "order")
    s = [None] * 4

    def party(i):
        def go():
            time.sleep(0.1 * order.index(i))
            s[i] = TcpSession(i, 4, rngs[i], eps, timeout=20.0)
            barrier(s[i], 0)
        return go

    try:
        run_parties(*(party(i) for i in range(4)))
    finally:
        for x in s:
            if x is not None:
                x.close()
    assert [len(x.transcript) for x in s] == [3] * 4


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


# --- tcp against a raw-socket peer ---

class RawPeer:
    """A listening socket at endpoints[pid] that answers one dialer's
    handshake as party claim (default pid) and then hands over the raw
    connection, so a test can write any bytes it likes."""

    def __init__(self, endpoints, pid, claim=None, roster=None):
        self.listener = socket.create_server(endpoints[pid])
        self.reply = struct.pack(
            _HANDSHAKE_FMT, _HANDSHAKE_MAGIC, _WIRE_VERSION, len(endpoints),
            pid if claim is None else claim,
            roster_hash(endpoints) if roster is None else roster)
        self.conn = None
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self):
        self.listener.settimeout(10)
        conn, _ = self.listener.accept()
        conn.settimeout(10)
        got = b""
        while len(got) < _HANDSHAKE_LEN:
            got += conn.recv(_HANDSHAKE_LEN - len(got))
        conn.sendall(self.reply)
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.conn = conn

    def connected(self):
        self.thread.join(10)
        return self.conn

    def close(self):
        self.thread.join(10)
        for sk in (self.conn, self.listener):
            if sk is not None:
                sk.close()


def raw_session(tag, timeout=10.0):
    """Party 0 of two over TCP, with a RawPeer as party 1."""
    eps = free_endpoints(2)
    peer = RawPeer(eps, 1)
    s = TcpSession(0, 2, make_rngs(2, tag)[0], eps, timeout=timeout)
    return s, peer


def wire(round_no, kind, mat):
    return Frame(round_no, kind, 1, 0, mat.to_bytes()).encode_stream()


def test_tcp_frames_split_at_every_byte_boundary():
    s, peer = raw_session("split")
    a, b = RingMatrix(1, 2, [5, 6]), RingMatrix(2, 1, [7, 2 ** 64 - 1])
    cuts = range(1, len(wire(0, KIND_SMM_D, a) + wire(0, KIND_SMM_E, b)))
    conn = peer.connected()

    def writer():
        for cut in cuts:
            data = wire(cut, KIND_SMM_D, a) + wire(cut, KIND_SMM_E, b)
            conn.sendall(data[:cut])
            time.sleep(0.002)  # lets the reader take the first part alone
            conn.sendall(data[cut:])

    t = threading.Thread(target=writer)
    t.start()
    try:
        for cut in cuts:
            (got_a,) = s.recv_many(1, [(KIND_SMM_D, cut)])
            (got_b,) = s.recv_many(1, [(KIND_SMM_E, cut)])
            assert (got_a.tolist(), got_b.tolist()) == (a.arr.tolist(),
                                                        b.arr.tolist())
    finally:
        t.join(30)
        s.close()
        peer.close()
    assert len(s.transcript) == 2 * len(cuts)


def test_tcp_many_frames_in_one_segment():
    s, peer = raw_session("burst")
    mats = [RingMatrix(1, 1 + i % 3, list(range(1 + i % 3)))
            for i in range(300)]
    try:
        peer.connected().sendall(b"".join(
            wire(i, KIND_SHARE_DIST, m) for i, m in enumerate(mats)))
        assert [s.recv_many(1, [(KIND_SHARE_DIST, i)])[0].tolist()
                for i in range(len(mats))] == [m.arr.tolist() for m in mats]
    finally:
        s.close()
        peer.close()


def test_tcp_eof_mid_frame_raises_peer_closed():
    s, peer = raw_session("eof")
    data = wire(0, KIND_SMM_D, RingMatrix(2, 2, [1, 2, 3, 4]))
    try:
        conn = peer.connected()
        conn.sendall(data + data[:len(data) // 2])
        conn.close()
        (got,) = s.recv_many(1, [(KIND_SMM_D, 0)])
        assert got.tolist() == [[1, 2], [3, 4]]
        with pytest.raises(PeerClosed):
            s.recv_many(1, [(KIND_SMM_D, 0)])
    finally:
        s.close()
        peer.close()


def test_tcp_silent_peer_times_out():
    s, peer = raw_session("silent", timeout=0.3)
    try:
        peer.connected()
        t0 = time.monotonic()
        with pytest.raises(TransportError):
            s.recv_many(1, [(KIND_SMM_D, 0)])
        assert 0.25 <= time.monotonic() - t0 < 2.0
    finally:
        s.close()
        peer.close()


def test_tcp_chain_with_multi_megabyte_frames_does_not_deadlock():
    # Party 1 waits on party 2, who waits on party 0, who is pushing 8 MB
    # to party 1: only if party 1 drains party 0 while waiting on party 2
    # does party 0's send finish and the chain move.
    s = tcp_sessions(3, "chain", timeout=10.0)
    big = RingMatrix(1000, 1000, list(range(1000 * 1000)))
    small = RingMatrix(1, 1, [9])
    got = {}
    try:
        def p0():
            s[0].send(1, KIND_SMM_D, big, 0)
            s[0].send(2, KIND_SMM_E, small, 0)

        def p1():
            (got["small"],) = s[1].recv_many(2, [(KIND_SMM_E, 0)])
            (got["big"],) = s[1].recv_many(0, [(KIND_SMM_D, 0)])

        def p2():
            s[2].recv_many(0, [(KIND_SMM_E, 0)])
            s[2].send(1, KIND_SMM_E, small, 0)

        run_parties(p0, p1, p2)
    finally:
        for x in s:
            x.close()
    assert got["small"].tolist() == small.arr.tolist()
    assert got["big"].tolist() == big.arr.tolist()


def test_send_many_is_one_write_of_ordered_frames():
    s, peer = raw_session("many")
    a, b = RingMatrix(1, 1, [3]), RingMatrix(1, 2, [4, 5])
    try:
        conn = peer.connected()
        s.send_many(1, [(KIND_SMM_D, a.arr, 7), (KIND_SMM_E, b.arr, 7)])
        want = (Frame(7, KIND_SMM_D, 0, 1, a.to_bytes()).encode_stream()
                + Frame(7, KIND_SMM_E, 0, 1, b.to_bytes()).encode_stream())
        got = b""
        while len(got) < len(want):
            got += conn.recv(4096)
        assert got == want
        assert (s.frames_sent, s.bytes_sent) == (2, len(want))
    finally:
        s.close()
        peer.close()


# --- sockets of failed connections ---

def open_fds():
    return set(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="needs /proc/self/fd")
@pytest.mark.parametrize("case", ["roster", "peer-id", "second-dial",
                                  "accepted-roster", "duplicate-id"])
def test_failed_tcp_session_closes_its_sockets(case):
    eps = free_endpoints(3)
    rng = make_rngs(1, "fds")[0]
    before = open_fds()
    peers = []
    if case in ("accepted-roster", "duplicate-id"):
        # party 1 of 2 accepts a dialer that names a different roster, or
        # party 2 of 3 accepts two dialers that both claim party 0; each
        # dialer retries until the listener is up
        me, n, roster, dialers = ((1, 2, 12345, 1)
                                  if case == "accepted-roster"
                                  else (2, 3, roster_hash(eps), 2))

        def dial():
            deadline = time.monotonic() + 5
            while True:
                try:
                    sk = socket.create_connection(eps[me], timeout=5)
                    break
                except ConnectionRefusedError:
                    if time.monotonic() > deadline:
                        raise
                    time.sleep(0.01)
            with sk:
                sk.sendall(struct.pack(_HANDSHAKE_FMT, _HANDSHAKE_MAGIC,
                                       _WIRE_VERSION, n, 0, roster))
                sk.recv(64)
        threads = [threading.Thread(target=dial, daemon=True)
                   for _ in range(dialers)]
        for t in threads:
            t.start()
        with pytest.raises(RosterMismatch) as err:
            TcpSession(me, n, rng, eps[:n], timeout=5.0)
        for t in threads:
            t.join(10)
    else:
        if case == "roster":
            peers = [RawPeer(eps[:2], 1, roster=12345)]
            n = 2
        elif case == "peer-id":
            peers = [RawPeer(eps[:2], 1, claim=0)]
            n = 2
        else:  # party 1 answers properly, party 2 claims to be party 1
            peers = [RawPeer(eps, 1), RawPeer(eps, 2, claim=1)]
            n = 3
        with pytest.raises(RosterMismatch) as err:
            TcpSession(0, n, rng, eps[:n], timeout=5.0)
        for p in peers:
            p.close()
    # err (still alive here) keeps the failed constructor's frames, and so
    # any socket it only dropped, from being collected
    assert err.value is not None
    assert open_fds() - before == set()


# --- the batched receive checks every frame as recv does ---

def _raw_wire(round_no=4, kind=KIND_SMM_D, sender=1, receiver=0, pad=0,
              reserved=0, shape=(1, 1), words=1, payload=None):
    """A frame from party 1 to party 0 with any header and payload."""
    if payload is None:
        payload = struct.pack("<II", *shape) + b"\x07" * (8 * words)
    body = struct.pack("<IHHHHI", round_no, kind, sender, receiver, pad,
                       reserved) + payload
    return struct.pack(">I", len(body)) + body


# each bad frame is due as (KIND_SMM_D, round 4) from party 1 to party 0
BAD_FRAMES = {
    "wrong-round": (_raw_wire(round_no=5), UnexpectedKind),
    "wrong-kind": (_raw_wire(kind=KIND_SMM_E), UnexpectedKind),
    "wrong-sender": (_raw_wire(sender=2), UnexpectedKind),
    "wrong-receiver": (_raw_wire(receiver=1), UnexpectedKind),
    "nonzero-pad": (_raw_wire(pad=1), DeserializeError),
    "nonzero-reserved": (_raw_wire(reserved=1), DeserializeError),
    "truncated-shape": (_raw_wire(payload=b"\x01\x00\x00\x00"),
                        DeserializeError),
    "wrong-payload-length": (_raw_wire(shape=(2, 1), words=1),
                             DeserializeError),
    "zero-rows": (_raw_wire(shape=(0, 1), words=0), DeserializeError),
}
GOOD_FIRST = _raw_wire(round_no=4, kind=KIND_SHARE_DIST)


@pytest.mark.parametrize("batched", [False, True])
@pytest.mark.parametrize("transport", ["loopback", "tcp"])
@pytest.mark.parametrize("case", sorted(BAD_FRAMES))
def test_batched_receive_raises_what_recv_raises(case, transport, batched):
    bad, error = BAD_FRAMES[case]
    # a one-frame receive takes the bad frame alone; a batched one takes
    # it second, behind a good frame
    data = GOOD_FIRST + bad if batched else bad
    if transport == "loopback":
        s = loopback_sessions(2, make_rngs(2, "bad-" + case), timeout=5.0)
        s[1]._send_frames(0, [GOOD_FIRST, bad] if batched else [bad])
        me, peer = s[0], None
    else:
        me, peer = raw_session("bad-" + case, timeout=5.0)
        peer.connected().sendall(data)
    try:
        with pytest.raises(error):
            if batched:
                me.recv_many(1, [(KIND_SHARE_DIST, 4), (KIND_SMM_D, 4)])
            else:
                me.recv_many(1, [(KIND_SMM_D, 4)])
    finally:
        me.close()
        if peer is not None:
            peer.close()
