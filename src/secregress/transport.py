"""Frame format and party-to-party transport.

Every message is one frame: a big-endian u32 length, a 16-byte little-endian
header (round u32, kind u16, sender u16, receiver u16, pad u16, reserved
u32), and a serialized ring matrix as payload (rows u32, cols u32, then the
row-major little-endian u64 words). The same bytes travel over an
in-process loopback hub or real TCP sockets. Each party's transcript
hashes the frames it receives as it consumes them, so the transcript hash
is independent of thread or network scheduling. The transcript is that
hash and a frame count only; a session keeps no frame once its arrays are
handed on, so a run's memory does not grow with its length. Tests that read
the frames themselves install a recorder on the session before any
traffic (tests/oracles.py).

The training loop moves bare uint64 arrays. send_many encodes each frame
with one packed struct that holds the length, the header fields and the
shape, followed by the words. recv_many takes the frames a step expects
from one peer in one call: it checks every header and payload shape,
adds the frames to the transcript in the order given and returns the
arrays as read-only views of the received bytes. Frame and RingMatrix
are the edge: send, the golden frames and recorded transcripts. Both
transports share that path: arrived frame bodies wait in a per-peer
inbox, and recv_many, the one place a party blocks, calls the transport's
_wait while that inbox is empty.
"""

from __future__ import annotations

import hashlib
import json
import queue
import selectors
import socket
import struct
import sys
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConnectTimeout,
    DeserializeError,
    PeerClosed,
    RosterMismatch,
    TransportError,
    UnexpectedKind,
)
from .ring import RingMatrix

KIND_SHARE_DIST = 1   # share of a private input
KIND_SMM_D = 2        # masked/blinded left operand
KIND_SMM_E = 3        # masked/blinded right operand
KIND_Y_SHARE = 5      # share of a label vector
KIND_W_SHARE = 6      # share of a weight block
KIND_CONTROL = 7      # policy values

KIND_NAMES = {
    KIND_SHARE_DIST: "SHARE_DIST",
    KIND_SMM_D: "SMM_D",
    KIND_SMM_E: "SMM_E",
    KIND_Y_SHARE: "Y_SHARE",
    KIND_W_SHARE: "W_SHARE",
    KIND_CONTROL: "CONTROL",
}

HEADER_FMT = "<IHHHHI"
HEADER_LEN = struct.calcsize(HEADER_FMT)  # 16: 12 bytes of fields + pad
LEN_FMT = ">I"
_HEADER = struct.Struct(HEADER_FMT)
_LEN = struct.Struct(LEN_FMT)

# A frame's fixed bytes as one little-endian struct: the length prefix as
# four single bytes (the wire carries it big-endian), the header, the
# payload's shape. _BODY is the same without the length prefix, as recv
# reads it.
_FRAME = struct.Struct("<4BIHHHHIII")
_BODY = struct.Struct("<IHHHHIII")
_FIXED = _BODY.size  # 24: header and shape
_WORD = np.dtype("<u8")

# the words of an array as the wire has them, little-endian
if sys.byteorder == "little":
    _word_bytes = np.ndarray.tobytes
else:
    def _word_bytes(a: np.ndarray) -> bytes:
        return a.astype(_WORD).tobytes()

_HANDSHAKE_MAGIC = b"SRGW"
_HANDSHAKE_FMT = ">4sHHHQ"  # magic, version, n_parties, party_id, roster hash
_HANDSHAKE_LEN = struct.calcsize(_HANDSHAKE_FMT)
_WIRE_VERSION = 1

DEFAULT_TIMEOUT = 30.0


@dataclass(frozen=True)
class Frame:
    round_no: int
    kind: int
    sender: int
    receiver: int
    payload: bytes

    def encode(self) -> bytes:
        return _HEADER.pack(self.round_no, self.kind, self.sender,
                            self.receiver, 0, 0) + self.payload

    def encode_stream(self) -> bytes:
        return _LEN.pack(HEADER_LEN + len(self.payload)) + self.encode()

    @classmethod
    def decode(cls, body: bytes) -> "Frame":
        if len(body) < HEADER_LEN:
            raise DeserializeError("frame shorter than its header")
        round_no, kind, sender, receiver, pad, reserved = struct.unpack_from(
            HEADER_FMT, body, 0)
        if pad != 0 or reserved != 0:
            raise DeserializeError("nonzero padding in frame header")
        if kind not in KIND_NAMES:
            raise DeserializeError(f"unknown frame kind {kind}")
        return cls(round_no, kind, sender, receiver, bytes(body[HEADER_LEN:]))

    @property
    def matrix(self) -> RingMatrix:
        return RingMatrix.from_bytes(self.payload)

    def describe(self) -> str:
        return (f"{KIND_NAMES.get(self.kind, self.kind)} round={self.round_no} "
                f"{self.sender}->{self.receiver}")


class Transcript:
    """The running SHA-256 of the received frame bodies, in consumption
    order, and their count. No body is kept: a test that reads the frames
    themselves installs a recording subclass (tests/oracles.py) as the
    session's transcript before any traffic."""

    def __init__(self):
        self._hash = hashlib.sha256()
        self._count = 0

    def extend(self, bodies) -> None:
        for body in bodies:
            self._hash.update(body)
            self._count += 1

    def digest(self) -> str:
        return self._hash.hexdigest()

    def __len__(self):
        return self._count


class ProtocolSession(ABC):
    """One party's endpoint. send_many/recv_many move matrices; receiving
    is strict: the next frames from that peer must match the expected
    kinds and rounds. A transport supplies _send_frames and _wait."""

    def __init__(self, party_id: int, n_parties: int, rng,
                 timeout: float = DEFAULT_TIMEOUT):
        self.party_id = party_id
        self.n_parties = n_parties
        self.rng = rng
        self.timeout = timeout
        self.transcript = Transcript()
        self.bytes_sent = 0
        self.bytes_received = 0
        self.frames_sent = 0
        self._inbox = {p: [] for p in range(n_parties) if p != party_id}
        self._gone: dict[int, str] = {}

    @abstractmethod
    def _send_frames(self, receiver: int, frames: list[bytes]) -> None: ...

    @abstractmethod
    def _wait(self, sender: int) -> None:
        """Wait up to the session's timeout for more from the sender: add
        the bodies of arrived frames to its inbox, or record in _gone why
        it sends no more. Raises TransportError when the time runs out."""

    def send(self, receiver: int, kind: int, mat: RingMatrix,
             round_no: int) -> None:
        self.send_many(receiver, [(kind, mat.arr, round_no)])

    def send_many(self, receiver: int, items) -> None:
        """Send (kind, array, round) frames to one peer, in order, as one
        write where the transport allows it; each array is a 2-d uint64
        ring matrix."""
        if receiver == self.party_id or not 0 <= receiver < self.n_parties:
            raise TransportError(f"bad receiver {receiver}")
        me, frames = self.party_id, []
        for kind, a, round_no in items:
            rows, cols = a.shape
            n = _FIXED + 8 * rows * cols
            frames.append(_FRAME.pack(
                n >> 24, n >> 16 & 255, n >> 8 & 255, n & 255, round_no,
                kind, me, receiver, 0, 0, rows, cols) + _word_bytes(a))
        self._send_frames(receiver, frames)
        self.bytes_sent += sum(map(len, frames))
        self.frames_sent += len(frames)

    def recv_many(self, sender: int, expect) -> list[np.ndarray]:
        """The next frames from the sender, one per (kind, round) expected,
        in order, as read-only 2-d uint64 arrays.

        A frame whose header is not the one expected raises UnexpectedKind
        (DeserializeError when the header itself is malformed), and a
        payload that is no well-formed matrix raises DeserializeError.
        Each checked frame joins the transcript. A sender gone before the
        last frame raises PeerClosed.
        """
        if sender == self.party_id or not 0 <= sender < self.n_parties:
            raise TransportError(f"bad sender {sender}")
        me, want, out = self.party_id, len(expect), []
        inbox, got = self._inbox[sender], 0
        while got < want:
            while not inbox and sender not in self._gone:
                self._wait(sender)
            if not inbox:
                raise PeerClosed(f"party {sender} {self._gone[sender]}")
            bodies = inbox[:want - got]
            del inbox[:want - got]
            for body in bodies:
                kind, round_no = expect[got]
                got += 1
                size = len(body)
                if size < _FIXED:
                    self._reject(body, sender, kind, round_no)
                r, k, s, to, pad, res, rows, cols = _BODY.unpack_from(body)
                if (r != round_no or k != kind or s != sender or to != me
                        or pad or res or not rows or not cols
                        or size != _FIXED + 8 * rows * cols):
                    self._reject(body, sender, kind, round_no)
                out.append(np.ndarray((rows, cols), _WORD, body, _FIXED))
                self.bytes_received += 4 + size
            self.transcript.extend(bodies)
        return out

    def _reject(self, body, sender: int, kind: int, round_no: int):
        """Raise what is wrong with a frame that failed recv_many's check."""
        if (len(body) < HEADER_LEN or _HEADER.unpack_from(body)
                != (round_no, kind, sender, self.party_id, 0, 0)):
            frame = Frame.decode(body)  # raises on a malformed header
            raise UnexpectedKind(
                f"party {self.party_id} expected "
                f"{KIND_NAMES[kind]} round={round_no} from {sender}, "
                f"got {frame.describe()}")
        RingMatrix.from_bytes(memoryview(body)[HEADER_LEN:])  # raises
        raise AssertionError("frame passed the full check")

    def close(self) -> None:
        pass


# --- in-process loopback ---

_CLOSE_SENTINEL = None


class LoopbackSession(ProtocolSession):
    """Queues between threads: each send_many is one queue item holding
    its frames, and a wait takes the next item into the sender's inbox."""

    def __init__(self, party_id, n_parties, rng, channels, timeout):
        super().__init__(party_id, n_parties, rng, timeout)
        self._channels = channels  # dict[(src, dst)] -> SimpleQueue

    def _send_frames(self, receiver, frames):
        self._channels[(self.party_id, receiver)].put(frames)

    def _wait(self, sender):
        try:
            frames = self._channels[(sender, self.party_id)].get(
                timeout=self.timeout)
        except queue.Empty:
            raise TransportError(
                f"party {self.party_id}: nothing from {sender} "
                f"after {self.timeout:.0f}s") from None
        if frames is _CLOSE_SENTINEL:
            self._gone[sender] = "closed the channel"
        else:  # strip each length prefix, no copy
            self._inbox[sender] += [memoryview(data)[4:] for data in frames]

    def close(self):
        for (src, dst), q in self._channels.items():
            if src == self.party_id:
                q.put(_CLOSE_SENTINEL)


def loopback_sessions(n_parties: int, rngs,
                      timeout: float = DEFAULT_TIMEOUT) -> list[LoopbackSession]:
    """Connected endpoints for n threads in one process. rngs: one per party."""
    channels = {(i, j): queue.SimpleQueue()
                for i in range(n_parties) for j in range(n_parties) if i != j}
    return [LoopbackSession(i, n_parties, rngs[i], channels, timeout)
            for i in range(n_parties)]


# --- TCP ---

def roster_hash(endpoints: list[tuple[str, int]]) -> int:
    canon = json.dumps([[h, p] for h, p in endpoints])
    return int.from_bytes(
        hashlib.sha256(canon.encode()).digest()[:8], "big")


def _read_exact(sock: socket.socket, n: int) -> bytes:
    """n bytes from a blocking socket (the connection handshake)."""
    buf = b""
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise PeerClosed("connection closed mid-frame")
        buf += chunk
    return buf


def _left(deadline: float) -> float:
    """A socket timeout for the rest of the connect deadline (a timeout
    of 0 would make the socket non-blocking)."""
    return max(0.1, deadline - time.monotonic())


_READ = selectors.EVENT_READ
_WRITE = selectors.EVENT_WRITE


class TcpSession(ProtocolSession):
    """Socket transport: party i dials every j > i and accepts from j < i.

    The connect is one pass on the party's own thread: bind the listener,
    dial every higher id in turn, then accept the lower ids in arrival
    order, each wait bounded by one deadline. A dial's handshake waits
    only on a higher id, and the highest party dials no one, so every
    chain of such waits ends at a party that is accepting; lower dialers
    queue in the listener's backlog until then. An accepted id already
    connected (a duplicate, or any higher id) is refused.

    Once connected, every socket is non-blocking and only the party's own
    thread touches them; there are no reader threads. A wait for a peer's
    frames first reads that peer's socket, and selects only when no whole
    frame from it has arrived. Whenever the party selects, for a peer's
    frames or in a send the kernel cannot take yet, it reads every peer
    that has bytes ready into that peer's buffer and moves each complete
    frame to that peer's inbox. So a large send can never deadlock against
    a peer's own large send, nor against a chain of parties each waiting
    on the next: a party that waits keeps draining everyone. The wait is a
    selectors.DefaultSelector, the platform's best portable poll.
    """

    _CHUNK = 1 << 16   # bytes asked of the kernel per read

    def __init__(self, party_id, n_parties, rng, endpoints,
                 timeout=DEFAULT_TIMEOUT):
        super().__init__(party_id, n_parties, rng, timeout)
        self._endpoints = endpoints
        self._roster = roster_hash(endpoints)
        self._socks: dict[int, socket.socket] = {}
        self._bufs: dict[int, bytearray] = {}
        self._closed = False
        self._connect_all()
        self._selector = selectors.DefaultSelector()
        for peer, sock in self._socks.items():
            sock.setblocking(False)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._selector.register(sock, _READ, peer)
            self._bufs[peer] = bytearray()

    # connection setup

    def _handshake_bytes(self) -> bytes:
        return struct.pack(_HANDSHAKE_FMT, _HANDSHAKE_MAGIC, _WIRE_VERSION,
                           self.n_parties, self.party_id, self._roster)

    def _check_handshake(self, data: bytes, expect_id: int | None) -> int:
        magic, ver, n, pid, roster = struct.unpack(_HANDSHAKE_FMT, data)
        if magic != _HANDSHAKE_MAGIC or ver != _WIRE_VERSION:
            raise RosterMismatch("peer speaks a different wire version")
        if n != self.n_parties or roster != self._roster:
            raise RosterMismatch(
                f"peer {pid} has a different party roster")
        if expect_id is not None and pid != expect_id:
            raise RosterMismatch(f"expected party {expect_id}, got {pid}")
        if not 0 <= pid < self.n_parties or pid == self.party_id:
            raise RosterMismatch(f"invalid peer id {pid}")
        if pid in self._socks:  # a duplicate, or a higher id already dialed
            raise RosterMismatch(f"party {pid} is already connected")
        return pid

    def _connect_all(self):
        """Open every peer socket, or close all those opened and raise."""
        deadline = time.monotonic() + self.timeout
        me, listener = self.party_id, None
        try:
            if me > 0:  # bound first, so lower dialers queue in its backlog
                listener = socket.create_server(self._endpoints[me],
                                                backlog=me)
            for peer in range(me + 1, self.n_parties):
                self._socks[peer] = self._dial(peer, deadline)
            for got in range(me):
                listener.settimeout(_left(deadline))
                try:
                    conn, _ = listener.accept()
                    try:
                        conn.settimeout(_left(deadline))
                        pid = self._check_handshake(
                            _read_exact(conn, _HANDSHAKE_LEN), None)
                        conn.sendall(self._handshake_bytes())
                    except BaseException:
                        conn.close()  # the dialer sees EOF, not a stall
                        raise
                except TimeoutError:
                    raise ConnectTimeout(
                        f"party {me}: only {got} of {me} lower-id peers "
                        f"connected") from None
                self._socks[pid] = conn
        except BaseException:
            for sock in self._socks.values():
                sock.close()
            self._socks.clear()
            raise
        finally:
            if listener is not None:
                listener.close()

    def _dial(self, peer: int, deadline: float) -> socket.socket:
        host, port = self._endpoints[peer]
        while True:
            try:
                sock = socket.create_connection(
                    (host, port), timeout=_left(deadline))
                break
            except (ConnectionRefusedError, OSError):
                if time.monotonic() >= deadline:
                    raise ConnectTimeout(
                        f"party {self.party_id} could not reach party {peer} "
                        f"at {host}:{port}") from None
                # a refused connect returns at once and the peer may bind
                # at any moment while it starts up, so retry soon
                time.sleep(0.003)
        sock.settimeout(_left(deadline))
        try:
            sock.sendall(self._handshake_bytes())
            self._check_handshake(_read_exact(sock, _HANDSHAKE_LEN), peer)
        except TimeoutError:
            sock.close()
            raise ConnectTimeout(
                f"party {peer} did not complete the handshake") from None
        except BaseException:
            sock.close()
            raise
        return sock

    # steady state

    def _pump(self, peer: int) -> None:
        """Read whatever the peer's socket holds and put the body of every
        frame it completes in the peer's inbox."""
        sock, buf = self._socks[peer], self._bufs[peer]
        gone = None
        try:
            while True:
                chunk = sock.recv(self._CHUNK)
                if not chunk:
                    gone = "closed the connection"
                    break
                buf += chunk
                if len(chunk) < self._CHUNK:
                    break
        except BlockingIOError:
            pass
        except OSError as e:
            gone = f"broke the connection: {e}"
        end = len(buf)
        # copy the buffer out only once it holds a whole frame
        if end >= 4 and 4 + (buf[0] << 24 | buf[1] << 16 | buf[2] << 8
                             | buf[3]) <= end:
            data, off, inbox = bytes(buf), 0, self._inbox[peer]
            while end - off >= 4:
                stop = off + 4 + (data[off] << 24 | data[off + 1] << 16
                                  | data[off + 2] << 8 | data[off + 3])
                if stop > end:
                    break
                inbox.append(data[off + 4:stop])
                off = stop
            del buf[:off]
        if gone is not None:
            self._lose(peer, gone + (" mid-frame" if buf else ""))

    def _lose(self, peer: int, why: str) -> None:
        self._gone[peer] = why
        self._selector.unregister(self._socks[peer])

    def _select(self, deadline: float, what: str) -> set[int]:
        """One wait on every open socket: read each readable peer and
        return the peers that can take more bytes."""
        left = deadline - time.monotonic()
        if left <= 0:
            raise TransportError(f"party {self.party_id}: {what}")
        writable = set()
        for key, events in self._selector.select(left):
            if events & _READ:
                self._pump(key.data)
            if events & _WRITE:
                writable.add(key.data)
        return writable

    def _send_frames(self, receiver, frames):
        sock = self._socks.get(receiver)
        if sock is None or self._closed:
            raise PeerClosed(f"no open channel to party {receiver}")
        data = b"".join(frames)
        view, off = None, 0
        while True:
            try:
                off += sock.send(data if view is None else view[off:])
            except BlockingIOError:
                pass
            except OSError as e:
                raise PeerClosed(f"send to party {receiver} failed: {e}") from e
            if off == len(data):
                return
            view = memoryview(data)
            self._await_writable(receiver)

    def _await_writable(self, receiver: int) -> None:
        deadline = time.monotonic() + self.timeout
        what = f"party {receiver} took no bytes for {self.timeout:.0f}s"
        while True:
            if receiver in self._gone:
                raise PeerClosed(
                    f"party {receiver} {self._gone[receiver]}")
            sock = self._socks[receiver]
            self._selector.modify(sock, _READ | _WRITE, receiver)
            try:
                if receiver in self._select(deadline, what):
                    return
            finally:
                if receiver not in self._gone:
                    self._selector.modify(sock, _READ, receiver)

    def _wait(self, sender):
        # read first: a reply that has already arrived needs no wait
        self._pump(sender)
        inbox, deadline = self._inbox[sender], time.monotonic() + self.timeout
        while not inbox and sender not in self._gone:
            self._select(deadline, f"nothing from {sender} after "
                         f"{self.timeout:.0f}s")

    def close(self):
        self._closed = True
        self._selector.close()
        for sock in self._socks.values():
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            sock.close()
