"""Frame format and party-to-party transport.

Every message is one frame: a big-endian u32 length, a 16-byte little-endian
header (round u32, kind u16, sender u16, receiver u16, pad u16, reserved
u32), and a serialized ring matrix as payload. The same bytes travel over an
in-process loopback hub or real TCP sockets; per-party transcripts record
frames as they are consumed by recv, so the transcript hash is independent
of thread or network scheduling.
"""

from __future__ import annotations

import hashlib
import json
import queue
import socket
import struct
import threading
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass

from .errors import (
    BarrierTimeout,
    ConnectTimeout,
    DeserializeError,
    HashMismatch,
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
KIND_CONTROL = 7      # policy values and barriers

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
        header = struct.pack(HEADER_FMT, self.round_no, self.kind,
                             self.sender, self.receiver, 0, 0)
        return header + self.payload

    def encode_stream(self) -> bytes:
        body = self.encode()
        return struct.pack(LEN_FMT, len(body)) + body

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
    """Received frames in consumption order, with a running hash."""

    def __init__(self):
        self.frames: list[Frame] = []
        self._hash = hashlib.sha256()

    def append(self, frame: Frame) -> None:
        self.frames.append(frame)
        self._hash.update(frame.encode())

    def digest(self) -> str:
        return self._hash.hexdigest()

    def select(self, kind: int | None = None, round_no: int | None = None,
               sender: int | None = None) -> list[Frame]:
        out = []
        for f in self.frames:
            if kind is not None and f.kind != kind:
                continue
            if round_no is not None and f.round_no != round_no:
                continue
            if sender is not None and f.sender != sender:
                continue
            out.append(f)
        return out

    def __len__(self):
        return len(self.frames)


def label_hash(label: str) -> int:
    """Stable u64 tag for barrier labels."""
    return int.from_bytes(
        hashlib.sha256(b"secregress.label\x00" + label.encode()).digest()[:8],
        "little")


class ProtocolSession(ABC):
    """One party's endpoint. send/recv move matrices; recv is strict:
    the next frame from that peer must match the expected kind and round."""

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

    @abstractmethod
    def _send_bytes(self, receiver: int, data: bytes) -> None: ...

    @abstractmethod
    def _recv_frame_bytes(self, sender: int, timeout: float) -> bytes: ...

    def send(self, receiver: int, kind: int, mat: RingMatrix,
             round_no: int) -> None:
        if receiver == self.party_id or not 0 <= receiver < self.n_parties:
            raise TransportError(f"bad receiver {receiver}")
        frame = Frame(round_no, kind, self.party_id, receiver, mat.to_bytes())
        data = frame.encode_stream()
        self._send_bytes(receiver, data)
        self.bytes_sent += len(data)
        self.frames_sent += 1

    def recv(self, sender: int, kind: int, round_no: int,
             timeout: float | None = None) -> RingMatrix:
        if sender == self.party_id or not 0 <= sender < self.n_parties:
            raise TransportError(f"bad sender {sender}")
        body = self._recv_frame_bytes(
            sender, self.timeout if timeout is None else timeout)
        frame = Frame.decode(body)
        if (frame.kind != kind or frame.round_no != round_no
                or frame.sender != sender or frame.receiver != self.party_id):
            raise UnexpectedKind(
                f"party {self.party_id} expected "
                f"{KIND_NAMES[kind]} round={round_no} from {sender}, "
                f"got {frame.describe()}")
        self.transcript.append(frame)
        self.bytes_received += 4 + len(body)
        return frame.matrix

    def barrier(self, label: str, round_no: int) -> None:
        """All-to-all sync point; also catches protocol divergence early."""
        tag = RingMatrix(1, 1, [label_hash(label)])
        for p in range(self.n_parties):
            if p != self.party_id:
                self.send(p, KIND_CONTROL, tag, round_no)
        for p in range(self.n_parties):
            if p == self.party_id:
                continue
            try:
                got = self.recv(p, KIND_CONTROL, round_no)
            except TransportError as e:
                raise BarrierTimeout(
                    f"barrier '{label}' round {round_no}: {e}") from e
            if got.data[0] != tag.data[0]:
                raise HashMismatch(
                    f"barrier '{label}': party {p} is at a different point")

    def close(self) -> None:
        pass


# --- in-process loopback ---

_CLOSE_SENTINEL = b""


class LoopbackSession(ProtocolSession):
    def __init__(self, party_id, n_parties, rng, channels, timeout):
        super().__init__(party_id, n_parties, rng, timeout)
        self._channels = channels  # dict[(src, dst)] -> SimpleQueue

    def _send_bytes(self, receiver, data):
        self._channels[(self.party_id, receiver)].put(data)

    def _recv_frame_bytes(self, sender, timeout):
        try:
            data = self._channels[(sender, self.party_id)].get(timeout=timeout)
        except queue.Empty:
            raise TransportError(
                f"party {self.party_id}: nothing from {sender} "
                f"after {timeout:.0f}s") from None
        if data == _CLOSE_SENTINEL:
            raise PeerClosed(f"party {sender} closed the channel")
        return data[4:]  # strip the length prefix

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
    buf = b""
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise PeerClosed("connection closed mid-frame")
        buf += chunk
    return buf


class TcpSession(ProtocolSession):
    """Socket transport: party i dials every j > i and accepts from j < i.

    One reader thread per peer drains the socket into a queue, so a large
    send can never deadlock against the peer's own large send: both sides
    always have someone reading.
    """

    def __init__(self, party_id, n_parties, rng, endpoints,
                 timeout=DEFAULT_TIMEOUT):
        super().__init__(party_id, n_parties, rng, timeout)
        self._endpoints = endpoints
        self._roster = roster_hash(endpoints)
        self._socks: dict[int, socket.socket] = {}
        self._queues = {p: queue.SimpleQueue()
                        for p in range(n_parties) if p != party_id}
        self._send_locks = {p: threading.Lock()
                            for p in range(n_parties) if p != party_id}
        self._readers: list[threading.Thread] = []
        self._closed = False
        self._connect_all()

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
        return pid

    def _connect_all(self):
        deadline = time.monotonic() + self.timeout
        host, port = self._endpoints[self.party_id]
        listener = None
        if self.party_id > 0:
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((host, port))
            listener.listen(self.party_id)
        try:
            # accept from lower ids while dialing higher ids; lower-id peers
            # are dialing us concurrently so order does not matter
            accept_thread = None
            accepted: dict[int, socket.socket] = {}
            accept_err: list[Exception] = []
            if listener is not None:
                def do_accept():
                    try:
                        for _ in range(self.party_id):
                            listener.settimeout(
                                max(0.1, deadline - time.monotonic()))
                            conn, _ = listener.accept()
                            conn.settimeout(self.timeout)
                            try:
                                data = _read_exact(conn, _HANDSHAKE_LEN)
                                pid = self._check_handshake(data, None)
                                conn.sendall(self._handshake_bytes())
                            except Exception:
                                conn.close()  # peer sees EOF, not a stall
                                raise
                            accepted[pid] = conn
                    except Exception as e:  # surfaced after join
                        accept_err.append(e)
                accept_thread = threading.Thread(target=do_accept, daemon=True)
                accept_thread.start()

            for peer in range(self.party_id + 1, self.n_parties):
                self._socks[peer] = self._dial(peer, deadline)

            if accept_thread is not None:
                accept_thread.join(max(0.1, deadline - time.monotonic()) + 1)
                if accept_err:
                    raise accept_err[0]
                if len(accepted) != self.party_id:
                    raise ConnectTimeout(
                        f"party {self.party_id}: only {len(accepted)} of "
                        f"{self.party_id} lower-id peers connected")
                self._socks.update(accepted)
        finally:
            if listener is not None:
                listener.close()

        for peer, sock in self._socks.items():
            sock.settimeout(None)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            t = threading.Thread(target=self._reader_loop,
                                 args=(peer, sock), daemon=True)
            t.start()
            self._readers.append(t)

    def _dial(self, peer: int, deadline: float) -> socket.socket:
        host, port = self._endpoints[peer]
        while True:
            try:
                sock = socket.create_connection(
                    (host, port), timeout=max(0.1, deadline - time.monotonic()))
                break
            except (ConnectionRefusedError, OSError):
                if time.monotonic() >= deadline:
                    raise ConnectTimeout(
                        f"party {self.party_id} could not reach party {peer} "
                        f"at {host}:{port}") from None
                time.sleep(0.05)
        sock.settimeout(self.timeout)
        try:
            sock.sendall(self._handshake_bytes())
            data = _read_exact(sock, _HANDSHAKE_LEN)
        except TimeoutError:
            sock.close()
            raise ConnectTimeout(
                f"party {peer} did not complete the handshake") from None
        self._check_handshake(data, peer)
        return sock

    # steady state

    def _reader_loop(self, peer: int, sock: socket.socket):
        q = self._queues[peer]
        try:
            while True:
                raw_len = _read_exact(sock, 4)
                (length,) = struct.unpack(LEN_FMT, raw_len)
                q.put(_read_exact(sock, length))
        except (PeerClosed, OSError):
            q.put(_CLOSE_SENTINEL)

    def _send_bytes(self, receiver, data):
        sock = self._socks.get(receiver)
        if sock is None or self._closed:
            raise PeerClosed(f"no open channel to party {receiver}")
        with self._send_locks[receiver]:
            try:
                sock.sendall(data)
            except OSError as e:
                raise PeerClosed(f"send to party {receiver} failed: {e}") from e

    def _recv_frame_bytes(self, sender, timeout):
        try:
            data = self._queues[sender].get(timeout=timeout)
        except queue.Empty:
            raise TransportError(
                f"party {self.party_id}: nothing from {sender} "
                f"after {timeout:.0f}s") from None
        if data == _CLOSE_SENTINEL:
            raise PeerClosed(f"party {sender} closed the connection")
        return data

    def close(self):
        self._closed = True
        for sock in self._socks.values():
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            sock.close()
