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
import selectors
import socket
import struct
import threading
import time
from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass

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

_HANDSHAKE_MAGIC = b"SRGW"
_HANDSHAKE_FMT = ">4sHHHQ"  # magic, version, n_parties, party_id, roster hash
_HANDSHAKE_LEN = struct.calcsize(_HANDSHAKE_FMT)
_WIRE_VERSION = 1

DEFAULT_TIMEOUT = 30.0


def _stream(round_no: int, kind: int, sender: int, receiver: int,
            payload: bytes) -> bytes:
    """One frame as it goes on the wire: length prefix, header, payload."""
    return b"".join((_LEN.pack(HEADER_LEN + len(payload)), _HEADER.pack(
        round_no, kind, sender, receiver, 0, 0), payload))


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
        return _stream(self.round_no, self.kind, self.sender, self.receiver,
                       self.payload)

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
    """Received frame bodies in consumption order, with a running hash
    over each body as it arrived; frames are decoded only when read."""

    def __init__(self):
        self._bodies: list = []
        self._hash = hashlib.sha256()

    def append(self, body) -> None:
        self._bodies.append(body)
        self._hash.update(body)

    @property
    def frames(self) -> list[Frame]:
        return [Frame.decode(b) for b in self._bodies]

    def digest(self) -> str:
        return self._hash.hexdigest()

    def __len__(self):
        return len(self._bodies)


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
    def _send_frames(self, receiver: int, frames: list[bytes]) -> None: ...

    @abstractmethod
    def _recv_frame_bytes(self, sender: int, timeout: float) -> bytes: ...

    def send(self, receiver: int, kind: int, mat: RingMatrix,
             round_no: int) -> None:
        self.send_many(receiver, [(kind, mat, round_no)])

    def send_many(self, receiver: int, items) -> None:
        """Send (kind, matrix, round) frames to one peer, in order, as one
        write where the transport allows it."""
        if receiver == self.party_id or not 0 <= receiver < self.n_parties:
            raise TransportError(f"bad receiver {receiver}")
        frames = [_stream(round_no, kind, self.party_id, receiver,
                          mat.to_bytes()) for kind, mat, round_no in items]
        self._send_frames(receiver, frames)
        self.bytes_sent += sum(map(len, frames))
        self.frames_sent += len(frames)

    def recv(self, sender: int, kind: int, round_no: int,
             timeout: float | None = None) -> RingMatrix:
        if sender == self.party_id or not 0 <= sender < self.n_parties:
            raise TransportError(f"bad sender {sender}")
        body = self._recv_frame_bytes(
            sender, self.timeout if timeout is None else timeout)
        if (len(body) < HEADER_LEN or _HEADER.unpack_from(body)
                != (round_no, kind, sender, self.party_id, 0, 0)):
            frame = Frame.decode(body)  # raises on a malformed header
            raise UnexpectedKind(
                f"party {self.party_id} expected "
                f"{KIND_NAMES[kind]} round={round_no} from {sender}, "
                f"got {frame.describe()}")
        self.transcript.append(body)
        self.bytes_received += 4 + len(body)
        return RingMatrix.from_bytes(memoryview(body)[HEADER_LEN:])

    def close(self) -> None:
        pass


# --- in-process loopback ---

_CLOSE_SENTINEL = b""


class LoopbackSession(ProtocolSession):
    def __init__(self, party_id, n_parties, rng, channels, timeout):
        super().__init__(party_id, n_parties, rng, timeout)
        self._channels = channels  # dict[(src, dst)] -> SimpleQueue

    def _send_frames(self, receiver, frames):
        put = self._channels[(self.party_id, receiver)].put
        for data in frames:
            put(data)

    def _recv_frame_bytes(self, sender, timeout):
        try:
            data = self._channels[(sender, self.party_id)].get(timeout=timeout)
        except queue.Empty:
            raise TransportError(
                f"party {self.party_id}: nothing from {sender} "
                f"after {timeout:.0f}s") from None
        if data == _CLOSE_SENTINEL:
            raise PeerClosed(f"party {sender} closed the channel")
        return memoryview(data)[4:]  # strip the length prefix, no copy

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


_READ = selectors.EVENT_READ
_WRITE = selectors.EVENT_WRITE


class TcpSession(ProtocolSession):
    """Socket transport: party i dials every j > i and accepts from j < i.

    Once connected, every socket is non-blocking and only the party's own
    thread touches them; there are no reader threads. Whenever the party
    waits, in recv for one peer's frame or in a send the kernel cannot take
    yet, it reads every peer that has bytes ready into that peer's buffer
    and splits off each complete frame. So a large send can never deadlock
    against a peer's own large send, nor against a chain of parties each
    waiting on the next: a party that waits keeps draining everyone.
    """

    _CHUNK = 1 << 16   # bytes asked of the kernel per read

    def __init__(self, party_id, n_parties, rng, endpoints,
                 timeout=DEFAULT_TIMEOUT):
        super().__init__(party_id, n_parties, rng, timeout)
        self._endpoints = endpoints
        self._roster = roster_hash(endpoints)
        self._socks: dict[int, socket.socket] = {}
        self._bufs: dict[int, bytearray] = {}
        self._frames: dict[int, deque] = {}
        self._gone: dict[int, str] = {}  # peer -> why it sends no more
        self._closed = False
        self._connect_all()
        self._selector = selectors.DefaultSelector()
        for peer, sock in self._socks.items():
            sock.setblocking(False)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._selector.register(sock, _READ, peer)
            self._bufs[peer] = bytearray()
            self._frames[peer] = deque()

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
        """Open every peer socket, or close all those opened and raise."""
        deadline = time.monotonic() + self.timeout
        host, port = self._endpoints[self.party_id]
        listener = None
        if self.party_id > 0:
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((host, port))
            listener.listen(self.party_id)
        accepted: dict[int, socket.socket] = {}
        given_up = threading.Event()
        try:
            # accept from lower ids while dialing higher ids; lower-id peers
            # are dialing us concurrently so order does not matter
            accept_thread = None
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
                            if given_up.is_set():  # missed the clean-up
                                conn.close()
                    except TimeoutError:
                        pass  # reported below as peers that never connected
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
        except BaseException:
            given_up.set()
            for sock in [*self._socks.values(), *accepted.values()]:
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
        """Read whatever the peer's socket holds and queue every frame it
        completes."""
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
        frames, off, end = self._frames[peer], 0, len(buf)
        with memoryview(buf) as view:
            while end - off >= 4:
                stop = off + 4 + _LEN.unpack_from(view, off)[0]
                if stop > end:
                    break
                frames.append(bytes(view[off + 4:stop]))
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
        view = memoryview(frames[0] if len(frames) == 1 else b"".join(frames))
        off = 0
        while True:
            try:
                off += sock.send(view[off:])
            except BlockingIOError:
                pass
            except OSError as e:
                raise PeerClosed(f"send to party {receiver} failed: {e}") from e
            if off == len(view):
                return
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

    def _recv_frame_bytes(self, sender, timeout):
        frames = self._frames[sender]
        if not frames:
            deadline = time.monotonic() + timeout
            what = f"nothing from {sender} after {timeout:.0f}s"
            while not frames and sender not in self._gone:
                self._select(deadline, what)
        if frames:
            return frames.popleft()
        raise PeerClosed(f"party {sender} {self._gone[sender]}")

    def close(self):
        self._closed = True
        self._selector.close()
        for sock in self._socks.values():
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            sock.close()
