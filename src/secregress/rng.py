"""Deterministic random generation for shares and masks.

Every random matrix in the protocols comes from a CounterDrbg: a SHAKE-256
(FIPS 202) counter generator keyed by a seed plus a derivation path. Runs
are reproducible from the seeds recorded in the run manifest, which is what
the transport-equivalence and oracle-equivalence tests rely on. For an
actual deployment the per-party seeds would come from OS entropy instead;
the generator itself is unchanged.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

# Bytes of XOF output per counter block. Fixed: it is part of the stream's
# definition, so changing it changes every word drawn.
CHUNK = 4096
_WORDS = CHUNK // 8
_unpack_u64 = struct.Struct("<Q").unpack_from


def _seed_bytes(seed: int | str | bytes) -> bytes:
    if isinstance(seed, bytes):
        return seed
    if isinstance(seed, int):
        # Fixed-width so 1 and "1" cannot collide with each other.
        return b"i" + seed.to_bytes(16, "little", signed=True)
    if isinstance(seed, str):
        return b"s" + seed.encode("utf-8")
    raise TypeError(f"unsupported seed type: {type(seed).__name__}")


class CounterDrbg:
    """SHAKE-256 in counter mode over a derived 32-byte key.

    Chunk c of the stream is SHAKE-256(key || c as 8 big-endian bytes),
    CHUNK bytes long, read as little-endian u64 words. Word i of the stream
    is word i % (CHUNK/8) of chunk i // (CHUNK/8), however the stream is
    consumed: any mix of u64, u64_array and skip yields the same words.
    """

    __slots__ = ("_key", "_pos", "_chunk", "_buf")

    def __init__(self, seed: int | str | bytes, label: str = ""):
        h = hashlib.sha256()
        h.update(b"secregress.drbg.v1\x00")
        h.update(_seed_bytes(seed))
        h.update(b"\x00")
        h.update(label.encode("utf-8"))
        self._start(h.digest())

    def _start(self, key: bytes) -> None:
        self._key = key
        self._pos = 0        # index of the next word in the stream
        self._chunk = -1     # index of the chunk held in _buf
        self._buf = b""

    def child(self, label: str, *indices: int) -> "CounterDrbg":
        """Derive an independent generator for a named subcontext.

        Children are stable: the same (label, indices) path always yields the
        same stream, regardless of how much the parent has been consumed.
        """
        h = hashlib.sha256()
        h.update(b"secregress.child.v1\x00")
        h.update(self._key)
        h.update(label.encode("utf-8"))
        for ix in indices:
            h.update(ix.to_bytes(8, "little", signed=True))
        out = object.__new__(CounterDrbg)
        out._start(h.digest())
        return out

    def _block(self, c: int, size: int = CHUNK) -> bytes:
        """The first size bytes of chunk c."""
        return hashlib.shake_256(self._key + c.to_bytes(8, "big")).digest(
            size)

    def _words_of(self, c: int, end: int) -> bytes:
        """Chunk c, holding at least its first end words, as _buf.

        SHAKE output is a prefix of any longer output, so the first draw
        of a fresh stream generates only the words it reads: a child
        stream read once for a few words then costs a few bytes of XOF,
        not a whole chunk. Any later read past that prefix generates the
        whole chunk.
        """
        if c != self._chunk or len(self._buf) < 8 * end:
            self._buf = self._block(c, 8 * end if self._chunk < 0 else CHUNK)
            self._chunk = c
        return self._buf

    def u64(self) -> int:
        c, off = divmod(self._pos, _WORDS)
        self._pos += 1
        return _unpack_u64(self._words_of(c, off + 1), 8 * off)[0]

    def u64_array(self, n: int) -> np.ndarray:
        """The next n words as a read-only uint64 array, cut from whole
        chunks (or a fresh stream's prefix) in one numpy read."""
        if n <= 0:
            return np.zeros(0, dtype=np.uint64)
        first, off = divmod(self._pos, _WORDS)
        last = (self._pos + n - 1) // _WORDS
        self._pos += n
        if first == last:
            data = self._words_of(first, off + n)
        else:
            head = self._words_of(first, _WORDS)
            parts = [self._block(c) for c in range(first + 1, last + 1)]
            self._buf = parts[-1]
            self._chunk = last
            data = b"".join([head, *parts])
        return np.frombuffer(data, "<u8", count=n, offset=8 * off).astype(
            np.uint64, copy=False)

    def skip(self, n: int) -> None:
        """Advance past n words without generating the chunks they fill."""
        if n > 0:
            self._pos += n

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection sampling."""
        if n <= 0:
            raise ValueError("randrange needs n >= 1")
        # Largest multiple of n below 2^64; rejects < 50% of draws.
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            w = self.u64()
            if w < limit:
                return w % n

    def randranges(self, bounds) -> np.ndarray:
        """[randrange(n) for n in bounds] as a uint64 array, same words.

        All words are drawn in one u64_array. From the first word that
        randrange would reject, the stream rewinds to that word and the
        rest go word by word, so the result and the stream position are
        exactly the loop's.
        """
        n = np.asarray(bounds, dtype=np.uint64)
        if not n.all():
            raise ValueError("randrange needs n >= 1")
        start = self._pos
        words = self.u64_array(n.size)
        out = words % n
        # randrange rejects w >= 2^64 - (2^64 mod n): exactly the words
        # whose sum with 2^64 mod n wraps
        rejected = np.flatnonzero(words + np.negative(n) % n < words)
        if rejected.size:
            p = int(rejected[0])
            self._pos = start + p
            out[p:] = [self.randrange(b) for b in n[p:].tolist()]
        return out

    def sample(self, m: int, k: int) -> list[int]:
        """k distinct indices from range(m), order of selection preserved."""
        if k > m:
            raise ValueError("sample size exceeds population")
        # Partial Fisher-Yates over a sparse map keeps this O(k).
        offsets = self.randranges(np.arange(m, m - k, -1, dtype=np.uint64))
        swapped: dict[int, int] = {}
        out = []
        for i, r in enumerate(offsets.tolist()):
            j = i + r
            out.append(swapped.get(j, j))
            swapped[j] = swapped.get(i, i)
        return out

    def shuffle(self, items: list) -> list:
        """Fisher-Yates permuted copy; the input is left untouched."""
        out = list(items)
        picks = self.randranges(
            np.arange(len(out), 1, -1, dtype=np.uint64)).tolist()
        for i, j in zip(range(len(out) - 1, 0, -1), picks):
            out[i], out[j] = out[j], out[i]
        return out
