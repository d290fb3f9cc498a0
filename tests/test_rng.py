"""Deterministic generator: reproducibility, child independence, ranges."""

import collections
import hashlib
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secregress.rng import CHUNK, CounterDrbg

import draw_reference

W = CHUNK // 8


def test_same_seed_same_stream():
    a = CounterDrbg(1234)
    b = CounterDrbg(1234)
    assert [a.u64() for _ in range(100)] == [b.u64() for _ in range(100)]


def test_different_seeds_differ():
    a = CounterDrbg(1)
    b = CounterDrbg(2)
    assert [a.u64() for _ in range(8)] != [b.u64() for _ in range(8)]


def test_label_separates_streams():
    a = CounterDrbg(7, label="x")
    b = CounterDrbg(7, label="y")
    assert a.u64() != b.u64()


def test_seed_types():
    # int, str and bytes seeds are all accepted and domain-separated
    assert CounterDrbg(65).u64() != CounterDrbg("65").u64()
    assert CounterDrbg(b"65").u64() != CounterDrbg("65").u64()


def test_u64_range_and_count():
    r = CounterDrbg(99)
    xs = r.u64_array(1000).tolist()
    assert len(xs) == 1000
    assert all(0 <= x < 1 << 64 for x in xs)


def test_u64_array_matches_u64_sequence():
    a = CounterDrbg(5)
    b = CounterDrbg(5)
    assert a.u64_array(17).tolist() == [b.u64() for _ in range(17)]


def test_child_streams_are_independent_and_reproducible():
    root = CounterDrbg(42)
    c1 = root.child("batch", 0)
    c2 = root.child("batch", 1)
    c1b = CounterDrbg(42).child("batch", 0)
    assert c1.u64() != c2.u64()
    assert CounterDrbg(42).child("batch", 0).u64() == c1b.u64()
    # deriving children does not consume from the parent stream
    fresh = CounterDrbg(42)
    fresh.child("whatever", 3)
    assert fresh.u64() == CounterDrbg(42).u64()


def test_child_index_vs_label_distinct():
    root = CounterDrbg(11)
    assert root.child("a", 1).u64() != root.child("a1").u64()


def test_randrange():
    r = CounterDrbg(3)
    xs = [r.randrange(10) for _ in range(2000)]
    assert set(xs) == set(range(10))
    with pytest.raises(ValueError):
        r.randrange(0)


def test_sample_is_uniform_without_replacement():
    r = CounterDrbg(8)
    s = r.sample(100, 30)
    assert len(s) == 30
    assert len(set(s)) == 30
    assert all(0 <= i < 100 for i in s)
    with pytest.raises(ValueError):
        r.sample(5, 6)
    # full permutation touches every index
    assert sorted(CounterDrbg(8).sample(20, 20)) == list(range(20))


def test_shuffle_permutes():
    r = CounterDrbg(13)
    items = list(range(50))
    out = r.shuffle(items)
    assert sorted(out) == items
    assert items == list(range(50))  # input untouched


def test_byte_uniformity_coarse():
    # crude sanity on the low byte; the real chi-square lives in acceptance
    r = CounterDrbg(2024)
    counts = collections.Counter(x & 0xFF for x in r.u64_array(64000).tolist())
    assert len(counts) == 256
    assert max(counts.values()) < 2 * min(counts.values())


def _shake_words(key, chunk, first, count):
    block = hashlib.shake_256(key + chunk.to_bytes(8, "big")).digest(CHUNK)
    return list(struct.unpack_from(f"<{count}Q", block, 8 * first))


def test_known_answer_from_the_derivation_path():
    # the stream spelled out with hashlib alone, not through the class
    key = hashlib.sha256(b"secregress.drbg.v1\x00" + b"i"
                         + (0).to_bytes(16, "little", signed=True)
                         + b"\x00").digest()
    r = CounterDrbg(0)
    assert r.u64_array(4).tolist() == _shake_words(key, 0, 0, 4)
    r.skip(W - 5)
    assert r.u64_array(3).tolist() == (_shake_words(key, 0, W - 1, 1)
                                       + _shake_words(key, 1, 0, 2))
    child_key = hashlib.sha256(b"secregress.child.v1\x00" + key + b"triple"
                               + (3).to_bytes(8, "little", signed=True)
                               + (-1).to_bytes(8, "little", signed=True)
                               ).digest()
    c = CounterDrbg(0).child("triple", 3, -1)
    assert [c.u64() for _ in range(2)] == _shake_words(child_key, 0, 0, 2)


@pytest.mark.parametrize("first", ["u64", "list", "skip"])
def test_stream_is_independent_of_how_it_is_read(first):
    sizes = [0, 1, W - 1, W, W + 1, 3 * W + 5]
    sizes += sizes[::-1]
    ref = CounterDrbg(77).u64_array(sum(sizes) + 1).tolist()
    ops = ["u64", "list", "skip"]
    start = ops.index(first)
    r = CounterDrbg(77)
    pos = 0
    for i, n in enumerate(sizes):
        op = ops[(start + i) % 3]
        if op == "skip":
            r.skip(n)
        else:
            got = ([r.u64() for _ in range(n)] if op == "u64"
                   else r.u64_array(n).tolist())
            assert got == ref[pos:pos + n], (op, n, pos)
        pos += n
    assert r.u64() == ref[pos]


# --- one-call draws against the word-by-word loops ---

# near 2^63 about half the words are rejected; near 2^62, a quarter
HALF_REJECTED = (1 << 63) + 1


def _rejects(bound, words):
    return any(w >= (1 << 64) - (1 << 64) % bound for w in words)


@pytest.mark.parametrize("bounds", [
    [1], [2, 3, 1000], list(range(700, 1, -1)), [HALF_REJECTED] * 40,
    [5, HALF_REJECTED, 7, (1 << 64) - 1, 3] * 9, [(1 << 62) + 1] * 600,
])
def test_randranges_matches_randrange_loop(bounds):
    fast, slow = CounterDrbg("rr"), CounterDrbg("rr")
    got = fast.randranges(bounds).tolist()
    assert got == [slow.randrange(n) for n in bounds]
    assert fast.u64() == slow.u64()  # same stream position after


def test_forced_rejections_are_exercised():
    words = CounterDrbg("rr").u64_array(40).tolist()
    assert _rejects(HALF_REJECTED, words)


@pytest.mark.parametrize("m,k", [(1, 1), (10, 0), (100, 30), (20, 20),
                                 (2000, 500), (HALF_REJECTED, 25)])
def test_sample_matches_word_by_word(m, k):
    for seed in range(3):
        fast, slow = CounterDrbg(seed), CounterDrbg(seed)
        assert fast.sample(m, k) == draw_reference.sample(slow, m, k)
        assert fast.u64() == slow.u64()


@pytest.mark.parametrize("n", [0, 1, 2, 50, 1500])
def test_shuffle_matches_word_by_word(n):
    for seed in range(3):
        fast, slow = CounterDrbg(seed), CounterDrbg(seed)
        items = [f"x{i}" for i in range(n)]
        assert fast.shuffle(items) == draw_reference.shuffle(slow, items)
        assert fast.u64() == slow.u64()


def test_randranges_rejects_a_zero_bound():
    with pytest.raises(ValueError):
        CounterDrbg(1).randranges([3, 0, 2])


# --- fresh streams read from a prefix of their first chunk ---

def _drbg_key(seed: int) -> bytes:
    return hashlib.sha256(b"secregress.drbg.v1\x00" + b"i"
                          + seed.to_bytes(16, "little", signed=True)
                          + b"\x00").digest()


class _WholeChunks:
    """The stream of CounterDrbg(seed), word by word from whole chunks."""

    def __init__(self, seed):
        self.key, self.pos = _drbg_key(seed), 0

    def word(self):
        c, off = divmod(self.pos, W)
        self.pos += 1
        return _shake_words(self.key, c, off, 1)[0]

    def randrange(self, n):
        limit = (1 << 64) - (1 << 64) % n
        while True:
            w = self.word()
            if w < limit:
                return w % n


_ops = st.lists(st.one_of(
    st.tuples(st.just("u64"), st.just(1)),
    st.tuples(st.sampled_from(["array", "skip"]),
              st.one_of(st.integers(0, 9), st.integers(0, 2 * W + 3))),
    st.tuples(st.just("randranges"), st.lists(
        st.one_of(st.integers(1, 1000), st.just(HALF_REJECTED)),
        min_size=1, max_size=12)),
), min_size=1, max_size=8)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 1 << 20), _ops)
def test_fresh_stream_draws_match_whole_chunks(seed, ops):
    r, ref = CounterDrbg(seed), _WholeChunks(seed)
    for op, arg in ops:
        if op == "u64":
            assert r.u64() == ref.word()
        elif op == "array":
            assert r.u64_array(arg).tolist() == [ref.word()
                                                 for _ in range(arg)]
        elif op == "skip":
            r.skip(arg)
            ref.pos += arg
        else:
            assert r.randranges(arg).tolist() == [ref.randrange(b)
                                                  for b in arg]
    assert r.u64() == ref.word()
