import copy
import math
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from circembed.rng import _CHUNK, Rng, Stream, derive_seed


# Frozen outputs. These pin the key-derivation scheme and the normal
# generator so a refactor cannot silently change every downstream draw.
def test_derive_seed_frozen_values():
    assert derive_seed(0, "a") == 3038475612934027643
    assert derive_seed(0, "b") == 11867309139593875312
    assert derive_seed(1, "a") == 9243798235275095992
    assert derive_seed(2**63, "trial:0") == 8251150121983489920


def test_stream_frozen_normals():
    got = Stream(0, "x").normals(4)
    want = [-0.7902268954173942, 1.4069563288628784,
            -0.09930477866125997, 0.44066547088845087]
    np.testing.assert_allclose(got, want, rtol=0, atol=0)


def test_same_seed_tag_reproduces():
    a = Stream(7, "h").normals(64)
    b = Stream(7, "h").normals(64)
    np.testing.assert_array_equal(a, b)


def test_different_tags_differ():
    a = Stream(7, "h").normals(64)
    b = Stream(7, "r").normals(64)
    assert not np.array_equal(a, b)


def test_streams_do_not_interfere():
    """Consuming one stream must not move another stream of the same seed."""
    rng = Rng(3)
    want = rng.stream("b").normals(16)
    rng2 = Rng(3)
    rng2.stream("a").normals(1000)  # burn a sibling
    got = rng2.stream("b").normals(16)
    np.testing.assert_array_equal(got, want)


def test_child_seed_matches_derive_seed():
    rng = Rng(11)
    assert rng.child("trial:4").seed == derive_seed(11, "trial:4")


def test_uniforms_in_unit_interval():
    u = Stream(0, "u").uniforms(10_000)
    assert u.min() >= 0.0 and u.max() < 1.0


def test_normals_moments():
    # mean of m iid N(0,1) draws has sd 1/sqrt(m); 4 sigma is a safe band
    m = 100_000
    z = Stream(5, "moments").normals(m)
    assert abs(z.mean()) < 4.0 / math.sqrt(m)
    assert 0.98 < z.var() < 1.02


def test_normals_odd_size():
    # generator works in cos/sin pairs; odd requests truncate the last draw
    z = Stream(5, "odd").normals(7)
    assert z.shape == (7,)
    np.testing.assert_array_equal(z, Stream(5, "odd").normals(8)[:7])


def test_rademacher_values_and_balance():
    s = Stream(9, "signs").rademacher(50_000)
    assert set(np.unique(s)) == {-1.0, 1.0}
    assert abs(s.mean()) < 0.02


def test_integers_range():
    v = Stream(2, "ints").integers(3, 9, 1000)
    assert v.min() >= 3 and v.max() < 9


def test_index_subset_marginals():
    """Each index of 0..9 should land in a size-3 subset with frequency 3/10."""
    m = 100_000
    counts = np.zeros(10)
    s = Stream(1, "subset")
    for _ in range(m):
        counts[s.index_subset(10, 3)] += 1
    np.testing.assert_allclose(counts / m, 0.3, atol=0.01)


@given(st.integers(1, 20), st.integers(0, 2**32))
@settings(max_examples=50, deadline=None)
def test_index_subset_distinct_and_in_range(n, seed):
    s = Stream(seed, "prop")
    out = s.index_subset(n, n)
    assert sorted(out) == list(range(n))  # k = n is a permutation
    k = max(1, n // 2)
    sub = Stream(seed, "prop2").index_subset(n, k)
    assert len(set(sub.tolist())) == k
    assert sub.min() >= 0 and sub.max() < n


def test_index_subset_rejects_bad_k():
    s = Stream(0, "bad")
    with pytest.raises(ValueError):
        s.index_subset(4, 0)
    with pytest.raises(ValueError):
        s.index_subset(4, 5)


@given(st.text(max_size=40), st.text(max_size=40), st.integers(0, 2**64 - 1))
@settings(max_examples=100, deadline=None)
def test_derive_seed_tag_sensitivity(tag_a, tag_b, seed):
    if tag_a == tag_b:
        assert derive_seed(seed, tag_a) == derive_seed(seed, tag_b)
    else:
        # 64-bit hash collisions are possible in principle, not at 100 examples
        assert derive_seed(seed, tag_a) != derive_seed(seed, tag_b)


# ---------------------------------------------------------------- chunked draws
# The serial bodies of normals, rademacher and index_subset from before the
# samplers drew in chunks. Every stored operator replays these draws, so the
# chunked code must give the same values and leave the same stream behind.

def ref_normals(gen, size):
    pairs = (size + 1) // 2
    rad = gen.random(pairs)
    ang = gen.random(pairs)
    np.log1p(np.negative(rad, out=rad), out=rad)
    rad *= -2.0
    np.sqrt(rad, out=rad)
    ang *= 2.0 * np.pi
    out = np.empty(2 * pairs)
    even, odd = out[0::2], out[1::2]
    np.cos(ang, out=even)
    even *= rad
    np.sin(ang, out=odd)
    odd *= rad
    return out[:size]


def ref_rademacher(gen, size):
    bits = gen.integers(0, 2, size=size)
    return np.where(bits == 1, 1.0, -1.0)


def ref_index_subset(gen, n, k):
    idx = np.arange(n, dtype=np.int64)
    for t in range(k):
        j = t + int(gen.integers(0, n - t))
        idx[t], idx[j] = idx[j], idx[t]
    return idx[:k].copy()


def ref_fisher_yates(gen, n, k):
    # the same swaps over arange(n), driven by the one vector draw of offsets
    # that index_subset makes, so the oracle pins the swaps apart from the draw
    idx = np.arange(n, dtype=np.int64)
    for t, u in enumerate(gen.integers(0, n - np.arange(k)).tolist()):
        idx[t], idx[t + u] = idx[t + u], idx[t]
    return idx[:k].copy()


_EDGE_SIZES = [0, 1, 7, 2 * _CHUNK - 1, 2 * _CHUNK, 2 * _CHUNK + 1, 4 * _CHUNK + 3, 2**20 + 1]
_sizes = st.one_of(st.sampled_from(_EDGE_SIZES), st.integers(0, 6 * _CHUNK))
# a prior state: uniforms move buffer_pos through 1-4, and a single sign
# leaves the high half of a 64-bit draw stashed for the next 32-bit draw
_prefix = st.lists(st.one_of(st.integers(1, 5), st.just("sign")), max_size=4)


def _twin_streams(seed, prefix):
    a, b = Stream(seed, "chunked"), Stream(seed, "chunked")
    for step in prefix:
        for s in (a, b):
            if step == "sign":
                s.integers(0, 2)
            else:
                s.uniforms(step)
    return a, b


def _assert_same_stream_after(a, b):
    assert a.uniforms(5).tobytes() == b.uniforms(5).tobytes()
    assert a.rademacher(3).tobytes() == ref_rademacher(b._gen, 3).tobytes()
    assert a.uniforms(2).tobytes() == b.uniforms(2).tobytes()


@given(st.integers(0, 2**64 - 1), _prefix, _sizes, st.sampled_from(["normals", "rademacher"]))
@example(1, ["sign", 3], 2 * _CHUNK + 1, "rademacher")
@example(1, [2, "sign"], 2**20 + 1, "rademacher")
@example(1, ["sign", 1], 2**20 + 1, "normals")
@settings(max_examples=60, deadline=None)
def test_chunked_draws_equal_the_serial_reference(seed, prefix, size, method):
    a, b = _twin_streams(seed, prefix)
    ref = ref_normals if method == "normals" else ref_rademacher
    got = getattr(a, method)(size)
    assert got.dtype == np.float64 and got.shape == (size,)
    assert got.tobytes() == ref(b._gen, size).tobytes()
    _assert_same_stream_after(a, b)


@given(st.integers(0, 2**64 - 1), _prefix, st.integers(1, 3000),
       st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)))
@example(1, ["sign"], 3000, 1.0)
@example(2, ["sign", 3], 2999, 0.0)
@settings(max_examples=60, deadline=None)
def test_index_subset_equals_the_serial_reference(seed, prefix, n, share):
    # k = 1, k = n or any k between; a "sign" prefix leaves a 32-bit half
    # stashed, which integers below 2^32 draw first
    k = max(1, round(share * n))
    a, b = _twin_streams(seed, prefix)
    _, c = _twin_streams(seed, prefix)
    got = a.index_subset(n, k)
    assert got.dtype == np.int64
    assert got.tobytes() == ref_index_subset(b._gen, n, k).tobytes()
    assert got.tobytes() == ref_fisher_yates(c._gen, n, k).tobytes()
    _assert_same_stream_after(copy.deepcopy(a), b)
    _assert_same_stream_after(a, c)


def test_index_subset_beyond_32_bits_draws_like_scalar_calls():
    # n - t spans more than 32 bits, so each offset takes a 64-bit draw; the
    # reference's n-entry array would not fit, so compare the draws instead
    n, k = 2**33, 64
    a, b = _twin_streams(3, ["sign", 3])
    got = a.index_subset(n, k)
    offsets = [int(b.integers(0, n - t)) for t in range(k)]
    assert len(set(got.tolist())) == k and 0 <= got.min() and got.max() < n
    assert got[0] == offsets[0]
    _assert_same_stream_after(a, b)


def test_concurrent_chunked_draws_give_the_serial_bits():
    size = 4 * _CHUNK + 5
    seeds = range(4)
    want = {}
    for s in seeds:
        gen = Stream(s, "c")._gen
        want[s] = (ref_normals(gen, size), ref_rademacher(gen, size))
    got = {}
    start = threading.Barrier(len(seeds))

    def draw(s):
        stream = Stream(s, "c")
        start.wait()
        got[s] = (stream.normals(size), stream.rademacher(size))

    threads = [threading.Thread(target=draw, args=(s,)) for s in seeds]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for s in seeds:
        for g, w in zip(got[s], want[s]):
            assert g.tobytes() == w.tobytes()
