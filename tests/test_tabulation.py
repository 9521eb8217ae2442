import random
import tracemalloc

import numpy as np
import pytest

from klcf.core import ResourceLimitError, Text, generate_instance, klcf_oracle
from klcf.diagonal import diagonals, packed_batches
from klcf.tabulation import (MismatchBlocks, TabulationStats, _row_blocks,
                             build_l1, build_l2, klcf_tabulation,
                             longest_window_lut, pack, unpack)

from conftest import random_text, two_pointer_window


# -- packing -----------------------------------------------------------------

def test_pack_field_arrangement():
    t = Text.from_strings("abba", "abba")
    p = pack(t)
    assert p.f == 1 and p.spw == 64
    t4 = Text.from_symbols([0, 1, 1, 0], [0, 1, 2, 3])
    p4 = pack(t4)
    assert p4.f == 2
    # fields 0,1,1,0 LSB-first -> 0b00011100? no: 0 | 1<<2 | 1<<4 | 0<<6
    assert int(p4.words1[0]) == (1 << 2) | (1 << 4)


def test_pack_roundtrip_random(rng):
    for _ in range(40):
        sigma = rng.choice([1, 2, 3, 5, 17, 200])
        t = random_text(rng, rng.randrange(0, 80), rng.randrange(0, 80), sigma)
        if t.sigma == 0:
            continue
        p = pack(t)
        u1, u2 = unpack(p)
        assert u1.tolist() == t.s1.tolist()
        assert u2.tolist() == t.s2.tolist()
        assert p.spw == 64 // p.f


def test_pack_sigma_one():
    t = Text.from_symbols([0, 0, 0], [0, 0])
    p = pack(t)
    assert p.f == 1
    assert unpack(p)[0].tolist() == [0, 0, 0]


# -- lookup tables -----------------------------------------------------------

def _bits_of(value, width):
    return [(value >> i) & 1 for i in range(width)]


def _brute_l1(value, b, kp):
    best = (0, 1, 0, 0)  # length, i, j, ones
    bits = _bits_of(value, b)
    for i in range(1, b + 1):
        for j in range(i, b + 1):
            ones = sum(bits[i - 1:j])
            if ones <= kp:
                cand = (j - i + 1, i, j, ones)
                if cand[0] > best[0] or (cand[0] == best[0] and cand[1] < best[1]):
                    best = cand
    if best[0] == 0:
        return (1, 0, 0)
    return best[1:]


def _brute_l2(v1, v2, b, kp):
    bits = _bits_of(v1, b) + _bits_of(v2, b)
    best = (-1, b + 1, b, 0)
    for i in range(1, b + 2):
        for j in range(b, 2 * b + 1):
            if j - i + 1 < 0:
                continue
            ones = sum(bits[i - 1:j])
            if ones <= kp:
                cand = (j - i + 1, i, j, ones)
                if cand[0] > best[0] or (cand[0] == best[0] and cand[1] < best[1]):
                    best = cand
    return best[1:]


def test_l1_known_answers():
    l1 = build_l1(5)
    # B[1..5] = 1,0,0,1,0 -> value 0b01001
    assert l1.query(0b01001, 1) == (2, 5, 1)
    assert l1.query(0, 2) == (1, 5, 0)
    assert l1.query(0b11111, 0) == (1, 0, 0)  # nothing fits


def test_l2_known_answers():
    l2 = build_l2(5)
    assert l2.query(0, 0, 3) == (1, 10, 0)
    # B1 = 00001 (bit 5 set -> value 16), B2 = 10000 (bit 1 set -> value 1)
    assert l2.query(16, 1, 1) == (1, 5, 1)  # ties prefer the smaller start


def test_l1_exhaustive_small():
    for b in (1, 2, 3, 4):
        l1 = build_l1(b)
        for v in range(1 << b):
            for kp in range(b + 1):
                assert l1.query(v, kp) == _brute_l1(v, b, kp), (b, v, kp)


def test_l2_exhaustive_small():
    for b in (1, 2, 3):
        l2 = build_l2(b)
        for v1 in range(1 << b):
            for v2 in range(1 << b):
                for kp in range(2 * b + 1):
                    assert l2.query(v1, v2, kp) == _brute_l2(v1, v2, b, kp)


def test_lut_guards():
    with pytest.raises(ResourceLimitError):
        build_l1(0)
    with pytest.raises(ResourceLimitError):
        build_l1(17)
    with pytest.raises(ResourceLimitError):
        build_l2(12)  # complete table would not fit the byte limit


# -- mismatch blocks ----------------------------------------------------------

def _direct_bits(t, g):
    """Mismatch bits of diagonal g by direct comparison."""
    st1, st2, length = diagonals(t.n1, t.n2, g, g + 1)
    a = t.s1[st1[0] - 1:st1[0] - 1 + length[0]]
    return (a != t.s2[st2[0] - 1:st2[0] - 1 + length[0]]).astype(int).tolist()


def test_blocks_match_direct_comparison(rng):
    texts = [Text.from_strings("abba", "aaba"), Text.from_strings("zzzz", "zzzz")]
    texts += [random_text(rng, rng.randrange(1, 50), rng.randrange(1, 50),
                          rng.choice([2, 3, 5, 17, 80])) for _ in range(30)]
    shorter = 0
    for t in texts:
        b = rng.choice([1, 4, 8, 13])
        k = rng.randrange(0, 4)
        _, _, length = diagonals(t.n1, t.n2)
        seen = []
        for batch, packed in packed_batches(t, k, rng.choice([64, 1 << 20])):
            blocks, m, boff = _row_blocks(packed, length[batch], b)
            assert m.tolist() == (-(-length[batch] // b)).tolist()
            assert len(blocks) == int(m.sum())
            for r, g in enumerate(batch.tolist()):
                want = _direct_bits(t, g)
                got = [int(blocks[boff[r] + i // b]) >> (i % b) & 1
                       for i in range(m[r] * b)]
                assert got[:len(want)] == want
                assert all(got[len(want):])  # past the end, bits are set
                shorter += -(-len(want) // 8) < packed.shape[1]
            seen += batch.tolist()
        assert sorted(seen) == list(range(t.n1 + t.n2 - 1))
    assert shorter  # rows a byte or more narrower than their batch were checked


# -- window scan --------------------------------------------------------------

def _mb_from_bits(bits, b):
    m = -(-len(bits) // b) if bits else 0
    blocks = np.zeros(max(m, 0), dtype=np.int64)
    for i, bit in enumerate(bits):
        if bit:
            blocks[i // b] |= 1 << (i % b)
    return MismatchBlocks(b, blocks, len(bits))


def test_longest_window_examples():
    l1, l2 = build_l1(8), build_l2(8)
    assert longest_window_lut(_mb_from_bits([0, 1, 0, 0], 8), 1, l1, l2) == (1, 4)
    assert longest_window_lut(_mb_from_bits([0] * 30, 8), 0, l1, l2) == (1, 30)
    assert longest_window_lut(_mb_from_bits([1, 1, 1], 8), 0, l1, l2) == (1, 0)
    assert longest_window_lut(_mb_from_bits([], 8), 3, l1, l2) == (1, 0)


def test_longest_window_vs_two_pointer(rng):
    l1, l2 = build_l1(8), build_l2(8)
    for _ in range(250):
        n = rng.randrange(1, 200)
        density = rng.choice([0.02, 0.1, 0.3, 0.7])
        bits = [1 if rng.random() < density else 0 for _ in range(n)]
        k = rng.randrange(0, 13)
        start, end = longest_window_lut(_mb_from_bits(bits, 8), k, l1, l2)
        want_len, want_start, _ = two_pointer_window(bits, k)
        assert end - start + 1 == want_len
        if want_len:
            assert start == want_start
            assert sum(bits[start - 1:end]) <= k


def test_longest_window_other_block_widths(rng):
    for b in (1, 2, 3, 5, 9):
        l1, l2 = build_l1(b), build_l2(b)
        for _ in range(60):
            n = rng.randrange(1, 70)
            bits = [rng.randrange(2) for _ in range(n)]
            k = rng.randrange(0, 7)
            start, end = longest_window_lut(_mb_from_bits(bits, b), k, l1, l2)
            assert end - start + 1 == two_pointer_window(bits, k)[0]


# -- end-to-end ---------------------------------------------------------------

def test_tabulation_examples():
    t = Text.from_strings("abba", "aaba")
    span = klcf_tabulation(t, 1)
    assert (span.length, span.i1, span.i2) == (4, 1, 1)
    t2 = Text.from_strings("hello", "hello")
    assert klcf_tabulation(t2, 0).length == 5
    assert klcf_tabulation(Text.from_symbols([], [1]), 2).length == 0


def test_tabulation_equals_oracle(rng):
    """Whole spans, at every block width and batch budget; the fixed
    90 x 110 pair runs at every budget, from one diagonal a batch up."""
    cases = [(random_text(rng, rng.randrange(0, 70), rng.randrange(0, 70),
                          rng.choice([1, 2, 4, 20, 128])),
              rng.randrange(0, 9), rng.choice([1, 2, 3, 4, 5, 8]),
              rng.choice([1, 7, 64, 1 << 20])) for _ in range(120)]
    fixed = random_text(rng, 90, 110, 4)
    cases += [(fixed, 3, 8, budget) for budget in (1, 7, 64, 256, 1 << 20)]
    for t, k, b, budget in cases:
        assert klcf_tabulation(t, k, b=b, budget=budget) == klcf_oracle(t, k)


def test_tabulation_agrees_with_per_diagonal_scan(rng):
    # the batched solver must reproduce a plain loop of per-diagonal window
    # scans over blocks built from a direct comparison
    l1, l2 = build_l1(8), build_l2(8)
    for _ in range(20):
        t = random_text(rng, rng.randrange(1, 50), rng.randrange(1, 50),
                        rng.choice([2, 4, 20]))
        k = rng.randrange(0, 5)
        best = 0
        for g in range(t.n1 + t.n2 - 1):
            mb = _mb_from_bits(_direct_bits(t, g), 8)
            start, end = longest_window_lut(mb, k, l1, l2)
            best = max(best, end - start + 1)
        assert best == klcf_tabulation(t, k).length


def test_tabulation_large_sigma_instance():
    rng = random.Random(11)
    t = random_text(rng, 200, 200, 64)
    assert klcf_tabulation(t, 2).length == klcf_oracle(t, 2).length


def test_tabulation_other_word_widths(rng):
    for w in (8, 16, 32):
        t = random_text(rng, 60, 45, rng.choice([2, 5, 17]))
        p = pack(t, w)
        u1, u2 = unpack(p)
        assert u1.tolist() == t.s1.tolist() and u2.tolist() == t.s2.tolist()
    with pytest.raises(ValueError):
        pack(Text.from_symbols(range(17), range(17)), 4)  # 5-bit symbols need w >= 5


def test_tabulation_stats_counters(rng):
    t = random_text(rng, 64, 64, 4)
    stats = TabulationStats()
    klcf_tabulation(t, 3, stats=stats)
    assert stats.lut_queries > 0
    assert stats.diagonals == t.n1 + t.n2 - 1
    # per-diagonal budget: m blocks of L1 plus (m-1)(k+1) of L2
    m_max = -(-64 // 8)
    assert stats.max_diag_queries <= 2 * m_max * (3 + 1)


def test_tabulation_peak_memory_is_bounded():
    """Batches of the scan's budget keep the peak flat: random DNA at
    n = 3072, k = 4, stays under 64 MB (246 MB with the word-packed xor
    batches of 2^23 cells)."""
    klcf_tabulation(Text.from_strings("ab", "ab"), 4)  # build the tables
    t = generate_instance("random", 3072, 4, 4, seed=1)
    tracemalloc.start()
    try:
        span = klcf_tabulation(t, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert span.length > 0
    assert peak < 64 << 20
