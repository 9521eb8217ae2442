import random
import tracemalloc

import numpy as np
import pytest

from klcf import diagonal, tabulation
from klcf.core import ResourceLimitError, Stats, Text, generate_instance, klcf_oracle
from klcf.diagonal import _gather, geometry, klcf_diagonal_scan, packed_batches
from klcf.tabulation import build_l1, build_l2, klcf_tabulation, pack

from conftest import lut_entry, lut_window, random_text, two_pointer_window


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


def _words(seq, f, spw):
    """The words of ``seq`` packed spw fields of f bits a word, the first
    symbol in the lowest field, then the two zero words ``pack`` appends."""
    seq = [int(v) for v in seq]
    return [sum(v << i * f for i, v in enumerate(seq[lo:lo + spw]))
            for lo in range(0, len(seq), spw)] + [0, 0]


def test_pack_words_hold_the_symbols(rng):
    for _ in range(40):
        sigma = rng.choice([1, 2, 3, 5, 17, 200])
        t = random_text(rng, rng.randrange(0, 80), rng.randrange(0, 80), sigma)
        if t.sigma == 0:
            continue
        p = pack(t)
        assert p.words1.tolist() == _words(t.s1, p.f, p.spw)
        assert p.words2.tolist() == _words(t.s2, p.f, p.spw)
        assert p.spw == 64 // p.f


def test_pack_sigma_one():
    t = Text.from_symbols([0, 0, 0], [0, 0])
    p = pack(t)
    assert p.f == 1
    assert p.words1.tolist() == [0, 0, 0]


# -- lookup tables -----------------------------------------------------------

def _bits_of(value, width):
    return [(value >> i) & 1 for i in range(width)]


def _brute_l1(value, b, kp):
    best = (0, 1, 0)  # length, i, j
    bits = _bits_of(value, b)
    for i in range(1, b + 1):
        for j in range(i, b + 1):
            if sum(bits[i - 1:j]) <= kp:
                cand = (j - i + 1, i, j)
                if cand[0] > best[0] or (cand[0] == best[0] and cand[1] < best[1]):
                    best = cand
    return best[1:]


def _brute_l2(v1, v2, b, kp):
    bits = _bits_of(v1, b) + _bits_of(v2, b)
    best = (-1, b + 1, b)
    for i in range(1, b + 2):
        for j in range(b, 2 * b + 1):
            if j - i + 1 < 0:
                continue
            if sum(bits[i - 1:j]) <= kp:
                cand = (j - i + 1, i, j)
                if cand[0] > best[0] or (cand[0] == best[0] and cand[1] < best[1]):
                    best = cand
    return best[1:]


def test_l1_known_answers():
    l1 = build_l1(5)
    # B[1..5] = 1,0,0,1,0 -> value 0b01001
    assert lut_entry(l1, 1, 0b01001) == (2, 5)
    assert lut_entry(l1, 2, 0) == (1, 5)
    assert lut_entry(l1, 0, 0b11111) == (1, 0)  # nothing fits


def test_l2_known_answers():
    l2 = build_l2(5)
    assert lut_entry(l2, 3, 0, 0) == (1, 10)
    # B1 = 00001 (bit 5 set -> value 16), B2 = 10000 (bit 1 set -> value 1)
    assert lut_entry(l2, 1, 16, 1) == (1, 5)  # ties prefer the smaller start
    assert lut_entry(l2, 0, 31, 31) == (6, 5)  # nothing fits


def test_l1_exhaustive_small():
    for b in (1, 2, 3, 4):
        l1 = build_l1(b)
        for v in range(1 << b):
            for kp in range(b + 1):
                assert lut_entry(l1, kp, v) == _brute_l1(v, b, kp), (b, v, kp)


def test_l2_exhaustive_small():
    for b in (1, 2, 3, 4, 5):
        l2 = build_l2(b)
        for v1 in range(1 << b):
            for v2 in range(1 << b):
                for kp in range(2 * b + 1):
                    assert lut_entry(l2, kp, v1, v2) == _brute_l2(v1, v2, b, kp)


def test_l2_sampled_at_the_default_block_width():
    l2 = build_l2(8)
    rng = random.Random(8)
    for _ in range(400):
        v1, v2, kp = rng.randrange(256), rng.randrange(256), rng.randrange(17)
        assert lut_entry(l2, kp, v1, v2) == _brute_l2(v1, v2, 8, kp), (v1, v2, kp)
    for v1, v2 in ((0, 0), (255, 255), (1, 128), (128, 1)):
        for kp in range(17):
            assert lut_entry(l2, kp, v1, v2) == _brute_l2(v1, v2, 8, kp), (v1, v2, kp)


@pytest.mark.parametrize("b", [9, 10])
def test_l2_sampled_past_one_byte_blocks(b):
    """Widths whose block values need two bytes; at b = 10, the widest the
    size limit admits, the key (length, suffix length) reaches 20 << 5 | 10
    = 650 of uint16's 65,535."""
    l2 = build_l2(b)
    rng = random.Random(b)
    top = (1 << b) - 1
    for _ in range(300):
        v1, v2 = rng.randrange(top + 1), rng.randrange(top + 1)
        kp = rng.randrange(2 * b + 1)
        assert lut_entry(l2, kp, v1, v2) == _brute_l2(v1, v2, b, kp), (v1, v2, kp)
    for kp in range(2 * b + 1):
        for v1, v2 in ((0, 0), (top, top), (top, 0), (0, top)):
            assert lut_entry(l2, kp, v1, v2) == _brute_l2(v1, v2, b, kp), (v1, v2, kp)


def test_l2_build_peak_memory_is_bounded():
    """The key is built one k' layer at a time in two (256, 256) buffers,
    so at b = 8 the peak stays near the 2.2 MB of the two outputs: under
    3.25 MiB, where a key of all 17 layers at once would add 2.2 MB."""
    tracemalloc.start()
    try:
        build_l2(8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.25 * (1 << 20)


def test_lut_guards():
    with pytest.raises(ResourceLimitError):
        build_l1(0)
    with pytest.raises(ResourceLimitError):
        build_l1(17)
    with pytest.raises(ResourceLimitError):
        build_l2(11)  # over the byte limit; b = 10, the widest that fits,
        # builds in test_l2_sampled_past_one_byte_blocks
    with pytest.raises(ValueError):
        build_l1(4, 5)  # past L1's top budget b
    with pytest.raises(ValueError):
        build_l2(4, 9)  # past L2's top budget 2b
    with pytest.raises(ValueError):
        build_l2(4, -1)


def test_tables_to_a_top_budget_are_the_full_tables_first_layers():
    """Every layer of a table built to a top budget is the full table's,
    byte for byte, at every width to the default and every top."""
    for b in range(1, 9):
        l1, l2 = build_l1(b), build_l2(b)
        for top in range(b + 1):
            part = build_l1(b, top)
            assert part.start.shape == (top + 1, 1 << b)
            assert part.start.tobytes() == l1.start[:top + 1].tobytes()
            assert part.end.tobytes() == l1.end[:top + 1].tobytes()
        for top in range(2 * b + 1):
            part = build_l2(b, top)
            assert part.start.shape == (top + 1, 1 << b, 1 << b)
            assert part.start.tobytes() == l2.start[:top + 1].tobytes()
            assert part.end.tobytes() == l2.end[:top + 1].tobytes()


# -- mismatch blocks ----------------------------------------------------------

def _direct_bits(t, g):
    """Mismatch bits of diagonal g by direct comparison."""
    st1, st2, length = geometry(t.n1, t.n2, np.array([g]))
    a = t.s1[st1[0] - 1:st1[0] - 1 + length[0]]
    return (a != t.s2[st2[0] - 1:st2[0] - 1 + length[0]]).astype(int).tolist()


def test_blocks_match_direct_comparison(rng, monkeypatch):
    texts = [Text.from_strings("abba", "aaba"), Text.from_strings("zzzz", "zzzz")]
    texts += [random_text(rng, rng.randrange(1, 50), rng.randrange(1, 50),
                          rng.choice([2, 3, 5, 17, 80])) for _ in range(30)]
    shorter = 0
    b = 8  # a block is one packed byte
    for t in texts:
        k = rng.randrange(0, 4)
        seen = []
        monkeypatch.setattr(diagonal, "SCAN_CELLS", rng.choice([64, 1 << 20]))
        for packed, st1, st2, length in packed_batches(t, k):
            rows = len(length)
            # the blocks as the tables read them, a byte's first cell in bit 0
            blocks, m, boff = _gather(
                packed, (np.arange(rows), np.zeros(rows, np.int64), length))
            assert m.tolist() == (-(-length // b)).tolist()
            batch = st2 - st1 + t.n1 - 1  # the diagonals' indices
            assert (length == geometry(t.n1, t.n2, batch)[2]).all()
            assert len(blocks) == int(m.sum())
            for r, g in enumerate(batch.tolist()):
                want = _direct_bits(t, g)
                got = [int(blocks[boff[r] + i // b]) >> (i % b) & 1
                       for i in range(m[r] * b)]
                assert got[:len(want)] == want
                assert all(got[len(want):])  # past the end, bits are set
                shorter += -(-len(want) // 8) < packed.shape[0]
            seen += batch.tolist()
        assert sorted(seen) == list(range(t.n1 + t.n2 - 1))
    assert shorter  # rows a byte or more narrower than their batch were checked


# -- window scan --------------------------------------------------------------

def test_longest_window_examples():
    l1, l2 = build_l1(8), build_l2(8)
    assert lut_window([0, 1, 0, 0], 1, 8, l1, l2) == (1, 4)
    assert lut_window([0] * 30, 0, 8, l1, l2) == (1, 30)
    assert lut_window([1, 1, 1], 0, 8, l1, l2) == (1, 0)


def test_longest_window_vs_two_pointer(rng):
    l1, l2 = build_l1(8), build_l2(8)
    for _ in range(250):
        n = rng.randrange(1, 200)
        density = rng.choice([0.02, 0.1, 0.3, 0.7])
        bits = [1 if rng.random() < density else 0 for _ in range(n)]
        k = rng.randrange(0, 13)
        start, end = lut_window(bits, k, 8, l1, l2)
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
            start, end = lut_window(bits, k, b, l1, l2)
            assert end - start + 1 == two_pointer_window(bits, k)[0]


# -- end-to-end ---------------------------------------------------------------

def test_tabulation_examples():
    t = Text.from_strings("abba", "aaba")
    span = klcf_tabulation(t, 1)
    assert (span.length, span.i1, span.i2) == (4, 1, 1)
    t2 = Text.from_strings("hello", "hello")
    assert klcf_tabulation(t2, 0).length == 5
    assert klcf_tabulation(Text.from_symbols([], [1]), 2).length == 0


def test_held_tables_grow_with_the_budget_and_never_shrink(rng, monkeypatch):
    """One process solving k = 1, 4, 1, 0 and then 20 holds the layers of
    the largest budget so far: 2, 5, 5, 5 and all 17 of L2, and every
    span is the oracle's.  k = 20 reads L1's top layer 8 and caps every
    L2 key at layer 16."""
    monkeypatch.setattr(tabulation, "_held", None)
    texts = [random_text(rng, rng.randrange(20, 120), rng.randrange(20, 120),
                         rng.choice([2, 4])) for _ in range(6)]
    for k, layers in ((1, 2), (4, 5), (1, 5), (0, 5), (20, 17)):
        for t in texts:
            assert klcf_tabulation(t, k) == klcf_oracle(t, k), (k, t.n1, t.n2)
        l1, l2 = tabulation._held
        assert (len(l1.start), len(l2.start)) == (min(layers, 9), layers)


def test_first_low_budget_call_builds_few_layers(monkeypatch):
    """A process's first k = 1 call builds L1 and L2 layers 0..1 only: its
    peak stays under 1.25 MiB, where all 17 L2 layers take 2.8 MiB."""
    monkeypatch.setattr(tabulation, "_held", None)
    t = Text.from_strings("ab", "ba")
    tracemalloc.start()
    try:
        klcf_tabulation(t, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * (1 << 20)


def test_tabulation_equals_oracle(rng, monkeypatch):
    """Whole spans, at every batch budget; the fixed 90 x 110 pair runs at
    every budget, from one diagonal a batch up.  k = 9-17 on binary and DNA
    texts of 100-300 symbols passes L1's min(k, 8) clamp, and k = 17 L2's
    min(k - q, 16) one."""
    cases = [(random_text(rng, rng.randrange(0, 70), rng.randrange(0, 70),
                          rng.choice([1, 2, 4, 20, 128])),
              rng.randrange(0, 9), rng.choice([1, 7, 64, 1 << 20]))
             for _ in range(120)]
    fixed = random_text(rng, 90, 110, 4)
    cases += [(fixed, 3, budget) for budget in (1, 7, 64, 256, 1 << 20)]
    cases += [(random_text(rng, rng.randrange(100, 301), rng.randrange(100, 301),
                           sigma), k, rng.choice([64, 1 << 20]))
              for sigma in (2, 4) for k in range(9, 18)]
    for t, k, budget in cases:
        monkeypatch.setattr(diagonal, "SCAN_CELLS", budget)
        assert klcf_tabulation(t, k) == klcf_oracle(t, k)


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
            start, end = lut_window(_direct_bits(t, g), k, 8, l1, l2)
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
        assert p.spw == w // p.f
        assert p.words1.tolist() == _words(t.s1, p.f, p.spw)
        assert p.words2.tolist() == _words(t.s2, p.f, p.spw)
    with pytest.raises(ValueError):
        pack(Text.from_symbols(range(17), range(17)), 4)  # 5-bit symbols need w >= 5


def test_tabulation_stats_counters(rng):
    t = random_text(rng, 64, 64, 4)
    stats = Stats()
    klcf_tabulation(t, 3, stats=stats)
    assert stats.lut_queries > 0
    assert stats.diagonals == t.n1 + t.n2 - 1
    # per-diagonal budget: m blocks of L1 plus (m-1)(k+1) of L2
    m_max = -(-64 // 8)
    assert stats.max_diag_queries <= 2 * m_max * (3 + 1)


def _planted_read():
    """A 150-symbol read copied from a random 4,096-symbol DNA reference at
    3,001, with 4 substitutions."""
    r = np.random.default_rng(5)
    ref = r.integers(0, 4, 4096)
    read = ref[3000:3150].copy()
    at = r.choice(150, 4, replace=False)
    read[at] = (read[at] + 1 + r.integers(0, 3, 4)) % 4
    return Text.from_symbols(ref.tolist(), read.tolist())


@pytest.mark.parametrize("case", ["read", "random"])
def test_tabulation_work_is_pinned(case):
    """The span and the work tabulation reports on two fixed pairs, so a
    rewrite of its batch kernels cannot change what the LUT stage reads.
    The read's runs wait in the pool of ``POOL_BLOCKS`` blocks, so some
    batches are filtered at an older, lower floor than their own: 8,357
    queries, where scanning each batch's runs at once made 7,783."""
    if case == "read":
        t, k, want = _planted_read(), 4, ((150, 3001, 1), 8357, 109, 4245, 80655)
    else:
        t, k = generate_instance("random", 1024, 20, 1, seed=2), 1
        want = ((5, 28, 754), 24171, 382, 2047, 259866)
    stats = Stats()
    span = klcf_tabulation(t, k, stats=stats)
    assert ((span.length, span.i1, span.i2), stats.lut_queries, stats.max_diag_queries,
            stats.diagonals, stats.word_ops) == want


def test_tabulation_peak_memory_is_bounded():
    """Batches of the scan's budget, and the first batch read behind the
    filter in row chunks, keep the peak small: random DNA at n = 3072,
    k = 4, stays under 8 MB (15.6 MB with the first batch's LUT stage
    read whole, 246 MB with the word-packed xor batches of 2^23 cells)."""
    klcf_tabulation(Text.from_strings("ab", "ab"), 4)  # build the tables
    t = generate_instance("random", 3072, 4, 4, seed=1)
    tracemalloc.start()
    try:
        span = klcf_tabulation(t, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert span.length > 0
    assert peak < 8 << 20


# -- the block filter in front of the LUT stage ---------------------------------

def _periodic_pair(rng, n, sigma, period, rate):
    """Two noisy copies of one periodic string: many tied optima, on many
    diagonals and several times on one."""
    motif = [rng.randrange(sigma) for _ in range(period)]
    sides = []
    for _ in range(2):
        s = [motif[i % period] for i in range(n)]
        for i in range(n):
            if rng.random() < rate:
                s[i] = (s[i] + 1 + rng.randrange(sigma - 1)) % sigma
        sides.append(s)
    return Text.from_symbols(*sides)


def test_filtered_tabulation_equals_oracle(rng, monkeypatch):
    """Small batches, so every batch after the first, and every row chunk
    of the first after its first row, runs behind the filter at the best
    length so far; whole spans pin the smallest witness."""
    kept = []
    kept_segments = diagonal._kept_segments

    def counted(packed, k, floor):
        segments = kept_segments(packed, k, floor)
        kept.append(segments is not None)
        return segments

    monkeypatch.setattr(diagonal, "_kept_segments", counted)
    cases = [(random_text(rng, rng.randrange(200, 601), rng.randrange(200, 601),
                          sigma), rng.randrange(0, 7), rng.choice([1 << 10, 1 << 12]))
             for sigma in (2, 4, 20) for _ in range(6)]
    cases += [(_periodic_pair(rng, 500, 4, 7, 0.03), k, 1 << 11) for k in (1, 3, 6)]
    for t, k, budget in cases:
        monkeypatch.setattr(diagonal, "SCAN_CELLS", budget)
        kept.clear()
        span = klcf_tabulation(t, k)
        assert span == klcf_oracle(t, k), (t.n1, t.n2, t.sigma, k)
        # some batch went through the filter's runs, unless the best is too
        # short for any block count to rule a byte out
        assert any(kept) or span.length < 5


def test_runs_past_a_diagonal_end_are_dropped(rng, monkeypatch):
    """A filter that also keeps each row's last byte keeps, on square
    pairs, runs that start 8 or more cells past the end of every row from
    the 16th of a batch on, whose lengths fall by one a row: such runs hold
    no cell and are dropped, and both exact stages stay exact."""
    kept_segments = diagonal._kept_segments
    tails = []

    def with_tails(packed, k, floor):
        segments = kept_segments(packed, k, floor)
        nbytes, rows = packed.shape
        if segments is None or rows <= 16:
            return segments
        tail = np.arange(16, rows)
        tails.append(len(tail))
        extra = (tail, np.full_like(tail, nbytes - 1), np.full_like(tail, nbytes))
        return tuple(np.concatenate(pair) for pair in zip(segments, extra))

    monkeypatch.setattr(diagonal, "_kept_segments", with_tails)
    monkeypatch.setattr(diagonal, "SCAN_CELLS", 1 << 12)
    for sigma in (2, 4, 20):
        n = rng.randrange(200, 401)
        t = random_text(rng, n, n, sigma)
        k = rng.randrange(0, 5)
        want = klcf_oracle(t, k)
        assert klcf_tabulation(t, k) == want, (n, sigma, k)
        assert klcf_diagonal_scan(t, k) == want, (n, sigma, k)
    assert tails


def test_first_batch_chunks_keep_ties_and_witnesses(rng, monkeypatch):
    """A budget that puts every diagonal with i2 <= i1 in the first batch,
    and the rest in the second, so the first batch's row chunks are the
    only filtering before that half is done; tied optima on many diagonals
    (the periodic pairs) meet across chunk boundaries, and whole spans pin
    the smallest witness.  The scan at floor 0 reads the same chunks."""
    monkeypatch.setattr(diagonal, "SCAN_CELLS", 1 << 22)
    cases = [(_periodic_pair(rng, 500, 4, 7, 0.03), k) for k in (1, 3, 6)]
    cases += [(random_text(rng, rng.randrange(200, 601), rng.randrange(200, 601),
                           sigma), rng.randrange(0, 7))
              for sigma in (2, 4) for _ in range(4)]
    for t, k in cases:
        rows = [len(length) for *_, length in packed_batches(t, k)]
        chunks = [min(2 ** j, t.n1 + 1 - 2 ** j) for j in range(t.n1.bit_length())]
        assert rows == chunks + [t.n2 - 1]
        want = klcf_oracle(t, k)
        assert klcf_tabulation(t, k) == want, (t.n1, t.n2, t.sigma, k)
        assert klcf_diagonal_scan(t, k) == want, (t.n1, t.n2, t.sigma, k)


def test_first_batch_runs_behind_the_filter():
    """On random DNA, n = 3072 and k = 4, the first batch's leading rows set
    a floor for the rest of it: under 50,000 LUT queries, where reading
    that batch whole makes 739,324 of 740,433."""
    t = generate_instance("random", 3072, 4, 4, seed=1)
    stats = Stats()
    span = klcf_tabulation(t, 4, stats=stats)
    assert span == klcf_diagonal_scan(t, 4)
    assert stats.diagonals == t.n1 + t.n2 - 1
    assert stats.lut_queries <= 50_000


def test_filter_cuts_lut_queries(monkeypatch):
    """On random DNA, n = 3072 and k = 4, the filter leaves under a quarter
    of the LUT queries, and every diagonal is still counted."""
    t = generate_instance("random", 3072, 4, 4, seed=1)
    filtered, full = Stats(), Stats()
    span = klcf_tabulation(t, 4, stats=filtered)
    monkeypatch.setattr(diagonal, "_kept_segments", lambda *args: None)
    assert klcf_tabulation(t, 4, stats=full) == span
    assert filtered.diagonals == full.diagonals == t.n1 + t.n2 - 1
    assert filtered.word_ops == full.word_ops
    assert 4 * filtered.lut_queries < full.lut_queries


def _diagonal_best(t, k):
    """The longest window with at most k mismatches on each diagonal, by
    index, from each diagonal's mismatch offsets."""
    best = []
    st1, st2, length = geometry(t.n1, t.n2, np.arange(t.n1 + t.n2 - 1))
    for a, b, n in zip(st1.tolist(), st2.tolist(), length.tolist()):
        bad = np.flatnonzero(t.s1[a - 1:a - 1 + n] != t.s2[b - 1:b - 1 + n])
        ends = np.concatenate([[-1], bad, [n]])  # a window lies between two
        best.append(n if len(bad) <= k else int((ends[k + 1:] - ends[:-k - 1]).max()) - 1)
    return np.array(best)


@pytest.mark.parametrize("pool", [1, float("inf")])
def test_pooled_runs_give_the_oracle(rng, monkeypatch, pool):
    """Kept runs scanned a batch at a time (a pool of one block) and all at
    the end give the oracle's spans.  On the periodic pairs the tied optima
    lie in several batches, so whole spans pin the smallest witness across
    pooled batches."""
    monkeypatch.setattr(tabulation, "POOL_BLOCKS", pool)
    monkeypatch.setattr(diagonal, "SCAN_CELLS", 1 << 11)
    pooled = []
    scan_pool = tabulation._scan_pool

    def spy(parts, *args):
        pooled.append(len(parts))
        return scan_pool(parts, *args)

    monkeypatch.setattr(tabulation, "_scan_pool", spy)
    # read-like cuts of one periodic copy against the other; without noise
    # every whole copy of the cut is an optimum
    cuts = [Text.from_symbols(p.s1.tolist(), p.s2[40:240].tolist())
            for p in (_periodic_pair(rng, 400, 4, 7, rate) for rate in (0, 0.005))]
    cases = [(cuts[0], k) for k in (0, 3)]
    ties_apart = len(cases)
    cases += [(cuts[1], k) for k in (1, 3, 6)]
    cases += [(_periodic_pair(rng, 400, 4, 7, 0.01), k) for k in (1, 3)]
    cases += [(random_text(rng, rng.randrange(200, 401), rng.randrange(200, 401),
                           sigma), rng.randrange(0, 7)) for sigma in (2, 4, 20)]
    for i, (t, k) in enumerate(cases):
        want = klcf_oracle(t, k)
        assert klcf_tabulation(t, k) == want, (t.n1, t.n2, t.sigma, k)
        if i < ties_apart:
            best = _diagonal_best(t, k)
            assert best.max() == want.length
            ties = set(np.flatnonzero(best == want.length).tolist())
            batches = [ties & set((st2 - st1 + t.n1 - 1).tolist())
                       for _, st1, st2, _ in packed_batches(t, k)]
            assert sum(map(bool, batches)) > 1
    # a pool of one block scans each batch alone; the other pools batches
    assert (max(pooled) == 1) == (pool == 1)
