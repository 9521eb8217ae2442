import random

import numpy as np
import pytest

from klcf import seeds, strided
from klcf.core import MatchSpan, Stats, Text, klcf_oracle, verify_match
from klcf.diagonal import klcf_diagonal_scan
from klcf.lce import build_lce
from klcf.strided import klcf_strided, scan_pass, _batch_longest, _pass_cells

from conftest import random_text, through_cell


def _brute_through_cell(text, i1, i2, k):
    """Longest window on the diagonal containing (i1, i2), <= k mismatches,
    as (length, smallest start in s1 among the longest); (0, i1) when even
    the cell alone holds too many."""
    d = i2 - i1
    st1 = 1 - d if d < 0 else 1
    st2 = st1 + d
    length = min(text.n1 - st1, text.n2 - st2) + 1
    c = i1 - st1
    s1 = text.s1.tolist()
    s2 = text.s2.tolist()
    best, start = 0, i1
    for a in range(c + 1):
        mism = sum(1 for x in range(a, c + 1)
                   if s1[st1 - 1 + x] != s2[st2 - 1 + x])
        if mism > k:
            continue
        e = c
        while e + 1 < length:
            mism += s1[st1 + e] != s2[st2 + e]
            if mism > k:
                break
            e += 1
        if e - a + 1 > best:
            best, start = e - a + 1, st1 + a
    return best, start


def _check_through_cell(t, lce, i1, i2, k):
    span = through_cell(t, lce, i1, i2, k)
    want = _brute_through_cell(t, i1, i2, k)
    assert (span.length, span.i1) == want, (t.s1, t.s2, i1, i2, k)
    assert span.i2 - span.i1 == i2 - i1
    if span.length:
        assert span.i1 <= i1 <= span.i1 + span.length - 1
        assert verify_match(t, span, k)


def test_through_cell_examples():
    t = Text.from_strings("abba", "aaba")
    lce = build_lce(t)
    span = through_cell(t, lce, 3, 3, 1)
    assert (span.length, span.i1, span.i2) == (4, 1, 1)
    assert through_cell(t, lce, 1, 1, 0).length == 1
    t2 = Text.from_strings("xyxy", "xyxy")
    span = through_cell(t2, build_lce(t2), 2, 2, 0)
    assert span.length == 4  # full diagonal when the strings are equal


def test_through_cell_mismatching_cell():
    t = Text.from_strings("ab", "cb")
    lce = build_lce(t)
    assert through_cell(t, lce, 1, 1, 0) == MatchSpan(0, 1, 1, ())
    assert through_cell(t, lce, 1, 1, 1).length == 2
    # at k = 0 the window of a mismatching cell is empty and anchored at
    # the cell, even where matching cells precede it
    t = Text.from_strings("xxab", "xxcb")
    lce = build_lce(t)
    assert through_cell(t, lce, 3, 3, 0) == MatchSpan(0, 3, 3, ())
    assert through_cell(t, lce, 3, 3, 1) == MatchSpan(4, 1, 1, (2,))


def test_through_cell_vs_brute(rng):
    checked = 0
    while checked < 10_000:
        t = random_text(rng, rng.randrange(1, 30), rng.randrange(1, 30),
                        rng.choice([1, 2, 4]))
        lce = build_lce(t)
        for _ in range(50):
            i1 = rng.randrange(1, t.n1 + 1)
            i2 = rng.randrange(1, t.n2 + 1)
            _check_through_cell(t, lce, i1, i2, rng.randrange(0, 7))
            checked += 1
    # every cell of small texts, so the first and last rows and columns are
    # covered: there the backward walk starts on a separator or before s1,
    # and the forward walk ends on a separator
    for _ in range(12):
        t = random_text(rng, rng.randrange(1, 10), rng.randrange(1, 10),
                        rng.choice([1, 2, 3]))
        lce = build_lce(t)
        for k in range(4):
            for i1 in range(1, t.n1 + 1):
                for i2 in range(1, t.n2 + 1):
                    _check_through_cell(t, lce, i1, i2, k)


def test_batch_matches_scalar(rng):
    for _ in range(15):
        t = random_text(rng, rng.randrange(2, 25), rng.randrange(2, 25),
                        rng.choice([2, 4]))
        lce = build_lce(t)
        k = rng.randrange(0, 4)
        i1s, i2s = next(_pass_cells(t.n1, t.n2, 1))  # one chunk: every cell
        assert len(i1s) == t.n1 * t.n2
        length, back = _batch_longest(t, lce, i1s, i2s, k)
        for idx in range(len(i1s)):
            span = through_cell(t, lce, int(i1s[idx]), int(i2s[idx]), k)
            assert span.length == int(length[idx])
            if span.length:
                assert span.i1 == int(i1s[idx] - back[idx])


def test_pass_cells_anchoring():
    # stride 4 must still visit the 4th cell of a length-4 diagonal
    cells = {cell for i1s, i2s in _pass_cells(4, 4, 4)
             for cell in zip(i1s.tolist(), i2s.tolist())}
    assert cells == {(4, 4)}
    # stride beyond every diagonal visits nothing
    assert list(_pass_cells(4, 4, 5)) == []


def test_scan_pass_examples():
    t = Text.from_strings("abba", "aaba")
    lce = build_lce(t)
    assert scan_pass(t, lce, 1, 1).length == 4
    assert scan_pass(t, lce, 1, 4).length == 4
    assert scan_pass(t, lce, 1, 9) == MatchSpan(0, 1, 1, ())


def test_scan_pass_never_misses_at_small_stride(rng):
    for _ in range(40):
        t = random_text(rng, rng.randrange(2, 40), rng.randrange(2, 40),
                        rng.choice([2, 4]))
        lce = build_lce(t)
        k = rng.randrange(0, 3)
        want = klcf_oracle(t, k)
        if want.length == 0:
            continue
        for h in (1, max(1, want.length // 2), want.length):
            assert scan_pass(t, lce, k, h) == want, (t.s1, t.s2, k, h)


def test_passes_across_chunk_boundaries(rng, monkeypatch):
    # five cells a chunk: the L-shapes of one pass, and the ties between
    # witnesses, straddle many chunks
    monkeypatch.setattr(strided, "PASS_CELLS", 5)
    for _ in range(60):
        t = random_text(rng, rng.randrange(1, 30), rng.randrange(1, 30),
                        rng.choice([2, 4]))
        lce = build_lce(t)
        k = rng.randrange(0, 4)
        want = klcf_oracle(t, k)
        for h in {1, max(1, want.length // 2), max(1, want.length)}:
            stats = Stats()
            span = scan_pass(t, lce, k, h, stats)
            assert stats.cells_visited == strided.pass_cells(t.n1, t.n2, h)
            if h <= want.length:
                assert span == want, (t.s1, t.s2, k, h)
        assert klcf_strided(t, lce, k) == want


def test_scan_pass_rejects_bad_stride():
    t = Text.from_strings("ab", "ab")
    with pytest.raises(ValueError):
        scan_pass(t, build_lce(t), 0, 0)


def test_klcf_strided_examples():
    t = Text.from_strings("abba", "aaba")
    stats = Stats()
    span = klcf_strided(t, build_lce(t), 1, stats=stats)
    assert span.length == 4 and stats.passes <= 1
    t2 = Text.from_strings("same", "same")
    stats = Stats()
    assert klcf_strided(t2, build_lce(t2), 0, stats=stats).length == 4
    assert stats.passes == 0  # the exact-match witness already ties h1


def test_klcf_strided_equals_oracle(rng):
    for _ in range(120):
        t = random_text(rng, rng.randrange(0, 60), rng.randrange(0, 60),
                        rng.choice([1, 2, 4, 20, 128]))
        k = rng.randrange(0, 9)
        assert klcf_strided(t, build_lce(t), k) == klcf_oracle(t, k), (t.s1, t.s2, k)


def test_klcf_strided_medium_instance():
    rng = random.Random(5)
    t = random_text(rng, 128, 128, 2)
    span = klcf_strided(t, build_lce(t), 4)
    assert span.length == klcf_oracle(t, 4).length


def test_passes_alone_solve_a_similar_pair(monkeypatch):
    # s2 is s1 with 1 % point mutations: the first passes find a window as
    # long as their stride, so no exhaustive scan runs.  Seeds would undercut
    # the passes here, so they are priced out.
    monkeypatch.setattr(seeds, "SEED_CELL_COST", 1 << 40)
    r = np.random.default_rng(2)
    s1 = r.integers(0, 4, 4096)
    s2 = s1.copy()
    idx = r.random(4096) < 0.01
    s2[idx] = (s2[idx] + 1 + r.integers(0, 3, idx.sum())) % 4
    t = Text.from_symbols(s1.tolist(), s2.tolist())
    stats = Stats()
    span = klcf_strided(t, build_lce(t), 4, stats=stats)
    assert stats.passes >= 1 and stats.scan_cells == 0
    assert span == klcf_diagonal_scan(t, 4)


def test_work_counters(rng):
    for _ in range(30):
        t = random_text(rng, rng.randrange(8, 64), rng.randrange(8, 64),
                        rng.choice([2, 4]))
        k = rng.randrange(0, 4)
        stats = Stats()
        span = klcf_strided(t, build_lce(t), k, stats=stats)
        h1 = min((k + 1) * klcf_oracle(t, 0).length + k, t.n1, t.n2)
        assert stats.passes <= max(1, h1).bit_length() + 1
        bound = 4 * t.n1 * t.n2 / max(span.length, 1) + (t.n1 + t.n2)
        assert stats.cells_visited <= bound
