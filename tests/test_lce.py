import random

import numpy as np
import pytest

from klcf.core import Text, klcf_oracle
from klcf.lce import build_lce, lce_backward, lce_forward, lcf0

from conftest import naive_lce_backward, naive_lce_forward, random_text


def test_suffix_array_sorts_suffixes():
    t = Text.from_strings("abba", "aaba")
    idx = build_lce(t)
    seq = t.concat.tolist()
    suffixes = sorted(range(len(seq)), key=lambda i: seq[i:])
    assert idx.fwd.sa.tolist() == suffixes
    assert len(idx.fwd.sa) == 10


def test_lcp_matches_naive_everywhere(rng):
    for _ in range(40):
        t = random_text(rng, rng.randrange(0, 30), rng.randrange(0, 30),
                        rng.choice([1, 2, 4]))
        idx = build_lce(t)
        seq = t.concat.tolist()
        sa = idx.fwd.sa.tolist()
        for i in range(1, len(sa)):
            a, b = seq[sa[i - 1]:], seq[sa[i]:]
            naive = 0
            while naive < min(len(a), len(b)) and a[naive] == b[naive]:
                naive += 1
            assert idx.fwd.lcp[i] == naive


def test_empty_s2_still_indexes():
    t = Text.from_symbols([1, 2, 3], [])
    idx = build_lce(t)
    assert len(idx.fwd.sa) == 5
    assert lcf0(idx) == (0, 1, 1)


def test_forward_examples():
    t = Text.from_strings("abba", "aaba")
    idx = build_lce(t)
    # s1 pos p -> concat p; s2 pos q -> concat n1+1+q
    assert lce_forward(idx, 1, 6) == 1    # a=a then b!=a
    assert lce_forward(idx, 3, 8) == 2    # "ba" = "ba"
    assert lce_forward(idx, 4, 4) == len(t.concat) - 4 + 1  # identical suffix


def test_backward_examples():
    t = Text.from_strings("abba", "aaba")
    idx = build_lce(t)
    assert lce_backward(idx, 4, 9) == 2   # "abba" vs "aaba" common suffix "ba"
    assert lce_backward(idx, 3, 3) == 3
    t2 = Text.from_strings("abc", "abc")
    idx2 = build_lce(t2)
    assert lce_backward(idx2, 3, 7) == 3


def test_queries_match_naive_scans(rng):
    for _ in range(25):
        t = random_text(rng, rng.randrange(1, 60), rng.randrange(1, 60),
                        rng.choice([1, 2, 4, 20]))
        idx = build_lce(t)
        seq = t.concat.tolist()
        n = len(seq)
        for _ in range(300):
            p = rng.randrange(1, n + 1)
            q = rng.randrange(1, n + 1)
            assert lce_forward(idx, p, q) == naive_lce_forward(seq, p, q)
            assert lce_backward(idx, p, q) == naive_lce_backward(seq, p, q)
            assert lce_forward(idx, p, q) == lce_forward(idx, q, p)


def test_batch_queries_match_naive_scans(rng):
    t = random_text(rng, 50, 40, 3)
    idx = build_lce(t)
    seq = t.concat.tolist()
    n = idx.n
    # equal positions, and both separators: n1 + 1 and n, the last position
    edges = [(7, 7), (t.n1 + 1, 3), (n, 20), (n, n), (t.n1 + 1, n), (1, n)]
    pairs = edges + [(rng.randrange(1, n + 1), rng.randrange(1, n + 1))
                     for _ in range(500)]
    p = np.array([a for a, _ in pairs], dtype=np.int64)
    q = np.array([b for _, b in pairs], dtype=np.int64)
    fw = idx.lce_forward_batch(p, q)
    bw = idx.lce_backward_batch(p, q)
    for i, (a, b) in enumerate(pairs):
        assert fw[i] == naive_lce_forward(seq, a, b), (a, b)
        assert bw[i] == naive_lce_backward(seq, a, b), (a, b)


def test_out_of_range_positions_raise():
    idx = build_lce(Text.from_strings("abab", "babb"))
    assert idx.n == 10
    for query in (lce_forward, lce_backward):
        for p, q in [(0, 0), (0, 5), (5, 0), (11, 2), (2, 11), (-1, 3)]:
            with pytest.raises(ValueError, match=r"\[1, 10\]"):
                query(idx, p, q)
    assert lce_forward(idx, 10, 10) == 1
    assert lce_backward(idx, 10, 10) == 10


def test_lcf0_examples():
    t = Text.from_strings("abba", "aaba")
    ell0, i1, i2 = lcf0(build_lce(t))
    assert ell0 == 2
    assert (i1, i2) == (1, 2)  # "ab" at the smallest (i1, i2)
    assert lcf0(build_lce(Text.from_strings("aaa", "aaa")))[0] == 3
    assert lcf0(build_lce(Text.from_strings("abc", "xyz")))[0] == 0


def test_lcf0_equals_oracle_at_k0(rng):
    for _ in range(80):
        t = random_text(rng, rng.randrange(0, 50), rng.randrange(0, 50),
                        rng.choice([1, 2, 4, 20]))
        idx = build_lce(t)
        ell0, i1, i2 = lcf0(idx)
        span = klcf_oracle(t, 0)
        assert ell0 == span.length
        if ell0 > 0:
            assert (i1, i2) == (span.i1, span.i2)
            a = t.s1[i1 - 1:i1 - 1 + ell0]
            b = t.s2[i2 - 1:i2 - 1 + ell0]
            assert (a == b).all()
