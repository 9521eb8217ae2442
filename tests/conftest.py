"""Shared helpers: independent brute-force oracles and instance generators."""

import contextlib
import random

import numpy as np
import pytest

from klcf import lce
from klcf.core import MatchSpan, Text, make_span
from klcf.strided import _batch_longest
from klcf.tabulation import _scan_flat


def random_text(rng: random.Random, n1: int, n2: int, sigma: int) -> Text:
    s1 = [rng.randrange(sigma) for _ in range(n1)]
    s2 = [rng.randrange(sigma) for _ in range(n2)]
    return Text.from_symbols(s1, s2)


def brute_klcf(text: Text, k: int) -> tuple[int, int, int]:
    """Independent cubic-ish reference: try every window pair directly.

    Returns (length, i1, i2) with the lexicographically smallest witness.
    Only for tiny inputs.
    """
    s1 = text.s1.tolist()
    s2 = text.s2.tolist()
    n1, n2 = len(s1), len(s2)
    best = (0, 1, 1)
    for i1 in range(n1):
        for i2 in range(n2):
            mism = 0
            length = 0
            for t in range(min(n1 - i1, n2 - i2)):
                if s1[i1 + t] != s2[i2 + t]:
                    mism += 1
                    if mism > k:
                        break
                length = t + 1
                cand = (length, i1 + 1, i2 + 1)
                if cand[0] > best[0] or (cand[0] == best[0]
                                         and (cand[1], cand[2]) < (best[1], best[2])):
                    best = cand
    return best


def naive_lce_forward(concat, p: int, q: int) -> int:
    """Character-by-character forward extension (1-based positions)."""
    n = len(concat)
    t = 0
    while p + t <= n and q + t <= n and concat[p + t - 1] == concat[q + t - 1]:
        t += 1
    return t


def naive_lce_backward(concat, p: int, q: int) -> int:
    t = 0
    while p - t >= 1 and q - t >= 1 and concat[p - t - 1] == concat[q - t - 1]:
        t += 1
    return t


def suffix_order_errors(s, sa, lcp) -> list[str]:
    """What is wrong with sa and lcp as the suffix and LCP arrays of s,
    checked directly: sa must be a permutation, and every adjacent pair must
    agree on its first lcp symbols, then have the smaller symbol, or the end
    of its first suffix, first.  Those two conditions fix both arrays."""
    s = np.asarray(s, dtype=np.int64)
    n = len(s)
    if not np.array_equal(np.sort(sa), np.arange(n)):
        return ["the suffix array is not a permutation"]
    errors = [] if n == 0 or lcp[0] == 0 else ["lcp[0] is not 0"]
    p, q, ext = sa[:-1].astype(np.int64), sa[1:].astype(np.int64), lcp[1:]
    if (p + ext > n).any() or (q + ext > n).any():
        return errors + ["an LCP runs past the end of the text"]
    padded = np.append(s, -1)  # a suffix's end sorts before every symbol
    if not (padded[p + ext] < padded[q + ext]).all():
        errors.append("an adjacent pair is out of order, or its LCP is short")
    t = 0
    while len(ext):  # offset t of the pairs whose LCP exceeds it
        live = ext > t
        p, q, ext = p[live], q[live], ext[live]
        if not (padded[p + t] == padded[q + t]).all():
            return errors + [f"an adjacent pair differs at offset {t}, below its LCP"]
        t += 1
    return errors


@contextlib.contextmanager
def counted_gram_keys():
    """Record the length of each ``_gram_keys`` call's text while open: one
    call per build where the tied pairs' finish gathers its q-grams, or no
    pair ties, and two where it rebuilds every q-gram."""
    calls = []
    gram_keys = lce._gram_keys

    def counted(symbols):
        calls.append(len(symbols))
        return gram_keys(symbols)

    lce._gram_keys = counted
    try:
        yield calls
    finally:
        lce._gram_keys = gram_keys


def two_pointer_window(bits, k: int) -> tuple[int, int, int]:
    """Longest window with at most k set bits: (length, start, end), 1-based;
    (0, 1, 0) when nothing fits."""
    best = (0, 1, 0)
    s = 0
    ones = 0
    for e, bit in enumerate(bits):
        ones += bit
        while ones > k:
            ones -= bits[s]
            s += 1
        if e - s + 1 > best[0]:
            best = (e - s + 1, s + 1, e + 1)
    return best


def lut_window(bits, k: int, b: int, l1, l2) -> tuple[int, int]:
    """Longest window with at most k set bits by tabulation's LUT scan:
    (start, end), 1-based, ties to the smallest start; (1, 0) when nothing
    fits.  ``bits`` is one diagonal from (1, 1) in b-bit blocks, the last
    one padded with set bits, as the solver's blocks are past a diagonal's
    end."""
    n = len(bits)
    m = -(-n // b)
    padded = np.ones(m * b, np.int64)
    padded[:n] = bits
    blocks = (padded.reshape(m, b) << np.arange(b)).sum(axis=1)
    one = np.ones(1, np.int64)
    best = _scan_flat(blocks, np.array([m]), np.zeros(1, np.int64), np.array([n]),
                      one, one, b, k, l1, l2, MatchSpan(0, 1, 1), None)
    return best.i1, best.i1 + best.length - 1


def through_cell(text: Text, lce, i1: int, i2: int, k: int) -> MatchSpan:
    """Longest window on the diagonal through cell (i1, i2) with <= k
    mismatches, ties to the smallest start, by strided's kernel on one cell."""
    length, back = _batch_longest(text, lce, np.array([i1]), np.array([i2]), k)
    back = int(back[0])
    return make_span(text, int(length[0]), i1 - back, i2 - back)


def lut_entry(lut, *index) -> tuple[int, int]:
    """The window (start, end) of a lookup table at [k', value...]."""
    return int(lut.start[index]), int(lut.end[index])


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
