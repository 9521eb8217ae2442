"""Constant-time longest-common-extension queries over a suffix array.

The forward index over the sentinel-separated concatenation keeps its
suffix array, LCP array and inverse ranks eagerly, each as int32, because
``lcf0`` and neighborhood read them.  Its sparse table is built by the
first forward query.  The backward index, over the reversed
concatenation, is built whole by the first backward query.  Paths that
make no LCE query (``lcf0`` alone, the diagonal scan, tabulation,
neighborhood, strided with no pass) hold 12 bytes per symbol and never
pay for a table.

Construction is O(n log n) numpy.  Prefix doubling sorts one int64 key
per round and keeps each round's ranks as int32; the last round's ranks
are the inverse suffix array.  The LCP of every pair of adjacent
suffixes then comes from descending those rounds at once, as in Manber
and Myers (SIAM J. Comput. 1993): the pair agrees on 2^t more symbols
wherever the round-t ranks at its current offsets are equal.  A sparse
table over the LCP array answers every query with two rank lookups and
one range-minimum probe.
"""

from __future__ import annotations

import numpy as np

from .core import Text
from .diagonal import argmin_pair

# Ranks are stored as int32, and each doubling round sorts the key
# rank * (n + 1) + next + 1 < n^2 + 2n, exact in int64 for n < 2^31.
MAX_SYMBOLS = (1 << 31) - 1


def _suffix_array_lcp(symbols: np.ndarray) -> tuple[np.ndarray, np.ndarray,
                                                    np.ndarray]:
    """Suffix array, LCP array (lcp[i] = LCP of the suffixes at sa[i-1]
    and sa[i], lcp[0] = 0) and ranks (rank[sa[i]] = i), all int32, by
    prefix doubling.

    ``rounds[t][i]`` ranks the suffix at i by its first 2^t symbols (equal
    ranks mean equal prefixes of that length); ``rounds[t][n]`` is -1, so
    an offset that runs off the end never matches.
    """
    n = len(symbols)
    if n > MAX_SYMBOLS:
        raise ValueError(f"LCE index supports at most {MAX_SYMBOLS} symbols, got {n}")
    if n == 0:
        return (np.empty(0, np.int32),) * 3
    rank = np.empty(n + 1, np.int32)
    rank[:n] = np.unique(symbols, return_inverse=True)[1]
    rank[n] = -1
    rounds = []
    h = 1
    while True:
        rounds.append(rank)
        key = rank[:n].astype(np.int64)
        key *= n + 1
        if h < n:
            key[:n - h] += rank[h:n]
            key[:n - h] += 1
        sa = np.argsort(key)
        key = key[sa]
        rank = np.empty(n + 1, np.int32)
        rank[n] = -1
        sorted_rank = np.zeros(n, np.int32)
        np.cumsum(key[1:] != key[:-1], out=sorted_rank[1:])
        rank[sa] = sorted_rank
        if sorted_rank[-1] == n - 1:  # every suffix has its own rank
            break
        h *= 2
    del key, sorted_rank
    sa = sa.astype(np.int32)
    # each adjacent pair differs within its first 2^len(rounds) symbols
    lcp = np.zeros(n, np.int32)
    p, q, ext = sa[:-1], sa[1:], lcp[1:]
    for t in range(len(rounds) - 1, -1, -1):
        ranks = rounds.pop()
        ext += (ranks[p + ext] == ranks[q + ext]).astype(np.int32) << t
    return sa, lcp, rank[:n]


class SuffixIndex:
    """Suffix array, LCP array and inverse ranks, plus a sparse-table RMQ
    over the LCP array.

    ``sa``, ``lcp`` and ``rank`` are int32 and built eagerly: 12 bytes per
    symbol.  ``table`` and ``floor_log2`` are None until the first query
    builds them.  ``table[g, i]`` is min(lcp[i .. i + 2^g - 1]), int32, one
    row per level; row 0 is the LCP array itself, which ``lcp`` then views,
    so the table adds (levels - 1) * 4 bytes per symbol and ``floor_log2``
    4 more.  Scalar queries read the same buffers through memoryviews,
    which return Python ints without copying the arrays into lists.
    """

    __slots__ = ("sa", "lcp", "rank", "table", "floor_log2", "_rank_view",
                 "_row_views", "_log2_view")

    def __init__(self, symbols: np.ndarray):
        self.sa, self.lcp, self.rank = _suffix_array_lcp(symbols)
        self.table = None  # built by the first query

    def _build_table(self) -> None:
        n = len(self.sa)
        # rows are padded so the levels stack into one matrix
        levels = max(1, n.bit_length())
        table = np.full((levels, max(n, 1)), np.iinfo(np.int32).max, np.int32)
        table[0, :n] = self.lcp
        self.lcp = table[0, :n]
        for g in range(1, levels):
            half = 1 << (g - 1)
            m = n - 2 * half + 1
            np.minimum(table[g - 1, :m], table[g - 1, half:half + m],
                       out=table[g, :m])
        # floor(log2(x)) for x in [0, n], exact below 2^53; entry 0 is unused
        self.floor_log2 = np.frexp(np.arange(n + 1))[1]
        self.floor_log2 -= 1
        self._rank_view = memoryview(self.rank)
        self._row_views = [memoryview(row) for row in table]
        self._log2_view = memoryview(self.floor_log2)
        self.table = table

    def lce(self, a: int, b: int) -> int:
        """Longest common prefix of the suffixes at 1-based positions a, b."""
        if self.table is None:
            self._build_table()
        if a == b:
            return len(self.sa) - a + 1
        r1 = self._rank_view[a - 1]
        r2 = self._rank_view[b - 1]
        if r1 > r2:
            r1, r2 = r2, r1
        g = self._log2_view[r2 - r1]
        row = self._row_views[g]
        x = row[r1 + 1]
        y = row[r2 - (1 << g) + 1]
        return x if x < y else y

    def lce_batch(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        """lce(p[i], q[i]) for every i."""
        if self.table is None:
            self._build_table()
        r1 = self.rank[p - 1]
        r2 = self.rank[q - 1]
        same = r1 == r2
        lo = np.minimum(r1, r2) + ~same  # equal positions probe [r, r]
        hi = np.maximum(r1, r2)
        g = self.floor_log2[hi - lo + 1]
        res = np.minimum(self.table[g, lo], self.table[g, hi - (1 << g) + 1])
        return np.where(same, len(self.sa) - p + 1, res)  # int64, as p is


class LceIndex:
    """Forward and backward LCE queries for a Text's concatenation."""

    __slots__ = ("text", "n1", "n2", "n", "fwd", "bwd")

    def __init__(self, text: Text):
        self.text = text
        self.n1 = text.n1
        self.n2 = text.n2
        self.n = len(text.concat)
        self.fwd = SuffixIndex(text.concat)
        self.bwd = None  # built by the first backward query

    def lce_forward_batch(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        return self.fwd.lce_batch(p, q)

    def lce_backward_batch(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        if self.bwd is None:
            self.bwd = SuffixIndex(self.text.concat[::-1])
        n = self.n
        return self.bwd.lce_batch(n - p + 1, n - q + 1)


def build_lce(text: Text) -> LceIndex:
    """Build the forward suffix array, LCP array and ranks for a text; the
    forward sparse table follows on the first forward query, the backward
    index on the first backward query."""
    return LceIndex(text)


def lce_forward(idx: LceIndex, p: int, q: int) -> int:
    """Length of the longest common prefix of concat[p..] and concat[q..] (1-based)."""
    return idx.fwd.lce(p, q)


def lce_backward(idx: LceIndex, p: int, q: int) -> int:
    """Length of the longest common suffix of concat[..p] and concat[..q] (1-based)."""
    if idx.bwd is None:
        idx.bwd = SuffixIndex(idx.text.concat[::-1])
    n = idx.n
    return idx.bwd.lce(n - p + 1, n - q + 1)


def lcf0(idx: LceIndex) -> tuple[int, int, int]:
    """Exact longest common substring length with a witness.

    Classical suffix-array method: the optimum is the maximum LCP between
    adjacent suffixes drawn one from s1 and one from s2.  The witness is
    the lexicographically smallest (i1, i2) pair over all optimal matches,
    found by scanning maximal suffix-array runs whose internal LCP stays at
    the optimum.
    """
    n1, n2 = idx.n1, idx.n2
    if n1 == 0 or n2 == 0:
        return 0, 1, 1
    sa = idx.fwd.sa
    lcp = idx.fwd.lcp
    pos = sa  # 0-based position in concat
    in1 = pos < n1
    in2 = (pos > n1) & (pos < n1 + 1 + n2)
    cross = (in1[:-1] & in2[1:]) | (in2[:-1] & in1[1:])
    if not cross.any():
        return 0, 1, 1
    best = int(lcp[1:][cross].max())
    if best == 0:
        return 0, 1, 1
    big = np.int64(1 << 40)
    p1 = np.where(in1, pos + 1, big)
    p2 = np.where(in2, pos - n1, big)
    # segment the SA into runs where consecutive LCP >= best
    splits = np.flatnonzero(lcp < best)  # lcp[0] == 0 < best, so runs cover all
    m1 = np.minimum.reduceat(p1, splits)
    m2 = np.minimum.reduceat(p2, splits)
    valid = np.flatnonzero((m1 < big) & (m2 < big))
    t = valid[argmin_pair(m1[valid], m2[valid])]
    return best, int(m1[t]), int(m2[t])
