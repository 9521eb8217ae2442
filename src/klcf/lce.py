"""Constant-time longest-common-extension queries over a suffix array.

One index is built over the sentinel-separated concatenation and one over
its reverse, giving forward and backward extensions for any pair of
positions.  Construction is O(n log n) (prefix doubling + Kasai + sparse
table); every query is two rank lookups and one range-minimum probe.
"""

from __future__ import annotations

import numpy as np

from .core import Text
from .diagonal import argmin_pair


def _suffix_array(symbols: np.ndarray) -> np.ndarray:
    """Suffix array by prefix doubling (numpy lexsort does the heavy work)."""
    n = len(symbols)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    rank = np.unique(symbols, return_inverse=True)[1].astype(np.int64)
    h = 1
    while True:
        key2 = np.full(n, -1, dtype=np.int64)
        if h < n:
            key2[:n - h] = rank[h:]
        sa = np.lexsort((key2, rank))
        changed = np.empty(n, dtype=np.int64)
        changed[0] = 0
        changed[1:] = (rank[sa[1:]] != rank[sa[:-1]]) | (key2[sa[1:]] != key2[sa[:-1]])
        new_rank = np.empty(n, dtype=np.int64)
        new_rank[sa] = np.cumsum(changed)
        rank = new_rank
        if rank[sa[-1]] == n - 1:
            return sa
        h *= 2


def _lcp_array(seq: np.ndarray, sa: np.ndarray) -> np.ndarray:
    """Kasai LCP array: lcp[i] = LCP of suffixes sa[i-1] and sa[i], lcp[0] = 0."""
    n = len(sa)
    lcp = [0] * n
    if n == 0:
        return np.empty(0, dtype=np.int64)
    rank = [0] * n
    sa_l = sa.tolist()
    for i, p in enumerate(sa_l):
        rank[p] = i
    s = seq.tolist()
    k = 0
    for i in range(n):
        r = rank[i]
        if r == 0:
            k = 0
            continue
        j = sa_l[r - 1]
        while i + k < n and j + k < n and s[i + k] == s[j + k]:
            k += 1
        lcp[r] = k
        if k:
            k -= 1
    return np.asarray(lcp, dtype=np.int64)


class SuffixIndex:
    """Suffix array, inverse ranks and a sparse-table RMQ over the LCP array.

    ``table[g, i]`` is min(lcp[i .. i + 2^g - 1]); row 0 is the LCP array
    itself.  Scalar queries read the same buffers through memoryviews, which
    return Python ints without copying the arrays into lists.
    """

    __slots__ = ("sa", "rank", "table", "floor_log2", "_rank_view",
                 "_row_views", "_log2_view")

    def __init__(self, symbols: np.ndarray):
        symbols = np.asarray(symbols, dtype=np.int64)
        self.sa = _suffix_array(symbols)
        n = len(self.sa)
        self.rank = np.empty(n, dtype=np.int64)
        self.rank[self.sa] = np.arange(n)
        # rows are padded so the levels stack into one matrix
        levels = max(1, n.bit_length())
        table = np.full((levels, max(n, 1)), np.int64(1 << 60))
        table[0, :n] = _lcp_array(symbols, self.sa)
        for g in range(1, levels):
            half = 1 << (g - 1)
            m = n - 2 * half + 1
            np.minimum(table[g - 1, :m], table[g - 1, half:half + m],
                       out=table[g, :m])
        self.table = table
        # floor(log2(x)) for x in [0, n], exact below 2^53; entry 0 is unused
        self.floor_log2 = np.frexp(np.arange(n + 1))[1].astype(np.int64) - 1
        self._rank_view = memoryview(self.rank)
        self._row_views = [memoryview(row) for row in table]
        self._log2_view = memoryview(self.floor_log2)

    @property
    def lcp(self) -> np.ndarray:
        """lcp[i] = LCP of the suffixes at sa[i-1] and sa[i]; lcp[0] = 0."""
        return self.table[0, :len(self.sa)]

    def lce(self, a: int, b: int) -> int:
        """Longest common prefix of the suffixes at 1-based positions a, b."""
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
        r1 = self.rank[p - 1]
        r2 = self.rank[q - 1]
        same = r1 == r2
        lo = np.minimum(r1, r2) + ~same  # equal positions probe [r, r]
        hi = np.maximum(r1, r2)
        g = self.floor_log2[hi - lo + 1]
        res = np.minimum(self.table[g, lo], self.table[g, hi - (1 << g) + 1])
        return np.where(same, len(self.sa) - p + 1, res)


class LceIndex:
    """Forward and backward LCE queries for a Text's concatenation."""

    __slots__ = ("text", "n1", "n2", "n", "symbols", "fwd", "bwd")

    def __init__(self, text: Text):
        self.text = text
        self.n1 = text.n1
        self.n2 = text.n2
        self.n = len(text.concat)
        self.symbols = memoryview(text.concat)  # scalar reads give Python ints
        self.fwd = SuffixIndex(text.concat)
        self.bwd = SuffixIndex(text.concat[::-1])

    def lce_forward_batch(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        return self.fwd.lce_batch(p, q)

    def lce_backward_batch(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        n = self.n
        return self.bwd.lce_batch(n - p + 1, n - q + 1)


def build_lce(text: Text) -> LceIndex:
    """Build the two suffix indexes for a text."""
    return LceIndex(text)


def lce_forward(idx: LceIndex, p: int, q: int) -> int:
    """Length of the longest common prefix of concat[p..] and concat[q..] (1-based)."""
    return idx.fwd.lce(p, q)


def lce_backward(idx: LceIndex, p: int, q: int) -> int:
    """Length of the longest common suffix of concat[..p] and concat[..q] (1-based)."""
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
