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


def _suffix_array(seq: np.ndarray) -> np.ndarray:
    """Suffix array by prefix doubling (numpy lexsort does the heavy work)."""
    n = len(seq)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    rank = np.unique(seq, return_inverse=True)[1].astype(np.int64)
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
    """Suffix array + LCP + sparse-table RMQ over one sequence."""

    __slots__ = ("seq", "sa", "rank", "lcp", "_rank_l", "_table", "_table_np", "_log")

    def __init__(self, seq: np.ndarray):
        self.seq = np.asarray(seq, dtype=np.int64)
        self.sa = _suffix_array(self.seq)
        n = len(self.sa)
        self.rank = np.empty(n, dtype=np.int64)
        self.rank[self.sa] = np.arange(n)
        self.lcp = _lcp_array(self.seq, self.sa)
        self._rank_l = self.rank.tolist()
        # sparse table: level g row i = min(lcp[i .. i+2^g-1]); rows padded so
        # levels stack into one matrix for batched queries
        levels = max(1, n.bit_length())
        big = np.int64(1 << 60)
        table = np.full((levels, max(n, 1)), big, dtype=np.int64)
        if n:
            table[0, :n] = self.lcp
        for g in range(1, levels):
            span = 1 << g
            m = n - span + 1
            if m <= 0:
                break
            np.minimum(table[g - 1, :m], table[g - 1, span // 2:span // 2 + m],
                       out=table[g, :m])
        self._table_np = table
        self._table = [row.tolist() for row in table]
        log = [0] * (n + 1)
        for x in range(2, n + 1):
            log[x] = log[x >> 1] + 1
        self._log = log

    def rmq(self, l: int, r: int) -> int:
        """min(lcp[l .. r]), 0-based inclusive, l <= r."""
        g = self._log[r - l + 1]
        row = self._table[g]
        a = row[l]
        b = row[r - (1 << g) + 1]
        return a if a < b else b


class LceIndex:
    """Forward and backward LCE queries for a Text's concatenation."""

    __slots__ = ("text", "n1", "n2", "n", "fwd", "bwd", "_log_np")

    def __init__(self, text: Text):
        self.text = text
        self.n1 = text.n1
        self.n2 = text.n2
        self.n = len(text.concat)
        self.fwd = SuffixIndex(text.concat)
        self.bwd = SuffixIndex(text.concat[::-1])
        self._log_np = np.asarray(self.fwd._log, dtype=np.int64)

    # -- batched queries (vectorised fancy-indexing), used by the scanners --

    def _batch_rmq(self, si: SuffixIndex, l: np.ndarray, r: np.ndarray) -> np.ndarray:
        g = self._log_np[r - l + 1]
        t = si._table_np
        return np.minimum(t[g, l], t[g, r - (1 << g) + 1])

    def _batch_lce(self, si: SuffixIndex, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        """LCE of suffixes at 1-based positions p, q of si's sequence."""
        eq = p == q
        r1 = si.rank[p - 1]
        r2 = si.rank[q - 1]
        lo = np.minimum(r1, r2) + 1
        hi = np.maximum(r1, r2)
        lo = np.where(eq, 0, lo)
        hi = np.maximum(lo, np.where(eq, 0, hi))
        res = self._batch_rmq(si, lo, hi)
        return np.where(eq, self.n - p + 1, res)

    def lce_forward_batch(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        return self._batch_lce(self.fwd, p, q)

    def lce_backward_batch(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        n = self.n
        return self._batch_lce(self.bwd, n - p + 1, n - q + 1)


def build_lce(text: Text) -> LceIndex:
    """Build the two suffix indexes for a text."""
    return LceIndex(text)


def lce_forward(idx: LceIndex, p: int, q: int) -> int:
    """Length of the longest common prefix of concat[p..] and concat[q..] (1-based)."""
    if p == q:
        return idx.n - p + 1
    rank = idx.fwd._rank_l
    r1 = rank[p - 1]
    r2 = rank[q - 1]
    if r1 > r2:
        r1, r2 = r2, r1
    return idx.fwd.rmq(r1 + 1, r2)


def lce_backward(idx: LceIndex, p: int, q: int) -> int:
    """Length of the longest common suffix of concat[..p] and concat[..q] (1-based)."""
    if p == q:
        return p
    n = idx.n
    rp, rq = n - p + 1, n - q + 1
    rank = idx.bwd._rank_l
    r1 = rank[rp - 1]
    r2 = rank[rq - 1]
    if r1 > r2:
        r1, r2 = r2, r1
    return idx.bwd.rmq(r1 + 1, r2)


def lcf0(idx: LceIndex) -> tuple[int, int, int]:
    """Exact longest common substring length with a witness.

    Classical suffix-array method: the optimum is the maximum LCP between
    adjacent suffixes drawn from the two different sequences.  The witness is
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
