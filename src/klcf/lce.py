"""Constant-time longest-common-extension queries over a suffix array.

The forward index over the sentinel-separated concatenation keeps its
suffix array, LCP array and inverse ranks eagerly, each as int32, because
``lcf0`` and neighborhood read them.  Its sparse table is built by the
first forward query.  The backward index, over the reversed
concatenation, is built whole by the first backward query.  Paths that
make no LCE query (``lcf0`` alone, the diagonal scan, tabulation,
neighborhood, strided with no pass) hold 12 bytes per symbol and never
pay for a table.

Construction is O(n log n) numpy.  The first q symbols of every suffix
are packed into an int64 key and shifted left past the suffix's position,
which fills the low bits; one in-place sort of those words groups the
suffixes by their q-grams and orders each group by position.  q is as
many symbols as fit in 52 bits beside the position: on DNA 17 up to 2^11
symbols and 13 at 2^20 a side, on protein 10 and 8.  Each later round doubles
the compared length and re-sorts only the suffixes whose groups are
still tied (Larsson and Sadakane, TCS 2007), keeping its ranks as int32;
the last round's ranks are the inverse suffix array.  Two adjacent
suffixes with different q-grams get their LCP from the xor of their
words.  A pair with equal q-grams descends the kept rounds, as in Manber
and Myers (SIAM J. Comput. 1993), then finishes on the q-grams at its
offsets: gathered there, q symbols each, when fewer than n / q pairs
tie, and otherwise rebuilt for the whole text, 8 more bytes per symbol
beside the kept rounds.  Random DNA ties few pairs, so its build keeps
12 bytes per symbol and peaks in the first sort, measured with
tracemalloc at 16.3 bytes per symbol at 2^20 symbols a side and 19.0 at
2^16, where one chunk's LCP temporaries add 3.  A 150-symbol read against
a 263k-symbol random reference peaks at 20.1, from two rounds kept as
whole int32 copies of the ranks; a unary text, which keeps about
log2(n / q) rounds, peaks near 95.  A sparse table over the LCP array
answers every query with two rank lookups and one range-minimum probe.
Queries come in numpy batches;
``lce_forward`` and ``lce_backward`` are size-1 batches that check their
positions.
"""

from __future__ import annotations

import numpy as np

from .core import Text
from .diagonal import argmin_pair

# Ranks are stored as int32, and each refinement round sorts the key
# rank * (n + 1) + next < n^2 + n, exact in int64 for n < 2^31.
MAX_SYMBOLS = (1 << 31) - 1
# The first sort packs q symbols of f bits each into one int64 key, with
# q * f at most GRAM_BITS, so a key and the xor of two are exact float64s.
GRAM_BITS = 52
# It sorts each key shifted left past its suffix's position, so q * f plus
# the positions' bit length is at most WORD_BITS: the word stays positive.
WORD_BITS = 63
# keys packed, or adjacent pairs' LCPs computed, at a time, so that no
# temporary of those steps spans the text
CHUNK = 1 << 14


def _fields(symbols: np.ndarray) -> tuple[int, int]:
    """(shift, f): symbol x is packed into the q-grams as the f-bit field
    x - shift, in [1, 2^f), so 0 can pad past the end.

    Symbols are shifted by their minimum, so f <= b + 1, b the bit length
    of n - 1; a value range n or more wide raises ValueError (a Text's
    concatenation spans sigma + 2 < n values).
    """
    n = len(symbols)
    lo, hi = int(symbols.min()), int(symbols.max())
    if hi - lo >= n:
        raise ValueError(f"symbol range [{lo}, {hi}] is not below n = {n}")
    return lo - 1, (hi - lo + 1).bit_length()


def _gram_keys(symbols: np.ndarray) -> tuple[np.ndarray, int, int, int]:
    """(key, q, f, shift): key[i] packs the q symbols from i, each as its
    f-bit field (``_fields``), the first in the high bits; 0 pads past the
    end, and key[n] = 0.

    q is min(GRAM_BITS, WORD_BITS - b) // f, b the bit length of n - 1,
    so that a key shifted left by b bits takes its position in those bits;
    f <= b + 1, so q >= 1.
    """
    n = len(symbols)
    shift, f = _fields(symbols)
    q = min(GRAM_BITS, WORD_BITS - (n - 1).bit_length()) // f
    key = np.zeros(n + 1, np.int64)
    np.subtract(symbols, shift, out=key[:n], dtype=np.int64)
    # extension, in place, from w symbols to w + d, d = min(w, q - w): once
    # every key is shifted left by d symbols, key[i + w] >> w f is the first
    # d symbols of the old key[i + w], and fills key[i]'s low bits;
    # ascending chunks read each such key before its own fill
    w = 1
    while w < q:
        d = min(w, q - w)
        key <<= d * f
        for a in range(0, n + 1 - w, CHUNK):
            b = min(a + CHUNK, n + 1 - w)
            key[a:b] |= key[a + w:b + w] >> w * f
        w += d
    return key, q, f, shift


def _grams_at(symbols: np.ndarray, at: np.ndarray, q: int, f: int,
              shift: int) -> np.ndarray:
    """key[at] of ``_gram_keys``, for int64 positions at <= n, gathered
    from the q symbols at each instead of packed for the whole text."""
    n = len(symbols)
    key = np.zeros(len(at), np.int64)
    sym = np.empty(len(at), np.int64)
    for j in range(q):
        # a position past the end reads symbols[n - 1], cut below
        np.subtract(np.take(symbols, at + j, mode="clip"), shift, out=sym,
                    dtype=np.int64)
        key <<= f
        key |= sym
    cut = np.maximum(at + q - n, 0) * f
    key >>= cut
    key <<= cut
    return key


def _gram_lcp(xor: np.ndarray, q: int, f: int) -> np.ndarray:
    """LCP of two packed q-grams from their xor, q where they are equal:
    the xor's leading set bit falls in the first differing symbol's f-bit
    field, and np.frexp gives its bit length exactly."""
    return (q * f - np.frexp(xor)[1]) // f


def _suffix_array_lcp(symbols: np.ndarray) -> tuple[np.ndarray, np.ndarray,
                                                    np.ndarray]:
    """Suffix array, LCP array (lcp[i] = LCP of the suffixes at sa[i-1]
    and sa[i], lcp[0] = 0) and ranks (rank[sa[i]] = i), all int32.

    The first sort is one in-place value sort of int64 words, each the
    packed q-gram of a suffix (``_gram_keys``) shifted left by b bits, b
    the bit length of n - 1, with the suffix's position in those b bits.
    The sorted words' low bits are the suffix array, ordered by q-gram and
    then by position, and an adjacent pair's LCP, where their q-grams
    differ, comes from the xor of its two words.  A suffix's rank is the
    SA index of its q-gram group's first suffix, so ranks keep the order
    and become the inverse suffix array once every group is a singleton;
    only the tied suffixes' ranks differ from their own SA index, and
    their groups start where their LCPs are below q.
    From h = q, each round sorts only the suffixes of groups still tied,
    by (rank[i], rank[i + h]), and doubles h (Larsson and Sadakane, TCS
    2007).  ``rounds[t - 1][i]`` ranks the suffix at i by its first
    q * 2^t symbols, for every round t but the last, whose ranks are the
    result; ``rounds[t - 1][n]`` is -1, so an offset that runs off the
    end never matches.

    A pair in one q-gram group descends the kept rounds as in Manber and
    Myers (SIAM J. Comput. 1993), by q * 2^t symbols wherever its round-t
    ranks are equal.  It finishes on the q-grams at its offsets: by q
    more symbols where they are equal, as their first-sort ranks would be,
    then by the xor of the q-grams there.  When fewer than n / q adjacent
    pairs tie, their SA indices are kept from the first sort and their
    q-grams gathered at those offsets (``_grams_at``); otherwise every
    q-gram is rebuilt once the rounds are done, and the pairs are found
    again where lcp is q.
    """
    n = len(symbols)
    if n > MAX_SYMBOLS:
        raise ValueError(f"LCE index supports at most {MAX_SYMBOLS} symbols, got {n}")
    if n == 0:
        return (np.empty(0, np.int32),) * 3
    key, q, f, shift = _gram_keys(symbols)
    bits = (n - 1).bit_length()
    word = key[:n]
    word <<= bits
    for a in range(0, n, CHUNK):
        word[a:a + CHUNK] |= np.arange(a, min(a + CHUNK, n))
    word.sort()
    sa = np.empty(n, np.int32)
    for a in range(0, n, CHUNK):
        sa[a:a + CHUNK] = word[a:a + CHUNK] & (1 << bits) - 1
    lcp = np.empty(n, np.int32)
    lcp[0] = 0
    for a in range(1, n, CHUNK):
        b = min(a + CHUNK, n)
        xor = word[a - 1:b - 1] ^ word[a:b]
        xor >>= bits
        lcp[a:b] = _gram_lcp(xor, q, f)
    del key, word
    # tied[i]: sa[i] has the q-gram of sa[i-1]
    tied = lcp == q
    # few tied pairs finish on q-grams gathered at their offsets, so their
    # SA indices are kept, as int32; many rebuild every q-gram instead
    pairs = None
    if np.count_nonzero(tied) * q < n:
        pairs = np.flatnonzero(tied).astype(np.int32)
    tied[:-1] |= tied[1:]  # now: sa[i] shares its group
    # the tied suffixes' SA indices, group starts and positions; positions
    # are int64, which numpy indexes with no conversion.  A group starts at
    # its first SA index: a singleton's own, a tied suffix's the last one
    # whose lcp is below q
    pos = np.flatnonzero(tied).astype(np.int32)
    del tied
    grp = np.where(lcp[pos] == q, 0, pos)
    np.maximum.accumulate(grp, out=grp)
    start = np.arange(n, dtype=np.int32)
    start[pos] = grp
    rank = np.empty(n + 1, np.int32)
    rank[n] = -1
    rank[sa] = start
    del start
    sub = sa[pos].astype(np.int64)
    rounds = []
    h = q
    while len(pos):
        # a settled suffix may be shorter than h; clipping reads rank[n]
        ranked = np.multiply(grp, n + 1, dtype=np.int64)
        ranked += np.take(rank[h:], sub, mode="clip")
        order = np.argsort(ranked)
        ranked = ranked[order]
        sub = sub[order]
        del order
        new = np.empty(len(pos), bool)
        new[0] = True
        np.not_equal(ranked[1:], ranked[:-1], out=new[1:])
        del ranked
        grp = np.where(new, pos, 0)
        np.maximum.accumulate(grp, out=grp)
        # the first sort's ranks are refined in place: the descent finishes
        # on q-grams instead
        if h > q:
            rounds.append(rank)
            rank = rank.copy()
        rank[sub] = grp
        h *= 2
        new[:-1] &= new[1:]  # now: a group of its own, settled
        # settled suffixes leave once they are a sixteenth of those sorted;
        # until then they sort alone in their groups, which costs less than
        # compacting every round on texts that settle a few at a time
        if 16 * np.count_nonzero(new) >= len(pos):
            sa[pos[new]] = sub[new]
            np.logical_not(new, out=new)
            pos, grp, sub = pos[new], grp[new], sub[new]
    if h == q:  # no q-gram group was tied
        return sa, lcp, rank[:n]
    # pairs in one q-gram group: LCP >= q, left at q above
    if pairs is not None:
        chunks = (pairs[a:a + CHUNK] for a in range(0, len(pairs), CHUNK))

        def grams(at):
            return _grams_at(symbols, at, q, f, shift)
    else:
        grams = _gram_keys(symbols)[0].__getitem__
        # read lazily: a chunk's pairs are found before their LCPs are set
        chunks = (a + np.flatnonzero(lcp[a:a + CHUNK] == q)
                  for a in range(1, n, CHUNK))
    for i in chunks:
        if len(i) == 0:
            continue
        p, r = sa[i - 1].astype(np.int64), sa[i].astype(np.int64)
        ext = np.zeros(len(i), np.int32)
        for t in range(len(rounds), 0, -1):
            ranks = rounds[t - 1]
            ext += (ranks[p + ext] == ranks[r + ext]) * np.int32(q << t)
        xor = grams(p + ext) ^ grams(r + ext)
        # equal q-grams, as equal first-sort ranks would be: q symbols on
        tie = np.flatnonzero(xor == 0)
        ext[tie] += q
        xor[tie] = grams(p[tie] + ext[tie]) ^ grams(r[tie] + ext[tie])
        lcp[i] = ext + _gram_lcp(xor, q, f)
    return sa, lcp, rank[:n]


class SuffixIndex:
    """Suffix array, LCP array and inverse ranks, plus a sparse-table RMQ
    over the LCP array.

    ``sa``, ``lcp`` and ``rank`` are int32 and built eagerly: 12 bytes per
    symbol.  ``table`` is None until the first query builds it.
    ``table[g, i]`` is min(lcp[i .. i + 2^g - 1]), int32, one row per level;
    row 0 is the LCP array itself, which ``lcp`` then views, so the table
    adds (levels - 1) * 4 bytes per symbol.  Every query goes through
    ``lce_batch``.
    """

    __slots__ = ("sa", "lcp", "rank", "table")

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
        self.table = table

    def lce_batch(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        """Longest common prefix of the suffixes at 1-based positions p[i]
        and q[i], for every i; positions are not checked."""
        if self.table is None:
            self._build_table()
        r1 = self.rank[p - 1]
        r2 = self.rank[q - 1]
        same = r1 == r2
        lo = np.minimum(r1, r2) + ~same  # equal positions probe [r, r]
        hi = np.maximum(r1, r2)
        # floor(log2) of the range's size, exact below 2^53
        g = np.frexp(hi - lo + 1)[1] - 1
        res = np.minimum(self.table[g, lo], self.table[g, hi - (1 << g) + 1])
        return np.where(same, len(self.sa) - p + 1, res)  # int64, as p is


class LceIndex:
    """Forward and backward LCE queries for a Text's concatenation."""

    __slots__ = ("text", "n1", "n2", "n", "fwd", "bwd", "exact")

    def __init__(self, text: Text):
        self.text = text
        self.n1 = text.n1
        self.n2 = text.n2
        self.n = len(text.concat)
        self.fwd = SuffixIndex(text.concat)
        self.bwd = None  # built by the first backward query
        self.exact = None  # lcf0's answer, found by its first call

    def lce_forward_batch(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        return self.fwd.lce_batch(p, q)

    def backward(self) -> SuffixIndex:
        """The backward index, built by the first call."""
        if self.bwd is None:
            self.bwd = SuffixIndex(self.text.concat[::-1])
        return self.bwd

    def lce_backward_batch(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        return self.backward().lce_batch(self.n - p + 1, self.n - q + 1)


def build_lce(text: Text) -> LceIndex:
    """Build the forward suffix array, LCP array and ranks for a text; the
    forward sparse table follows on the first forward query, the backward
    index on the first backward query."""
    return LceIndex(text)


def _check_positions(idx: LceIndex, p: int, q: int) -> None:
    for x in (p, q):
        if not 1 <= x <= idx.n:
            raise ValueError(f"LCE positions are in [1, {idx.n}], got {x}")


def lce_forward(idx: LceIndex, p: int, q: int) -> int:
    """Length of the longest common prefix of concat[p..] and concat[q..] (1-based)."""
    _check_positions(idx, p, q)
    return int(idx.lce_forward_batch(np.array([p]), np.array([q]))[0])


def lce_backward(idx: LceIndex, p: int, q: int) -> int:
    """Length of the longest common suffix of concat[..p] and concat[..q] (1-based)."""
    _check_positions(idx, p, q)
    return int(idx.lce_backward_batch(np.array([p]), np.array([q]))[0])


def cross_runs(idx: LceIndex, t: int) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi): the forward SA ranges [lo, hi) of the maximal runs whose
    adjacent LCPs are all >= t (t >= 1), that hold a suffix of s1 and one
    of s2.  Every two suffixes of such a run share their first t symbols.

    A separator suffix shares no symbol with its neighbours, so it is in no
    run, and a run holds both sides exactly when two adjacent suffixes in
    it come from different sides.  Only the SA indices with lcp >= t are
    gathered, so a high threshold touches few.
    """
    sa, lcp, n1 = idx.fwd.sa, idx.fwd.lcp, idx.n1
    inner = np.flatnonzero(lcp >= t)  # i: sa[i-1] and sa[i] share t symbols
    if len(inner) == 0:
        return inner, inner
    first = np.empty(len(inner), bool)  # inner[j] opens a run
    first[0] = True
    np.not_equal(inner[1:], inner[:-1] + 1, out=first[1:])
    opens = np.flatnonzero(first)
    cross = (sa[inner] < n1) != (sa[inner - 1] < n1)
    both = np.logical_or.reduceat(cross, opens)
    lo = inner[opens] - 1
    hi = np.append(inner[opens[1:] - 1], inner[-1]) + 1
    return lo[both], hi[both]


def lcf0(idx: LceIndex) -> tuple[int, int, int]:
    """Exact longest common substring length with a witness, kept on idx.

    Classical suffix-array method: the optimum is the maximum LCP between
    adjacent suffixes drawn one from s1 and one from s2.  The witness is
    the lexicographically smallest (i1, i2) pair over all optimal matches,
    found in the SA runs whose internal LCP stays at the optimum
    (``cross_runs``); only their suffixes are read.
    """
    if idx.exact is None:
        idx.exact = _lcf0(idx)
    return idx.exact


def _lcf0(idx: LceIndex) -> tuple[int, int, int]:
    n1, n2 = idx.n1, idx.n2
    if n1 == 0 or n2 == 0:
        return 0, 1, 1
    sa, lcp = idx.fwd.sa, idx.fwd.lcp
    # a pair with a separator suffix crosses sides too, at LCP 0
    in1 = sa < n1
    best = int(np.max(lcp[1:], where=in1[1:] != in1[:-1], initial=0))
    del in1
    if best == 0:
        return 0, 1, 1
    lo, hi = cross_runs(idx, best)
    size = hi - lo
    offsets = np.cumsum(size) - size
    members = np.arange(int(size.sum())) + np.repeat(lo - offsets, size)
    pos = sa[members].astype(np.int64)
    big = np.int64(1 << 40)
    m1 = np.minimum.reduceat(np.where(pos < n1, pos + 1, big), offsets)
    m2 = np.minimum.reduceat(np.where(pos > n1, pos - n1, big), offsets)
    t = argmin_pair(m1, m2)
    return best, int(m1[t]), int(m2[t])
