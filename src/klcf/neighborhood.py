"""Existence tests for fixed-length approximate matches via deletion keywords.

Two equal-length substrings are within Hamming distance k exactly when
deleting the same k positions from both leaves equal strings.  For each
delete tuple, every length-j window of both sequences becomes a row of at
most k+1 class ids, one per non-empty run between deleted positions,
packed into one int64 key, and one numpy sort joins the two sides.  The
optimum length is found by searching j over the interval allowed by the
exact-match bounds.

Class ids are read exactly from the forward suffix array (Manber and
Myers, SIAM J. Comput. 1993): two runs of length L are equal strings
exactly when no LCP value below L lies between their ranks, so the ids
are ``cumsum(lcp < L)`` at those ranks, with no hashing and no
confirmation pass.  A join holds O((k+1)(n1+n2)) words whatever C(j, k)
is.
"""

from __future__ import annotations

from math import comb

import numpy as np

from .core import (MatchSpan, ResourceLimitError, Stats, Text, klcf_bounds,
                   make_span, trivial_span)
from .diagonal import argmin_pair
from .lce import LceIndex, lcf0

# Default cap on a probe's neighborhood, C(j, k) * (n1 - j + 1) * (k + 2)
# model words at length j: it bounds the probe's time, not its memory.
DEFAULT_MEM_BUDGET_WORDS = 1 << 24


def _delete_tuples(lo: int, hi: int, k: int):
    """Ascending k-tuples over [lo, hi] in reverse-lexicographic order."""
    if k == 0:
        yield ()
        return
    for first in range(hi - k + 1, lo - 1, -1):
        for rest in _delete_tuples(first + 1, hi, k - 1):
            yield (first, *rest)


def _sorted_runs(key: np.ndarray):
    """(order, new): the permutation that sorts key, and where in sorted
    order a new value starts."""
    order = np.argsort(key)
    ranked = key[order]
    new = np.empty(len(key), bool)
    new[0] = True
    np.not_equal(ranked[1:], ranked[:-1], out=new[1:])
    return order, new


def exists_match_of_length(text: Text, lce: LceIndex, j: int, k: int,
                           mem_budget_words: int = DEFAULT_MEM_BUDGET_WORDS,
                           stats: Stats | None = None) -> MatchSpan | None:
    """The smallest-(i1, i2) span of length j with <= k mismatches, or None.

    Raises ResourceLimitError when the probe's neighborhood,
    C(j, k) * (n1 - j + 1) * (k + 2) words, exceeds ``mem_budget_words``;
    the budget bounds how many keywords a probe enumerates, not the
    memory it holds.
    """
    if j < 1:
        raise ValueError("match length must be >= 1")
    n1, n2 = text.n1, text.n2
    if j > n1 or j > n2:
        return None
    if j <= k:
        # any alignment fits the budget
        return make_span(text, j, 1, 1)
    m1, m2 = n1 - j + 1, n2 - j + 1
    charge = comb(j, k) * m1 * (k + 2)
    if charge > mem_budget_words:
        raise ResourceLimitError(
            f"deletion neighborhood at j={j}, k={k} needs about {charge} "
            f"words (budget {mem_budget_words})")
    if stats is not None:
        stats.keywords_generated += comb(j, k) * (m1 + m2)
    # 0-based concat starts of every window: s1's, then s2's
    starts = np.concatenate([np.arange(m1), np.arange(n1 + 1, n1 + 1 + m2)])
    big = np.int64(1 << 40)
    p1 = np.where(starts < n1, starts + 1, big)
    p2 = np.where(starts > n1, starts - n1, big)
    lcp, rank = lce.fwd.lcp, lce.fwd.rank
    width = len(lcp) + 1  # < 2^31 (lce.MAX_SYMBOLS), so width^2 fits int64
    best = None
    for deletes in _delete_tuples(1, j, k):
        keys = []
        prev = 0
        for d in (*deletes, j + 1):
            if d - prev > 1:
                # equal strings of length d - prev - 1 share a class id
                keys.append(np.cumsum(lcp < d - prev - 1)[rank[starts + prev]])
            prev = d
        # pack the row into one key, a run at a time; class ids and ranks
        # among the rows are below `width`, so each packed pair is exact
        key = keys[0]
        for i, nxt in enumerate(keys[1:]):
            if i:  # a packed pair: replace it by its rank among the rows
                order, new = _sorted_runs(key)
                key = np.empty_like(key)
                key[order] = np.cumsum(new)
            key = key * width + nxt
        order, new = _sorted_runs(key)
        heads = np.flatnonzero(new)
        g1 = np.minimum.reduceat(p1[order], heads)
        g2 = np.minimum.reduceat(p2[order], heads)
        both = np.flatnonzero((g1 < big) & (g2 < big))
        if len(both):
            t = both[argmin_pair(g1[both], g2[both])]
            pair = (int(g1[t]), int(g2[t]))
            if best is None or pair < best:
                best = pair
    return None if best is None else make_span(text, j, *best)


def klcf_neighborhood(text: Text, lce: LceIndex, k: int,
                      mem_budget_words: int = DEFAULT_MEM_BUDGET_WORDS,
                      stats: Stats | None = None) -> MatchSpan:
    """Exact optimum by searching the smallest j with no length-j match.

    The existence predicate is monotone, so the search keeps a verified
    witness at the largest known-true j and narrows to the first false one.
    Probing starts next to the lower bound and grows exponentially before
    bisecting, which keeps each probe's neighborhood near what the answer
    itself requires; a probe whose neighborhood would not fit the budget
    raises ResourceLimitError.  The witness is the smallest (i1, i2) among
    the optimal windows.
    """
    n1, n2 = text.n1, text.n2
    ell0, w1, w2 = lcf0(lce)
    if ell0 == 0:
        return trivial_span(text, k)
    lower, upper = klcf_bounds(ell0, k, n1, n2)
    if lower == ell0:
        best = MatchSpan(ell0, w1, w2, ())
    else:
        best = make_span(text, lower, 1, 1)  # lower = min(n1, n2, k)
    if stats is None:
        stats = Stats()

    def probe(j: int) -> MatchSpan | None:
        stats.probes.append(j)
        return exists_match_of_length(text, lce, j, k, mem_budget_words, stats)

    # gallop upward from the lower bound
    lo, hi = lower, upper + 1  # P(lo) true with witness `best`; P(hi) false
    step = 1
    while lo + step <= upper:
        span = probe(lo + step)
        if span is None:
            hi = lo + step
            break
        best = span
        lo = lo + step
        step *= 2
    # bisect the remaining gap
    while hi - lo > 1:
        mid = (lo + hi) // 2
        span = probe(mid)
        if span is None:
            hi = mid
        else:
            best = span
            lo = mid
    if lo == ell0 and k > 0:
        # lcf0's seed is the smallest exact match, not the smallest within k
        best = probe(ell0)
    return best
