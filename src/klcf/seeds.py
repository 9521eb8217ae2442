"""Seed-and-extend: the exact optimum from the exact runs a long window holds.

A window of length L >= B with at most k mismatches splits into at most
k + 1 exact runs, so one of them is at least m = max(1, ceil((B-k)/(k+1)))
long, the pigeonhole behind ``klcf_bounds``.  A longest window starts at a
sequence start or right after a mismatch, so the maximal exact run holding
that m-run starts inside it, at a left-maximal cross pair: a suffix of s1
and one of s2 that share m symbols and are preceded by different symbols.
A sequence start is preceded by a separator (s1's by the last symbol of the
concatenation, s2's by the first separator) that no suffix of the other
side shares, so starts need no case of their own.  The pairs are the cross
pairs of the forward SA runs at threshold m (``cross_runs``) less those
with equal preceding symbols, and ``seed_price`` counts them before any is
enumerated: c1*c2 - sum_a c1[a]*c2[a] per run.  The helpers that read the
runs (``_groups``, ``seed_price``, ``_pairs``) take their (lo, hi) bounds
and never walk the LCP array themselves.

``purchase`` hands the pairs' seed cells, in budgeted chunks, to
``best_in_strips`` with U = min(n1, n2, (k+1)*l0 + k), the longest a
window can be, and floor B; ``diagonal`` owns the strips.  Every optimal
window holds a seed cell and is at most U long, so it lies in that cell's
strip, and the smallest starts right after a mismatch or at its
diagonal's start, where the sliding window looks; every window found is
real.  No LCE query is made, so neither the forward sparse table nor the
backward index is built.  Cf. Charalampopoulos et al. (CPM 2018).

Seeds pay off only below the quadratic bound, so ``purchase`` prices them
before any pair is extended, in cells of the exhaustive scan, and buys
the cheaper of seeds and the scan.  It walks the SA runs once, at B's m:
the price counts their pairs, and the seeds it buys expand those same
pairs, even after ``strided``'s passes have raised the floor, as the
pairs at m include those at any higher threshold.  ``klcf_seeds`` makes
that purchase at once; ``strided`` rents passes against its price first.
"""

from __future__ import annotations

import numpy as np

from .core import MatchSpan, Text, better_span, klcf_bounds, make_span, trivial_span
from .diagonal import best_in_strips, klcf_diagonal_scan
from .lce import LceIndex, cross_runs, lcf0

# suffixes grouped per batch of SA runs, and seed pairs per chunk
SEED_BUDGET = 1 << 14
# cost of one cell of a seed row, in cells of the exhaustive scan.  Measured
# on a 2-core Xeon with Python 3.11 and numpy 2.4: 2-5 ns per row cell on
# 39-107-cell strips (random, k 2 and 4, n 3072 and 16384, sigma 4 and 20)
# against 0.7-2.0 ns per scanned cell of those pairs, but 17-24 ns on
# 17-cell strips (k 1: sigma 20, n 1024, and sigma 64, n 8192) against
# 1.0-3.3 ns, so narrow strips are priced low.  A wrong value costs time,
# never exactness.
SEED_CELL_COST = 8


def seed_floor(text: Text, k: int, ell0: int, w1: int, w2: int) -> int:
    """B, a window length known to exist after ``lcf0`` gave (ell0, w1, w2):
    the exact match, or ell0 + k cells of its diagonal if that is as long.

    min(l0 + k, n1, n2) would not do: s1 = baaba, s2 = abbaab, k = 1 has
    l0 = l1 = 4 < 5.
    """
    diagonal = min(w1, w2) + min(text.n1 - w1, text.n2 - w2)
    return max(ell0, min(ell0 + k, diagonal))


def run_length(floor: int, k: int) -> int:
    """m: every window of at least ``floor`` cells with at most k
    mismatches that holds a match holds an exact run of m cells."""
    return max(1, -(-(floor - k) // (k + 1)))


def _groups(text: Text, lce: LceIndex, runs, limit: float | None = None):
    """Yield (key, pos, in1) per batch of ``runs``, the (lo, hi) bounds of
    the SA runs at a threshold that hold both sides (``cross_runs``), at
    most SEED_BUDGET suffixes a batch (a larger run makes a batch of its
    own).  Given a pair ``limit``, the first batch ends at the first run by
    which the runs' pairs could pass it, and the budget doubles from there,
    so a count stops near its limit.

    pos holds the batch's suffixes as 0-based concat positions, in1 marks
    those of s1, and key is (run in the batch) * (sigma + 2) + preceding
    symbol, sorted ascending.
    """
    lo, hi = runs
    size = hi - lo
    end = np.cumsum(size)
    sa, concat = lce.fwd.sa, text.concat
    width = text.sigma + 2  # preceding symbols, the two separators included
    budget = SEED_BUDGET
    if limit is not None:
        # a run of c suffixes holds at most c*c // 4 cross pairs
        first = np.searchsorted(np.cumsum(size * size // 4), limit, side="right")
        budget = min(budget, int(np.append(end, budget)[first]))
    a = 0
    while a < len(lo):
        b = max(a + 1, int(np.searchsorted(end, end[a] - size[a] + budget,
                                           side="right")))
        sz = size[a:b]
        off = np.cumsum(sz) - sz
        members = np.arange(int(sz.sum())) + np.repeat(lo[a:b] - off, sz)
        pos = sa[members].astype(np.int64)
        # s1's first suffix reads concat[-1], the second separator
        key = np.repeat(np.arange(b - a, dtype=np.int64) * width, sz)
        key += concat[pos - 1]
        order = np.argsort(key)
        pos = pos[order]
        yield key[order], pos, pos < text.n1
        a, budget = b, min(2 * budget, SEED_BUDGET)


def seed_price(text: Text, lce: LceIndex, runs, limit: float | None = None) -> int:
    """Left-maximal cross pairs of ``runs`` (as ``_groups``), counted
    without enumerating them: c1*c2 - sum_a c1[a]*c2[a] per run, over the
    preceding symbol a.  Counting stops once the count passes ``limit``."""
    width = text.sigma + 2
    pairs = 0
    for key, _, in1 in _groups(text, lce, runs, limit):
        # c1[a] and c2[a] per (run, a), then c1 and c2 per run
        cut = np.flatnonzero(np.diff(key, prepend=-1))
        c1 = np.add.reduceat(in1, cut, dtype=np.int64)
        c2 = np.diff(cut, append=len(key)) - c1
        run = key[cut] // width
        cut = np.flatnonzero(np.diff(run, prepend=-1))
        pairs += int(np.add.reduceat(c1, cut) @ np.add.reduceat(c2, cut) - c1 @ c2)
        if limit is not None and pairs > limit:
            break
    return pairs


def _pairs(text: Text, lce: LceIndex, runs):
    """Left-maximal cross pairs of ``runs`` (as ``_groups``) as (p1, p2)
    chunks of at most ``SEED_BUDGET`` pairs, 0-based positions in s1 and
    s2."""
    width = text.sigma + 2
    for key, pos, in1 in _groups(text, lce, runs):
        key1, p1 = key[in1], pos[in1]
        key2, p2 = key[~in1], pos[~in1] - (text.n1 + 1)
        # p1[j] pairs with the s2 suffixes of its run, key2 in
        # [run, run + width), but for those with its preceding symbol
        run = key1 - key1 % width
        src = np.concatenate([p1, p1])
        start = np.concatenate([np.searchsorted(key2, run),
                                np.searchsorted(key2, key1, side="right")])
        size = np.concatenate([np.searchsorted(key2, key1),
                               np.searchsorted(key2, run + width)]) - start
        keep = size > 0
        src, start, size = src[keep], start[keep], size[keep]
        end = np.cumsum(size)
        total = int(end[-1]) if len(end) else 0
        for lo in range(0, total, SEED_BUDGET):
            at = np.arange(lo, min(lo + SEED_BUDGET, total), dtype=np.int64)
            j = np.searchsorted(end, at, side="right")
            yield src[j], p2[start[j] + at - (end[j] - size[j])]


def purchase(text: Text, lce: LceIndex, k: int):
    """(best, price, buy): the exact match and the seeds-or-scan purchase,
    priced once, from one walk of the SA runs.

    best is ``lcf0``'s exact match, or ``trivial_span``'s when the sides
    share no symbol; buy is None when best is already the optimum (no
    shared symbol, or k = 0).  Otherwise buy(floor, stats), given a window
    of floor >= 1 cells, returns the longest window of at least max(floor,
    B) cells, B = ``seed_floor``: by seeds when pairs * (2U - 1) *
    SEED_CELL_COST, pairs being ``seed_price`` at B and 2U - 1 a strip's
    row, is below the scan's n1*n2 cells, and by the exhaustive scan
    otherwise.  price is the cheaper of the two, in scan cells.  Seeds
    search the strips of the left-maximal pairs (``best_in_strips``, whose
    counters ``stats`` are), or fall back to ``trivial_span``'s, which
    covers optima of at most k (they need hold no exact run).

    The runs at m = ``run_length(B, k)`` are walked once (``cross_runs``),
    and buy's seeds expand the pairs of those runs, the pairs priced: a
    floor above B only raises the window length kept, since the pairs at
    m include every left-maximal pair at a higher threshold.  Until buy,
    only the runs' (lo, hi) bounds are held, two int64s a run, and each
    run holds a suffix of each side, so at most 16 min(n1, n2) bytes.
    When the scan is bought, no run is held.
    """
    ell0, w1, w2 = lcf0(lce)
    if ell0 == 0:  # an empty side included
        return trivial_span(text, k), 0, None
    best = MatchSpan(ell0, w1, w2, ())
    if k == 0:
        return best, 0, None
    # with k > 0 the exact-match witness may tie the optimum (l0 = min(n1,
    # n2)) without being the smallest witness, so the purchase still runs
    least = seed_floor(text, k, ell0, w1, w2)
    runs = cross_runs(lce, run_length(least, k))
    scan = text.n1 * text.n2
    u = klcf_bounds(ell0, k, text.n1, text.n2)[1]
    per_pair = (2 * u - 1) * SEED_CELL_COST
    seeds = per_pair * seed_price(text, lce, runs, scan / per_pair)
    if seeds >= scan:
        return best, scan, (lambda floor, stats:
                            klcf_diagonal_scan(text, k, max(floor, least), stats))

    def buy(floor: int, stats) -> MatchSpan:
        found = best_in_strips(trivial_span(text, k), text, _pairs(text, lce, runs),
                               u, k, max(floor, least), stats)
        return make_span(text, found.length, found.i1, found.i2)

    return best, seeds, buy


def klcf_seeds(text: Text, lce: LceIndex, k: int, stats=None) -> MatchSpan:
    """Exact optimum and its lexicographically smallest witness by the
    cheaper of seed-and-extend and the exhaustive scan at B =
    ``seed_floor`` (``purchase``).  The exact match settles k = 0.
    """
    best, _, buy = purchase(text, lce, k)
    return best if buy is None else better_span(best, buy(best.length, stats))
