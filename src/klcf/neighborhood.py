"""Existence tests for fixed-length approximate matches via deletion keywords.

Two equal-length substrings are within Hamming distance k exactly when
deleting the same k positions from both leaves equal strings.  Indexing
every k-deletion of every window of s1 therefore turns "is there a match of
length j" into sorted-array lookups, and the optimum length is found by
searching j over the interval allowed by the exact-match bounds.

Keywords are never materialised: each one is its source position plus the
delete tuple, and comparisons run segment-by-segment with O(k) LCE queries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cmp_to_key
from itertools import combinations
from math import comb, sqrt
from typing import NamedTuple

from .core import (MatchSpan, ResourceLimitError, Text, klcf_bounds, make_span,
                   trivial_span)
from .lce import LceIndex, lcf0

# Budget unit: one model word of keyword storage, i.e. N_keywords * (k + 2)
# is charged against this.  Interpreter-level object overhead multiplies the
# real footprint by roughly an order of magnitude, so the default admits
# indexes up to a few million keywords; raise it explicitly for bigger runs.
DEFAULT_MEM_BUDGET_WORDS = 1 << 24


class Keyword(NamedTuple):
    """One deletion-neighborhood element in O(k) space."""

    src_seq: int               # 1 or 2
    src_start: int             # 1-based start of the length-j source window
    j: int                     # source length
    deletes: tuple[int, ...]   # k strictly increasing positions in [1, j]


@dataclass
class KeywordIndex:
    """Sorted keywords of all length-j windows starting inside one piece of s1.

    ``groups`` maps each delete tuple to its [lo, hi) slice of ``entries``
    so lookups settle the primary key with one hash probe.
    """

    piece: tuple[int, int]
    j: int
    k: int
    entries: list[Keyword]
    count: int
    groups: dict


@dataclass
class NeighborhoodStats:
    keywords_generated: int = 0
    indexes_built: int = 0
    probes: list = field(default_factory=list)


def _delete_tuples(lo: int, hi: int, k: int):
    """Ascending k-tuples over [lo, hi] in reverse-lexicographic order."""
    if k == 0:
        yield ()
        return
    for first in range(hi - k + 1, lo - 1, -1):
        for rest in _delete_tuples(first + 1, hi, k - 1):
            yield (first, *rest)


def enumerate_neighborhood(seq_id: int, start: int, j: int, k: int):
    """All C(j, k) keywords of one source window, in canonical order."""
    if k > j:
        raise ValueError(f"cannot delete {k} positions from a window of length {j}")
    for deletes in _delete_tuples(1, j, k):
        yield Keyword(seq_id, start, j, deletes)


def _concat_pos(lce: LceIndex, kw: Keyword) -> int:
    return kw.src_start if kw.src_seq == 1 else lce.n1 + 1 + kw.src_start


def _content_cmp(lce: LceIndex, pa: int, pb: int, j: int,
                 deletes: tuple[int, ...]) -> int:
    """Compare two keyword strings with identical delete tuples, run by run."""
    if pa == pb:
        return 0
    symbols = lce.symbols
    ext_at = lce.fwd.lce
    prev = 0
    for d in (*deletes, j + 1):
        seg_len = d - prev - 1
        if seg_len > 0:
            oa = pa + prev
            ob = pb + prev
            ext = ext_at(oa, ob)
            if ext < seg_len:
                ca = symbols[oa - 1 + ext]
                cb = symbols[ob - 1 + ext]
                return -1 if ca < cb else 1
        prev = d
    return 0


def keyword_order(lce: LceIndex, a: Keyword, b: Keyword) -> int:
    """Total order: delete tuple first, then keyword content; returns -1/0/1.

    Content is only compared between equal delete tuples, where the k+1 runs
    between deleted positions align exactly, so each run is settled by one
    forward extension query.
    """
    if a.j != b.j or len(a.deletes) != len(b.deletes):
        raise ValueError("keywords from different (j, k) regimes are not comparable")
    if a.deletes != b.deletes:
        return -1 if a.deletes < b.deletes else 1
    return _content_cmp(lce, _concat_pos(lce, a), _concat_pos(lce, b),
                        a.j, a.deletes)


def build_index(text: Text, lce: LceIndex, piece: tuple[int, int], j: int, k: int,
                mem_budget_words: int = DEFAULT_MEM_BUDGET_WORDS,
                stats: NeighborhoodStats | None = None) -> KeywordIndex:
    """Sorted keyword index of all length-j windows starting inside the piece."""
    lo, hi = piece
    start_lo = max(1, lo)
    start_hi = min(hi - j + 1, text.n1 - j + 1)
    nstarts = max(0, start_hi - start_lo + 1)
    n_keywords = nstarts * comb(j, k)
    if n_keywords * (k + 2) > mem_budget_words:
        raise ResourceLimitError(
            f"keyword index for piece {piece} at j={j}, k={k} needs about "
            f"{n_keywords * (k + 2)} words (budget {mem_budget_words})")
    # group by the primary key (delete tuple, ascending) and settle only the
    # within-group order with content comparisons
    entries: list[Keyword] = []
    groups: dict = {}
    starts = range(start_lo, start_hi + 1)
    for deletes in combinations(range(1, j + 1), k):
        group = [Keyword(1, q, j, deletes) for q in starts]
        group.sort(key=cmp_to_key(
            lambda a, b, _d=deletes: _content_cmp(lce, a.src_start, b.src_start, j, _d)))
        groups[deletes] = (len(entries), len(entries) + len(group))
        entries.extend(group)
    if stats is not None:
        stats.keywords_generated += len(entries)
        stats.indexes_built += 1
    return KeywordIndex(piece, j, k, entries, len(entries), groups)


def query_index(idx: KeywordIndex, lce: LceIndex, kw: Keyword) -> Keyword | None:
    """Leftmost index entry equal to kw under keyword_order, if any."""
    if kw.j != idx.j or len(kw.deletes) != idx.k:
        raise ValueError("query keyword does not match the index regime")
    bounds = idx.groups.get(kw.deletes)
    if bounds is None:
        return None
    lo, hi = bounds
    entries = idx.entries
    pk = _concat_pos(lce, kw)
    j, deletes = kw.j, kw.deletes
    while lo < hi:
        mid = (lo + hi) // 2
        if _content_cmp(lce, entries[mid].src_start, pk, j, deletes) < 0:
            lo = mid + 1
        else:
            hi = mid
    if lo < bounds[1] and _content_cmp(lce, entries[lo].src_start, pk, j, deletes) == 0:
        return entries[lo]
    return None


def _piece_ranges(n1: int, j: int, h: int) -> list[tuple[int, int]]:
    """h pieces of nominal length ceil(n1/h) + j, successive overlap j."""
    c = -(-n1 // h)
    pieces = []
    for p in range(h):
        lo = p * c + 1
        if lo > n1:
            break
        pieces.append((lo, min(lo + c + j - 1, n1)))
    return pieces


def _scan_piece(text: Text, lce: LceIndex, piece, j, k, mem_budget_words, stats):
    """The smallest-(i1, i2) length-j match whose s1 window starts in the piece."""
    idx = build_index(text, lce, piece, j, k, mem_budget_words, stats)
    if not idx.entries:
        return None
    best = None
    for q2 in range(1, text.n2 - j + 2):
        for kw in enumerate_neighborhood(2, q2, j, k):
            if stats is not None:
                stats.keywords_generated += 1
            hit = query_index(idx, lce, kw)
            # q2 ascends, so only a smaller i1 improves on an earlier hit
            if hit is not None and (best is None or hit.src_start < best[0]):
                best = (hit.src_start, q2)
    return None if best is None else make_span(text, j, *best)


def exists_match_of_length(text: Text, lce: LceIndex, j: int, k: int, h: int,
                           mem_budget_words: int = DEFAULT_MEM_BUDGET_WORDS,
                           stats: NeighborhoodStats | None = None) -> MatchSpan | None:
    """The smallest-(i1, i2) span of length j with <= k mismatches, or None.

    s1 is cut into h pieces overlapping by j symbols so every length-j
    window of s1 lies inside a piece; each piece is indexed in turn and
    every keyword generated from s2 is looked up in it.  Pieces hold
    ascending i1 ranges, so the first piece with a match holds the smallest.
    """
    if j < 1:
        raise ValueError("match length must be >= 1")
    if h < 1:
        raise ValueError("piece count must be >= 1")
    n1, n2 = text.n1, text.n2
    if j > n1 or j > n2:
        return None
    if j <= k:
        # any alignment fits the budget
        return make_span(text, j, 1, 1)
    for piece in _piece_ranges(n1, j, h):
        span = _scan_piece(text, lce, piece, j, k, mem_budget_words, stats)
        if span is not None:
            return span
    return None


def default_piece_count(n1: int, n2: int, ell0: int, k: int) -> int:
    """Piece count balancing index size against repeated queries."""
    n = max(n1, n2)
    return max(1, round(sqrt(n / ((k + 1) * (ell0 + 1)))))


def klcf_neighborhood(text: Text, lce: LceIndex, k: int,
                      h: int | None = None,
                      mem_budget_words: int = DEFAULT_MEM_BUDGET_WORDS,
                      stats: NeighborhoodStats | None = None) -> MatchSpan:
    """Exact optimum by searching the smallest j with no length-j match.

    The existence predicate is monotone, so the search keeps a verified
    witness at the largest known-true j and narrows to the first false one.
    Probing starts next to the lower bound and grows exponentially before
    bisecting, which keeps index sizes near what the answer itself requires;
    an index that would not fit the budget raises ResourceLimitError.  The
    witness is the smallest (i1, i2) among the optimal windows.
    """
    n1, n2 = text.n1, text.n2
    if min(n1, n2) == 0:
        return MatchSpan(0, 1, 1, ())
    ell0, w1, w2 = lcf0(lce)
    if ell0 == 0:
        return trivial_span(text, k)
    lower, upper = klcf_bounds(ell0, k, n1, n2)
    if h is None:
        h = default_piece_count(n1, n2, ell0, k)
    if lower == ell0:
        best = MatchSpan(ell0, w1, w2, ())
    else:
        best = make_span(text, lower, 1, 1)  # lower = min(n1, n2, k)
    if stats is None:
        stats = NeighborhoodStats()

    def probe(j: int) -> MatchSpan | None:
        stats.probes.append(j)
        return exists_match_of_length(text, lce, j, k, h, mem_budget_words,
                                      stats)

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
