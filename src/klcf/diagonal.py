"""Diagonal geometry, batching, and the exhaustive chunked diagonal scan.

Diagonal g (0-based) of the n1 x n2 alignment matrix pairs s1 and s2 at
alignment a = i2 - i1 = g - (n1 - 1), so g runs over n1 + n2 - 1 values
from the bottom-left corner to the top-right one.  Every scanner in the
package walks diagonals in that order through ``diagonals``.

The exhaustive scan is the per-diagonal sliding window (Flouri, Giaquinta,
Kobert and Ukkonen, IPL 2015), vectorised: a window with at most k
mismatches is bounded by two mismatches (or the diagonal's ends) with at
most k mismatches between them, so the longest one on a diagonal starts
right after some mismatch and ends right before the (k+1)-th one after it.
"""

from __future__ import annotations

import numpy as np

from .core import MatchSpan, Text, better_span, make_span

# cells compared per batch of the exhaustive scan
SCAN_CELLS = 1 << 20


def diagonals(n1: int, n2: int, lo: int = 0, hi: int | None = None):
    """(st1, st2, length) int64 arrays for diagonals lo .. hi-1.

    st1 and st2 are the 1-based starts of the diagonal in s1 and s2.
    """
    if hi is None:
        hi = n1 + n2 - 1
    a = np.arange(lo - (n1 - 1), hi - (n1 - 1), dtype=np.int64)
    st1 = np.where(a < 0, 1 - a, 1)
    st2 = st1 + a
    length = np.minimum(n1 - st1, n2 - st2) + 1
    return st1, st2, length


def batches(weights: np.ndarray, budget: int):
    """Consecutive (lo, hi) ranges of items whose weights sum to at most
    budget; an item heavier than the budget gets a range of its own."""
    cum = np.cumsum(weights)
    lo, count = 0, len(weights)
    while lo < count:
        base = int(cum[lo - 1]) if lo else 0
        hi = int(np.searchsorted(cum, base + budget, side="right"))
        hi = max(hi, lo + 1)
        yield lo, hi
        lo = hi


def argmin_pair(a: np.ndarray, b: np.ndarray) -> int:
    """Index of the lexicographically smallest (a[i], b[i]); a is non-empty.

    Two stages, the smallest a and then the smallest b among its ties, so
    no composite key can overflow however large the positions are.
    """
    ties = np.flatnonzero(a == a.min())
    return int(ties[np.argmin(b[ties])])


def _best_in_batch(diff: np.ndarray, length: np.ndarray, k: int, floor: int):
    """(length, rows, offsets) of the longest windows in a batch of diagonals,
    or (length, None, None) when the longest is shorter than ``floor``.

    Row r of ``diff`` flags the virtual mismatch before the diagonal
    (column 0), its mismatching cells (column 1 + t for offset t < length[r],
    nothing after them) and k+1 virtual mismatches at the end of the row.
    The virtual end marks are moved to the diagonal's end, so a window that
    runs into them stops there.
    """
    rows, width = diff.shape
    pos = np.flatnonzero(diff)  # row-major: by row, then by column
    ends = np.searchsorted(pos, np.arange(1, rows + 1) * width)
    marks = (ends[:, None] - np.arange(1, k + 2)).ravel()
    pos[marks] = np.repeat(np.arange(rows) * width + 1 + length, k + 1)
    span = pos[k + 1:] - pos[:len(pos) - k - 1] - 1
    # a window after an end mark would run into the next row
    span[marks[marks < len(span)]] = -1
    best = int(span.max())
    if best < floor:
        return best, None, None
    first = pos[np.flatnonzero(span == best)]
    row = first // width
    return best, row, first - row * width


def klcf_diagonal_scan(text: Text, k: int, budget: int = SCAN_CELLS) -> MatchSpan:
    """Exact optimum and its lexicographically smallest witness, by
    scanning every diagonal.

    Diagonals are compared in batches of rows of a dense matrix of at most
    ``budget`` cells (a single diagonal longer than that gets a batch of
    its own).  Diagonals with i2 <= i1 slide s1 past s2 and the others
    slide s2 past s1, so each batch is one strided view of a padded
    sequence compared with a prefix of the other.  Both halves are walked
    from the longest diagonal outwards, so a batch's first row is its
    widest.  O(n1 n2) time, O(budget + n1 + n2) memory.
    """
    n1, n2 = text.n1, text.n2
    if n1 == 0 or n2 == 0:
        return MatchSpan(0, 1, 1, ())
    dtype = np.int16 if text.sigma < 1 << 15 else np.int64
    s1 = text.s1.astype(dtype)
    s2 = text.s2.astype(dtype)
    st1, st2, length = diagonals(n1, n2)
    best = MatchSpan(0, 1, 1)
    # (sliding side, fixed side, starts on the sliding side, first diagonal,
    # one past the last, step)
    halves = ((s1, s2, st1, n1 - 1, -1, -1), (s2, s1, st2, n1, n1 + n2 - 1, 1))
    for slide, fixed, starts, g, g_end, step in halves:
        # padded so every row of a batch's view is in bounds
        padded = np.concatenate([slide, np.full(len(fixed), -1, dtype)])
        while g != g_end:
            w = int(length[g])
            rows = min(max(1, budget // (w + k + 2)), abs(g_end - g))
            batch = np.arange(g, g + step * rows, step)
            x0 = int(starts[g]) - 1
            view = np.lib.stride_tricks.sliding_window_view(padded, w)[x0:x0 + rows]
            diff = np.ones((rows, w + k + 2), dtype=bool)
            cells = diff[:, 1:w + 1]
            np.not_equal(view, fixed[:w], out=cells)
            lens = length[batch]
            if lens[-1] < w:
                cells &= np.arange(w) < lens[:, None]
            mx, row, t = _best_in_batch(diff, lens, k, max(best.length, 1))
            if row is not None:
                i1 = st1[batch[row]] + t
                i2 = st2[batch[row]] + t
                h = argmin_pair(i1, i2)
                best = better_span(best, MatchSpan(mx, int(i1[h]), int(i2[h])))
            g += step * rows
    if best.length == 0:
        return MatchSpan(0, 1, 1, ())
    return make_span(text, best.length, best.i1, best.i2)
