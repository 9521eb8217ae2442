"""Diagonal geometry, batching, and the exhaustive chunked diagonal scan.

Diagonal g (0-based) of the n1 x n2 alignment matrix pairs s1 and s2 at
alignment a = i2 - i1 = g - (n1 - 1), so g runs over n1 + n2 - 1 values
from the bottom-left corner to the top-right one.  Every scanner in the
package walks diagonals in that order through ``diagonals``, and
``packed_batches`` gives their mismatch bits, packed, in batches of a
bounded number of cells to both the exhaustive scan and tabulation.

The exhaustive scan is the per-diagonal sliding window (Flouri, Giaquinta,
Kobert and Ukkonen, IPL 2015), vectorised: a window with at most k
mismatches is bounded by two mismatches (or the diagonal's ends) with at
most k mismatches between them, so the longest one on a diagonal starts
right after some mismatch and ends right before the (k+1)-th one after it.
In front of it sits an exact block filter, the word-packing idea of the
tabulation algorithm and of bit-parallel mismatch counting (Baeza-Yates and
Gonnet, CACM 1992): mismatch bits are packed 8 to a byte, counted per block
with ``np.bitwise_count``, and only the bytes a block count cannot rule out
reach the sliding window.
"""

from __future__ import annotations

import numpy as np

from .core import MatchSpan, Text, better_span, make_span

# cells compared per batch of the exhaustive scan
SCAN_CELLS = 1 << 20
# cells compared and packed at a time within a batch, so the comparison's
# one-byte-per-cell result never spans a whole batch
PACK_CELLS = 1 << 17


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


def _block_width(floor: int) -> int:
    """Block width g of the filter for windows of at least ``floor`` cells,
    0 when the filter cannot prune (floor < 5).

    Such a window holds r = (floor - g + 1) // g whole blocks, and the
    coarsest g that still leaves a few of them prunes the most per block.
    """
    for g, least in ((8, 39), (4, 11), (2, 5)):
        if floor >= least:
            return g
    return 0


def _kept_segments(packed: np.ndarray, k: int, floor: int):
    """(row, first byte, end byte) int64 arrays of the byte runs of a packed
    batch that may hold part of a window of at least ``floor`` cells with at
    most k mismatches, or None when the filter keeps too much to pay off.

    Any such window holds r consecutive whole g-cell blocks whose mismatch
    counts sum to at most k, and every whole block of it lies in such a
    run: a block is kept when a passing run covers it, and so is one block
    on each side for the window's partial ends.  The run sums are built by
    doubling and their coverage is merged from the passing starts alone,
    so the filter costs O(bytes) whatever r is.
    """
    g = _block_width(floor)
    if not g:
        return None
    rows, nbytes = packed.shape
    per = 8 // g
    nb = nbytes * per
    r = (floor - g + 1) // g
    if nb < r:
        empty = np.empty(0, np.int64)
        return empty, empty, empty
    # per-block counts, wide enough for r blocks' sums (r*g can pass 255)
    counts = np.empty((rows, nbytes, per), np.min_scalar_type(r * g))
    for i in range(per):
        counts[:, :, i] = np.bitwise_count((packed >> (8 - g - g * i)) & ((1 << g) - 1))
    counts = counts.reshape(rows, nb)
    # sums of r consecutive blocks, from sums of 1, 2, 4, ... by doubling
    out = nb - r + 1
    sums = None
    size, done = 1, 0
    while True:
        if r & size:
            part = counts[:, done:done + out]
            # the first part is used as is, not added to a zero-filled array;
            # the doubling below builds each new counts array afresh, so
            # adding into this view later harms nothing
            if sums is None:
                sums = part
            else:
                sums += part
            done += size
        if 2 * size > r:
            break
        counts = counts[:, :-size] + counts[:, size:]
        size *= 2
    hits = np.flatnonzero(sums <= k)
    # every passing start keeps its own block
    if 2 * len(hits) > rows * nb:
        return None
    row, j = np.divmod(hits, out)
    lo = np.maximum(j - 1, 0) // per
    hi = (np.minimum(j + r + 1, nb) + per - 1) // per
    # the starts are sorted by row, then block, so are both ends of a row's
    # intervals: one starts a new run unless it meets its predecessor's end
    first = np.ones(len(hits), bool)
    first[1:] = (row[1:] != row[:-1]) | (lo[1:] > hi[:-1])
    last = np.ones(len(hits), bool)
    last[:-1] = first[1:]
    row, lo, hi = row[first], lo[first], hi[last]
    if 2 * int((hi - lo).sum()) > rows * nbytes:
        return None
    return row, lo, hi


def _best_in_batch(packed: np.ndarray, length: np.ndarray, k: int, floor: int,
                   segments):
    """(length, rows, offsets) of the longest windows of at least ``floor``
    cells in a packed batch of diagonals, or None when there is none.

    ``packed`` holds one row of mismatch bits per diagonal, past its end
    set too; ``segments`` (row, first byte, end byte) limits the search to
    those byte runs, all of every row when None.  The runs are laid end to
    end, each after a separator of at least k+1 set bits, so no window
    reaches from one into the next, and one more separator closes the
    last.  A window starts after a set bit and ends before the (k+1)-th set
    bit after it; windows that start in a separator or past a diagonal's
    end are dropped, and windows that run into either are clipped there.
    """
    rows, nbytes = packed.shape
    if segments is None:
        row = np.arange(rows)
        lo = np.zeros(rows, np.int64)
        hi = np.full(rows, nbytes, np.int64)
    else:
        row, lo, hi = segments
        if len(row) == 0:
            return None
    sep = (k + 8) // 8  # separator bytes
    size = hi - lo
    data = sep * np.arange(1, len(row) + 1) + np.cumsum(size) - size
    compact = np.full(int(data[-1] + size[-1]) + sep, 255, np.uint8)
    if segments is None:
        compact[:rows * (sep + nbytes)].reshape(rows, -1)[:, sep:] = packed
    else:
        off = np.arange(int(size.sum())) - np.repeat(np.cumsum(size) - size, size)
        compact[np.repeat(data, size) + off] = packed[np.repeat(row, size),
                                                      np.repeat(lo, size) + off]
    pos = np.flatnonzero(np.unpackbits(compact).view(bool))
    raw = pos[k + 1:] - pos[:len(pos) - k - 1] - 1
    # a window runs at most k cells into a separator or past its diagonal's
    # end, and one that starts in a separator is no longer than the window
    # from the run's first cell, so the best is at least raw.max() - k
    cand = np.flatnonzero(raw >= max(floor, int(raw.max()) - k))
    start = pos[cand] + 1
    seg = np.maximum(np.searchsorted(data * 8, start, side="right") - 1, 0)
    first = data[seg] * 8
    # the run's last cell on the diagonal, in compact bits, plus one
    end = first + np.minimum(size[seg] * 8, length[row[seg]] - lo[seg] * 8)
    span = np.minimum(pos[cand + k + 1], end) - start
    span[(start < first) | (start >= end)] = -1  # in a separator, or past the end
    if len(span) == 0 or int(span.max()) < floor:
        return None
    best = int(span.max())
    win = np.flatnonzero(span == best)
    return best, row[seg[win]], lo[seg[win]] * 8 + start[win] - first[win]


def packed_batches(text: Text, k: int, budget: int = SCAN_CELLS):
    """Yield (batch, packed) for every diagonal of ``text``, a batch of
    them at a time: ``batch`` holds the diagonals' indices and ``packed``
    one row of their mismatch bits each, 8 to a byte.

    A batch is the rows of a dense matrix of at most ``budget`` cells (a
    single diagonal longer than that gets a batch of its own), less k + 8
    separator bits a row for the scan's exact stage.  Diagonals with
    i2 <= i1 slide s1 past s2 and the others slide s2 past s1, so each
    batch is one strided view of a padded sequence compared with a prefix
    of the other.  Both halves are walked from the longest diagonal
    outwards, so a batch's first row is its widest and sets the row width;
    every bit past a diagonal's end is set.  The comparison is packed
    ``PACK_CELLS`` cells at a time.  Nothing is yielded when a sequence is
    empty.
    """
    n1, n2 = text.n1, text.n2
    if n1 == 0 or n2 == 0:
        return
    dtype = np.int16 if text.sigma < 1 << 15 else np.int64
    s1 = text.s1.astype(dtype)
    s2 = text.s2.astype(dtype)
    # (sliding side, fixed side, first diagonal, one past the last, step)
    halves = ((s1, s2, n1 - 1, -1, -1), (s2, s1, n1, n1 + n2 - 1, 1))
    for slide, fixed, g, g_end, step in halves:
        # padded so every row of a batch's view is in bounds; the two pads
        # differ, so every cell past a diagonal's end is a mismatch
        padded = np.concatenate([slide, np.full(len(fixed) + 8, -1, dtype)])
        fixed = np.concatenate([fixed, np.full(8, -2, dtype)])
        while g != g_end:
            st1, st2, length = diagonals(n1, n2, g, g + 1)
            w = -(-int(length[0]) // 8) * 8  # whole bytes
            rows = min(max(1, budget // (w + k + 8)), abs(g_end - g))
            x0 = int(max(st1[0], st2[0])) - 1  # the fixed side starts at 1
            view = np.lib.stride_tricks.sliding_window_view(padded, w)[x0:x0 + rows]
            # w is whole bytes, so packed rows lie back to back, and one
            # flat packbits per chunk beats a per-row one on narrow batches
            packed = np.empty(rows * w // 8, np.uint8)
            chunk = max(1, PACK_CELLS // w)
            for r0 in range(0, rows, chunk):
                packed[r0 * w // 8:(r0 + chunk) * w // 8] = np.packbits(
                    view[r0:r0 + chunk] != fixed[:w])
            yield np.arange(g, g + step * rows, step), packed.reshape(rows, w // 8)
            g += step * rows


def klcf_diagonal_scan(text: Text, k: int, budget: int = SCAN_CELLS,
                       floor: int = 0) -> MatchSpan:
    """Exact optimum and its lexicographically smallest witness, by
    scanning every diagonal.

    The mismatch bits come from ``packed_batches`` with this ``budget``.
    On each batch a block filter (``_kept_segments``) passes on only the
    bytes that may hold a window as long as L = max(best so far, floor);
    the exact sliding window runs on those.  ``floor`` is the length of a
    window known to exist, or 0; windows of length L are kept, so the
    answer is exact whatever floor at most the optimum is given.
    O(n1 n2) time, O(budget + n1 + n2) memory.
    """
    st1, st2, length = diagonals(text.n1, text.n2)
    best = MatchSpan(0, 1, 1)
    for batch, packed in packed_batches(text, k, budget):
        least = max(best.length, floor, 1)
        found = _best_in_batch(packed, length[batch], k, least,
                               _kept_segments(packed, k, least))
        if found is not None:
            mx, row, t = found
            i1 = st1[batch[row]] + t
            i2 = st2[batch[row]] + t
            h = argmin_pair(i1, i2)
            best = better_span(best, MatchSpan(mx, int(i1[h]), int(i2[h])))
    return make_span(text, best.length, best.i1, best.i2)
