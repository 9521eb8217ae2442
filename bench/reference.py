"""Independent reference: a numpy sliding window over every diagonal.

This is the exhaustive baseline that solver speed claims are held against,
and the ground truth every benchmark solve is checked with.  It imports
nothing from ``klcf``: a window with at most k mismatches on a diagonal is
bounded by two mismatch positions (or the diagonal's ends) with at most k
mismatches between them, so the longest one is found from the gaps between
every (k+1)-th mismatch.  Ties go to the lexicographically smallest
(i1, i2), compared with ``np.lexsort`` rather than a packed integer key.
"""

from __future__ import annotations

import numpy as np

# cells of the dense diagonal matrix materialised per batch
BATCH_CELLS = 1 << 20


def _best_in_rows(s1p, a2, n1, k, d0, d1):
    """(length, i1, i2) of the best window on diagonals i1 - i2 in [d0, d1).

    Row d of the dense matrix compares s1[d + j] with s2[j] for every column
    j; ``s1p`` is s1 padded by n2 - 1 symbols on the left and n2 on the
    right, so each row is a view of it.  Cells outside 0 <= d + j < n1 are
    masked out, and each row's window list is bounded by its first and last
    valid column.
    """
    n2 = len(a2)
    rows = d1 - d0
    d = np.arange(d0, d1, dtype=np.int64)
    view = np.lib.stride_tricks.sliding_window_view(s1p, n2)[n2 - 1 + d0:n2 - 1 + d1]
    lo = np.maximum(-d, 0)                 # first valid column of each row
    hi = np.minimum(n2, n1 - d)            # one past the last valid column
    j = np.arange(n2, dtype=np.int64)
    diff = (view != a2) & (j >= lo[:, None]) & (j < hi[:, None])
    row, col = np.nonzero(diff)  # row-major: sorted by row, then column
    count = np.bincount(row, minlength=rows)
    # per row: lo - 1, its mismatch columns, then k+1 copies of hi
    per = count + k + 2
    base = np.zeros(rows + 1, dtype=np.int64)
    np.cumsum(per, out=base[1:])
    gaps = np.empty(int(base[-1]), dtype=np.int64)
    gaps[base[:-1]] = lo - 1
    mm_base = np.zeros(rows + 1, dtype=np.int64)
    np.cumsum(count, out=mm_base[1:])
    gaps[base[row] + 1 + (np.arange(len(row)) - mm_base[row])] = col
    tail = np.repeat(np.arange(rows), k + 1)
    tail_rank = np.tile(np.arange(k + 1), rows)
    gaps[base[tail] + 1 + count[tail] + tail_rank] = hi[tail]
    # window w of a row starts after gap entry w and ends before entry
    # w + k + 1; windows w = 0 .. count are the maximal ones
    wrow = np.repeat(np.arange(rows), count + 1)
    wpos = base[wrow] + (np.arange(len(wrow)) - (mm_base[wrow] + wrow))
    start = gaps[wpos] + 1
    span = gaps[wpos + k + 1] - start
    best = int(span.max())
    hit = np.flatnonzero(span == best)
    i2 = start[hit]
    i1 = d[wrow[hit]] + i2
    g = np.lexsort((i2, i1))[0]
    return best, int(i1[g]), int(i2[g])


def reference_solve(s1, s2, k: int) -> tuple[int, int, int]:
    """Optimum length and its smallest 1-based witness (i1, i2).

    ``s1`` and ``s2`` are byte strings.  Empty inputs give (0, 1, 1).
    """
    a1 = np.frombuffer(s1, dtype=np.uint8).astype(np.int16)
    a2 = np.frombuffer(s2, dtype=np.uint8).astype(np.int16)
    n1, n2 = len(a1), len(a2)
    if n1 == 0 or n2 == 0:
        return 0, 1, 1
    s1p = np.concatenate([np.full(n2 - 1, -1, np.int16), a1,
                          np.full(n2, -1, np.int16)])
    step = max(1, BATCH_CELLS // n2)
    best = (0, 0, 0)
    for d0 in range(-(n2 - 1), n1, step):
        cand = _best_in_rows(s1p, a2, n1, k, d0, min(d0 + step, n1))
        if (cand[0], -cand[1], -cand[2]) > (best[0], -best[1], -best[2]):
            best = cand
    return best[0], best[1] + 1, best[2] + 1


def mismatch_offsets(s1: bytes, s2: bytes, i1: int, i2: int, length: int) -> list[int]:
    """Offsets where the aligned 1-based windows differ, by direct comparison."""
    a = np.frombuffer(s1, dtype=np.uint8)[i1 - 1:i1 - 1 + length]
    b = np.frombuffer(s2, dtype=np.uint8)[i2 - 1:i2 - 1 + length]
    if len(a) != length or len(b) != length:
        raise ValueError("window runs past the end of a sequence")
    return np.flatnonzero(a != b).tolist()
