"""Diagonal scans with geometrically shrinking stride.

Each visited cell is expanded into the longest window through it holding at
most k mismatches, via k+1 extension queries forward from the cell and k+1
backward from the cell before it along the diagonal, combined by one split
of the budget around the cell.  A pass with stride h visits every h-th
cell of each diagonal, so it cannot miss a match of length >= h, and
halving the stride until the best found length reaches it yields the
exact optimum in O(n^2 k / l_k) extension queries.  When l_k is small
the last passes cost more than finishing the search another way, so the
solver rents passes only while they cost less than the purchase that
``seeds.purchase`` prices in scan cells before any pass: the exhaustive
scan or seed-and-extend, whichever is cheaper.
"""

from __future__ import annotations

import numpy as np

from .core import MatchSpan, Stats, Text, better_span, klcf_bounds, make_span
from .diagonal import best_window
from .lce import LceIndex
from .seeds import purchase

# visited cells expanded per chunk of a pass
PASS_CELLS = 1 << 16
# R: cost of one extension of a pass cell (a forward and a backward batched
# LCE query) in cells of the exhaustive scan.  Measured on a 2-core Xeon
# with Python 3.11 and numpy 2.4: an extension costs 100-175 ns, a cell of
# the block-filtered scan 0.7-2.8 ns, so R is 35 (sigma 20, k 1, n 1024),
# 63 (DNA, k 4, n 3072), 120 (DNA reads, 263168 x 150, k 4) and 170-190
# (DNA, k 4, n 8192, random or 1 %-mutated).  A wrong R costs time, never
# exactness.
SCAN_CELLS_PER_EXTENSION = 100


# bench/trace_run.py reads klcf.ScanStats; the alias goes with ROADMAP item 1a
ScanStats = Stats


def pass_cells(n1: int, n2: int, h: int) -> int:
    """Cells a pass with stride h visits: n1 + n2 + 1 - 2m for each of the
    M = min(n1, n2) // h multiples m of h, in closed form."""
    M = min(n1, n2) // h
    return M * (n1 + n2 + 1) - h * M * (M + 1)


def _pass_cells(n1: int, n2: int, h: int):
    """Visited cells of one pass, as (i1s, i2s) chunks of at most
    ``PASS_CELLS``.

    The h-th, 2h-th, ... cell of a diagonal is where min(i1, i2) reaches a
    multiple m of h, so the pass visits one L-shape per m: row m from
    column m on, (m, m .. n2), then column m below row m, (m+1 .. n1, m).
    The chunks walk them in order of m.
    """
    m = np.arange(h, min(n1, n2) + 1, h, dtype=np.int64)
    size = n1 + n2 + 1 - 2 * m
    end = np.cumsum(size)
    total = pass_cells(n1, n2, h)
    for lo in range(0, total, PASS_CELLS):
        pos = np.arange(lo, min(lo + PASS_CELLS, total), dtype=np.int64)
        j = np.searchsorted(end, pos, side="right")
        mj = m[j]
        off = pos - (end[j] - size[j])  # offset along the L of mj
        in_row = off <= n2 - mj
        yield (np.where(in_row, mj, off + 2 * mj - n2),
               np.where(in_row, mj + off, mj))


def _mismatches(query, n: int, p0: np.ndarray, q0: np.ndarray, step: int,
                k: int) -> np.ndarray:
    """The first k+1 mismatch offsets from concat positions (p0, q0), each
    step a symbol along the diagonal, found by one LCE query each.

    The separators end every walk: a forward one on sigma or sigma+1, a
    backward one on sigma or at the text's first symbol.  Past that end
    the offsets only grow, and positions are clipped to [1, n].
    """
    out = np.empty((k + 1, len(p0)), np.int64)
    o = np.zeros(len(p0), np.int64)
    for t in range(k + 1):
        o = o + query(np.clip(p0 + step * o, 1, n), np.clip(q0 + step * o, 1, n))
        out[t] = o
        o = o + 1
    return out


def _batch_longest(text: Text, lce: LceIndex, i1s: np.ndarray, i2s: np.ndarray,
                   k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per cell (i1, i2): the length and backward reach of the longest
    window through it on its diagonal with <= k mismatches.

    The forward walk starts at the cell and the backward walk at the cell
    before it, so the cell's own mismatch is counted once, forward.  Row t
    of the one budget split spends t mismatches before the cell and k - t
    from it on; a mismatching cell closes row k, so at k = 0 its window is
    empty and anchored at the cell.  Ties go to the smallest start.
    """
    n1, n2 = text.n1, text.n2
    p0 = i1s.astype(np.int64)
    q0 = n1 + 1 + i2s.astype(np.int64)
    fwd = _mismatches(lce.lce_forward_batch, lce.n, p0, q0, 1, k)
    bwd = _mismatches(lce.lce_backward_batch, lce.n, p0 - 1, q0 - 1, -1, k)
    # the window's last offset from the cell, and its cells before the
    # cell, neither past the diagonal's ends
    fr = np.minimum(fwd - 1, np.minimum(n1 - i1s, n2 - i2s))
    br = np.minimum(bwd, np.minimum(i1s, i2s) - 1)
    br[k, fr[0] < 0] = 0  # a mismatching cell closes row k
    lens = fr[::-1] + br + 1
    length = lens.max(axis=0)
    return length, np.where(lens == length, br, -1).max(axis=0)


def scan_pass(text: Text, lce: LceIndex, k: int, h: int,
              stats: Stats | None = None) -> MatchSpan:
    """Best window over the cells visited with stride h.

    If h <= l_k the optimum window covers at least one visited cell, so the
    pass returns a span of the optimum length.  Cells are expanded in
    chunks of at most PASS_CELLS from ``_pass_cells``.
    """
    if h < 1:
        raise ValueError("stride must be >= 1")
    best = MatchSpan(0, 1, 1)
    for i1s, i2s in _pass_cells(text.n1, text.n2, h):
        if stats is not None:
            stats.cells_visited += len(i1s)
        length, back = _batch_longest(text, lce, i1s, i2s, k)
        best = best_window(best, length, i1s - back, i2s - back)
    return make_span(text, best.length, best.i1, best.i2)


def klcf_strided(text: Text, lce: LceIndex, k: int,
                 stats: Stats | None = None) -> MatchSpan:
    """Exact optimum by strided passes, finished by a purchase once the
    passes stop paying off.

    Starts at h = U = min((k+1)*l0 + k, min(n1, n2)) and halves the stride
    until a window at least as long as the stride is known.  Before each
    pass it weighs the passes' work so far plus this pass, (k+1) *
    SCAN_CELLS_PER_EXTENSION * cells(h), against the price of
    ``purchase``, in scan cells; once the passes cost at least as much,
    the purchase replaces every remaining pass (rent until renting costs
    the purchase price), with the longest window known so far as its
    floor.  Either way the answer is exact, with the smallest witness.
    """
    if stats is None:
        stats = Stats()
    n1, n2 = text.n1, text.n2
    best, price, buy = purchase(text, lce, k)
    if buy is None:
        return best
    h = klcf_bounds(best.length, k, n1, n2)[1]
    spent = 0
    while True:
        cost = (k + 1) * SCAN_CELLS_PER_EXTENSION * pass_cells(n1, n2, h)
        if spent + cost >= price:
            return better_span(best, buy(best.length, stats))
        spent += cost
        stats.pass_strides.append(h)
        best = better_span(best, scan_pass(text, lce, k, h, stats))
        if best.length >= h or h == 1:
            break
        h = max(1, h // 2)
    return best
