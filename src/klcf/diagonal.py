"""Diagonal geometry, rows of mismatch bits, and the exhaustive scan.

Diagonal g (0-based) of the n1 x n2 alignment matrix pairs s1 and s2 at
alignment a = i2 - i1 = g - (n1 - 1), so g runs over n1 + n2 - 1 values
from the bottom-left corner to the top-right one.  This module alone lays
out rows of mismatch bits, 8 cells to a byte in whole bytes, a byte's
first cell in bit 0 (as tabulation's tables read it), every bit past a
row's cells set: the whole diagonals of ``packed_batches``, which the
exhaustive scan and tabulation walk a batch at a time with the starts and
lengths of ``geometry``, and the strips of ``best_in_strips`` around the
seed cells ``seeds`` hands over.  Every batch is a (bytes, rows) array,
byte j of every row side by side, with a byte's rows adjacent in memory.
A batch's rows are consecutive offsets of one sequence against a prefix
of the other, so for every alphabet they come from xor-ed bit planes of
the symbols (``_plane_rows``), 8 cells a byte operation and one per
plane, the planes packed once a slice of rows (``_phase_planes``); a
strip's rows are gathered, so they are compared a byte per cell and
packed straight into the batch's columns (``_packed_rows``).  It alone
cuts them into the runs an exact stage reads (``_kept_runs``) and lays
those end to end from any view of a batch (``_gather``), so the scan and
tabulation differ only in that stage.
Strided passes walk no diagonals: ``strided`` owns the cells they visit.

The exhaustive scan is the per-diagonal sliding window (Flouri, Giaquinta,
Kobert and Ukkonen, IPL 2015), vectorised: a window with at most k
mismatches is bounded by two mismatches (or the diagonal's ends) with at
most k mismatches between them, so the longest one on a diagonal starts
right after some mismatch and ends right before the (k+1)-th one after it.
In front of it sits an exact block filter (the word-packing idea of the
tabulation algorithm and of bit-parallel mismatch counting, Baeza-Yates
and Gonnet, CACM 1992): it counts mismatch bits per block with
``np.bitwise_count`` and passes on only the bytes a count cannot rule
out.  ``best_in_rows`` runs both stages on any rows.  The same filter
and runs front tabulation's lookup-table stage at the best length so
far.  ``best_window`` makes every solver's selection, the longest
window, then the smallest (i1, i2).
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .core import MatchSpan, Stats, Text, better_span, make_span

# cells compared per batch of the exhaustive scan, of tabulation and of
# the seed strips
SCAN_CELLS = 1 << 20
# cells compared and packed at a time within a batch of seed strips, so
# the comparison's one-byte-per-cell result never spans a whole batch
PACK_CELLS = 1 << 17


def geometry(n1: int, n2: int, g: np.ndarray):
    """(st1, st2, length) int64 arrays for the diagonals with indices g.

    st1 and st2 are the 1-based starts of the diagonal in s1 and s2.
    """
    a = g - (n1 - 1)
    st1 = np.maximum(1 - a, 1)
    st2 = st1 + a
    length = np.minimum((n1 + 1) - st1, (n2 + 1) - st2)
    return st1, st2, length


def argmin_pair(a: np.ndarray, b: np.ndarray) -> int:
    """Index of the lexicographically smallest (a[i], b[i]); a is non-empty.

    Two stages, the smallest a and then the smallest b among its ties, so
    no composite key can overflow however large the positions are.
    """
    ties = np.flatnonzero(a == a.min())
    return int(ties[np.argmin(b[ties])])


def best_window(best: MatchSpan, length, i1: np.ndarray, i2: np.ndarray) -> MatchSpan:
    """``best``, or the longest of the windows (length[j], i1[j], i2[j]) when
    it is at least as long, ties to the smallest (i1, i2): the one
    selection every solver makes.  ``length`` may be one length for all."""
    if len(i1) == 0:
        return best
    scalar = np.ndim(length) == 0
    mx = int(length if scalar else length.max())
    if mx < best.length:
        return best
    if scalar:
        h = argmin_pair(i1, i2)
    else:
        hits = np.flatnonzero(length == mx)
        h = hits[argmin_pair(i1[hits], i2[hits])]
    return better_span(best, MatchSpan(mx, int(i1[h]), int(i2[h])))


def padded_pair(text: Text, pad: int):
    """s1 padded with ``pad`` cells of sigma and s2 with ``pad`` of sigma+1,
    in the text's dtype: the pads match no symbol and not each other, so
    every cell past either sequence's end compares as a mismatch."""
    dtype = text.concat.dtype
    return (np.concatenate([text.s1, np.full(pad, text.sigma, dtype)]),
            np.concatenate([text.s2, np.full(pad, text.sigma + 1, dtype)]))


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
    (bytes, rows) batch that may hold part of a window of at least
    ``floor`` cells with at most k mismatches, or None when the filter
    keeps too much to pay off.

    Any such window holds r consecutive whole g-cell blocks whose mismatch
    counts sum to at most k, and every whole block of it lies in such a
    run: a block is kept when a passing run covers it, and so is one block
    on each side for the window's partial ends.  The run sums are built
    down each row's blocks by doubling, one call on the (blocks, rows)
    counts a step, a block's rows adjacent as in every batch, so no sum
    crosses a row's end; numpy reads a view in either memory order, so the
    counts are right whatever order made the batch.  Coverage is merged
    from the passing starts alone, so the filter costs O(bytes) whatever r
    is.
    """
    g = _block_width(floor)
    if not g:
        return None
    nbytes, rows = packed.shape
    per = 8 // g
    nb = nbytes * per
    r = (floor - g + 1) // g
    # per-block counts (r*g passes 255 only where g = 8): block per * j + i
    # of a row is bits g * i on of its byte j
    counts = np.empty((nb, rows), np.min_scalar_type(r * g))
    for i in range(per):
        np.bitwise_count(packed & (1 << g) - 1 << g * i if per > 1 else packed,
                         out=counts[i::per])
    # sums of r consecutive blocks, from sums of 1, 2, 4, ... by doubling;
    # none where a row holds fewer than r blocks
    out = max(nb - r + 1, 0)
    sums, size, done = None, 1, 0
    while True:
        if r & size:
            # the first part is used as is: the doubling below builds each
            # new counts array afresh, so adding into this view harms nothing
            part = counts[done:done + out]
            sums = part if sums is None else np.add(sums, part, out=sums)
            done += size
        if 2 * size > r:
            break
        counts = counts[:-size] + counts[size:]
        size *= 2
    start = np.flatnonzero(sums <= k)
    # every passing start keeps its own block
    if 2 * len(start) > rows * nb:
        return None
    # flatnonzero yields each row's starts in block order, so a stable sort
    # by row (a radix sort up to 2^16 rows) orders them by row, then block
    j, row = np.divmod(start, rows)
    order = np.argsort(row.astype(np.min_scalar_type(rows - 1)), kind="stable")
    row, j = row[order], j[order]
    lo = np.maximum(j - 1, 0) // per
    hi = (np.minimum(j + r + 1, nb) + per - 1) // per
    # the starts are sorted by row, then block, so are both ends of a row's
    # intervals: one starts a new run unless it meets its predecessor's end
    first = np.ones(len(j), bool)
    first[1:] = (row[1:] != row[:-1]) | (lo[1:] > hi[:-1])
    last = np.ones(len(j), bool)
    last[:-1] = first[1:]
    row, lo, hi = row[first], lo[first], hi[last]
    if 2 * int((hi - lo).sum()) > rows * nbytes:
        return None
    return row, lo, hi


def _whole_rows(length: np.ndarray):
    """(row, first byte, cells) of every row of a batch, whole."""
    return np.arange(len(length)), np.zeros(len(length), np.int64), length


def _kept_runs(packed: np.ndarray, length: np.ndarray, k: int, floor: int):
    """(row, first byte, cells) int64 arrays of the byte runs of a packed
    batch that ``_kept_segments`` keeps at ``floor``, or None when it keeps
    too much and every row is read whole (``_whole_rows``).  Row r holds
    length[r] cells; each run is clipped to its diagonal and holds the
    cells from its first byte to its end or its diagonal's, whichever comes
    first, and a run that starts at or past its diagonal's end holds no
    cell and is dropped."""
    kept = _kept_segments(packed, k, floor)
    if kept is None:
        return None
    row, lo, hi = kept
    keep = 8 * lo < length[row]
    row, lo, hi = row[keep], lo[keep], hi[keep]
    return row, lo, np.minimum(8 * hi, length[row]) - 8 * lo


def _gather(packed: np.ndarray, runs, sep: int = 0):
    """(data, m, off): the runs (row, first byte, cells) of any (bytes, rows)
    view, read by (byte, row) index and laid end to end, run j as its m[j]
    = ceil(cells[j] / 8) bytes from data's byte off[j].  With sep > 0, each
    run comes after sep bytes of set bits, and sep more close the last."""
    row, first, cells = runs
    m = -(-cells // 8)
    start = np.cumsum(m) - m
    total = int(m.sum())
    data = packed[np.repeat(first - start, m) + np.arange(total), np.repeat(row, m)]
    off = start + sep * np.arange(1, len(m) + 1)
    if sep:
        out = np.full(total + sep * (len(m) + 1), 255, np.uint8)
        out[np.repeat(off - start, m) + np.arange(total)] = data
        data = out
    return data, m, off


def _best_in_batch(packed: np.ndarray, k: int, floor: int, runs):
    """(length, runs, offsets) of the longest windows of at least ``floor``
    cells in the runs (row, first byte, cells) of a packed batch, or None
    when there is none: the index of each window's run, and its first
    cell in the run.

    ``packed`` is a (bytes, rows) batch of one row of mismatch bits per
    diagonal, past its end set too.  The runs are laid end to end, each
    after a separator of at least k+1 set bits, so no window reaches from
    one into the next, and one more separator closes the last.  A window
    starts after a set bit and ends before the (k+1)-th set bit after it;
    windows that start in a separator or past their run's cells are
    dropped, and windows that run past them are clipped there.
    """
    cells = runs[2]
    if len(cells) == 0:
        return None
    compact, _, off = _gather(packed, runs, (k + 8) // 8)
    pos = np.flatnonzero(np.unpackbits(compact, bitorder="little").view(bool))
    raw = pos[k + 1:] - pos[:len(pos) - k - 1] - 1
    # a window runs at most k cells into a separator or past its run's
    # cells, and one that starts in a separator is no longer than the
    # window from the run's first cell, so the best is at least raw.max() - k
    cand = np.flatnonzero(raw >= max(floor, int(raw.max()) - k))
    start = pos[cand] + 1
    run = np.maximum(np.searchsorted(off * 8, start, side="right") - 1, 0)
    first = off[run] * 8
    end = first + cells[run]
    span = np.minimum(pos[cand + k + 1], end) - start
    span[(start < first) | (start >= end)] = -1  # in a separator, or past the end
    if len(span) == 0 or int(span.max()) < floor:
        return None
    best = int(span.max())
    win = np.flatnonzero(span == best)
    return best, run[win], start[win] - first[win]


def best_in_rows(best: MatchSpan, packed: np.ndarray, length: np.ndarray,
                 st1: np.ndarray, st2: np.ndarray, k: int, floor: int) -> MatchSpan:
    """``best``, or the longest window in packed rows of mismatch bits if it
    is at least as long as best and ``floor``; row r starts at the 1-based
    cell (st1[r], st2[r]) of its diagonal and holds length[r] cells of it,
    every bit past them set.  The block filter passes on only the runs
    that may hold such a window, and the exact sliding window runs on
    those."""
    least = max(best.length, floor, 1)
    runs = _kept_runs(packed, length, k, least)
    if runs is None:
        runs = _whole_rows(length)
    found = _best_in_batch(packed, k, least, runs)
    if found is None:
        return best
    mx, run, t = found
    row, t = runs[0][run], 8 * runs[1][run] + t
    return best_window(best, mx, st1[row] + t, st2[row] + t)


def _packed_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The (bytes, rows) batch of mismatch bits a != b of the seed strips'
    gathered rows, 8 to a byte, a byte's rows adjacent in memory as in the
    bit planes' batches: a and b hold as many rows of w cells of the padded
    sequences, w whole bytes, so one flat packbits packs ``PACK_CELLS``
    cells of whole rows at a time, straight into their columns."""
    rows, w = a.shape
    packed = np.empty((w // 8, rows), np.uint8)
    step = max(1, PACK_CELLS // w)
    for lo in range(0, rows, step):
        packed[:, lo:lo + step] = np.packbits(a[lo:lo + step] != b[lo:lo + step],
                                              bitorder="little").reshape(-1, w // 8).T
    return packed


def _phase_planes(seg: np.ndarray, planes: int) -> np.ndarray:
    """(planes, 8q) bytes, q = (len(seg) - 7) // 8: seg's ``planes`` bit
    planes, from bools (packbits' fast input for any dtype), each packed at
    its 8 bit phases, so byte y of a plane holds its bits from position y
    on, and byte j of the row at offset x is byte x + 8j."""
    q = (len(seg) - 7) // 8
    bits = seg[:8 * q + 7] & (1 << np.arange(planes, dtype=seg.dtype))[:, None] != 0
    phased = np.empty((planes, q, 8), np.uint8)
    for p in range(8):
        phased[:, :, p] = np.packbits(bits[:, p:p + 8 * q], axis=1, bitorder="little")
    return phased.reshape(planes, 8 * q)


def _plane_rows(phased: np.ndarray, want: np.ndarray, rows: int) -> np.ndarray:
    """The (bytes, rows) batch of mismatch bits of rows x < rows, a byte's
    rows adjacent in memory, from ``phased``, the sliding side's
    ``_phase_planes`` from the first row's offset on, rows + 8 * bytes - 8
    bytes a plane or more, and ``want``, the fixed prefix's packed planes.

    Byte j of row x is each plane's byte x + 8j, so one strided (bytes,
    rows) view holds every row with the rows innermost.  A cell mismatches
    where some plane's bits differ, so the batch is the planes' views
    xor-ed with want and or-ed together, in that layout, which the filter
    and the gathers read as it is.
    """
    planes, nbytes = want.shape
    views = as_strided(phased, (planes, nbytes, rows), (phased.strides[0], 8, 1),
                       writeable=False)
    acc = views[0] ^ want[0][:, None]
    part = np.empty_like(acc)
    for view, ref in zip(views[1:], want[1:]):
        acc |= np.bitwise_xor(view, ref[:, None], out=part)
    return acc


def packed_batches(text: Text, k: int, floor: int = 0):
    """Yield (packed, st1, st2, length) for every diagonal of ``text``, a
    batch of them at a time: a (bytes, rows) array of one row of mismatch
    bits each, a byte's rows adjacent in memory, and the diagonals'
    ``geometry``; nothing when a sequence is empty.  A batch is the rows of
    a dense matrix of at most ``SCAN_CELLS`` cells (or one longer
    diagonal), less k + 8 separator bits a row for the scan's exact stage.
    Diagonals with i2 <= i1 slide s1 past s2 and the others s2 past s1, so
    a batch is ``_plane_rows`` of a slice of one padded sequence's windows
    against a prefix of the other.  Both halves run from the longest
    diagonal outwards, so the fixed side's planes are packed once a half,
    for its first and widest row.  The sliding side's are packed once a
    slice of max(rows, w) rows, which every batch that fits in it reads in
    place: a slice is one batch where rows outnumber cells a row, and on
    long rows the w + 6 symbols past a slice are packed once per w rows.

    ``floor`` is the length of a window known to exist, or 0.  When it is
    too short for the block filter to prune, the first batch is yielded in
    row chunks of 1, 2, 4, ... rows, its longest diagonals first, so that
    the best of the leading chunks is a floor that prunes the rest; the
    chunks are views of the batch's columns."""
    n1, n2 = text.n1, text.n2
    if n1 == 0 or n2 == 0:
        return
    # a slice's symbols end at end + w + 6 <= n_slide + min(n1, n2) + 13 and
    # the fixed side's at w + 7, so this pad keeps them in bounds on either side
    pad = min(n1, n2) + 16
    s1, s2 = padded_pair(text, pad)
    planes = (text.sigma + 1).bit_length()  # the pads take sigma and sigma + 1
    # (sliding side, fixed side, their lengths, first offset, diagonal step):
    # the row at sliding offset x is diagonal n1 - 1 + step * x
    halves = ((s1, s2, n1, n2, 0, -1), (s2, s1, n2, n1, 1, 1))
    chunked = not _block_width(floor)
    for padded, fixed, n_slide, n_fixed, x, step in halves:
        w = -(-min(n_slide - x, n_fixed) // 8) * 8  # the first row, whole bytes
        want = _phase_planes(fixed[:w + 7], planes)[:, ::8]  # phase 0: packed planes
        end = x  # the sliding side's phase planes cover offsets base to end
        while x < n_slide:
            w = -(-min(n_slide - x, n_fixed) // 8) * 8
            rows = min(max(1, SCAN_CELLS // (w + k + 8)), n_slide - x)
            if x + rows > end:
                base, end = x, x + min(max(rows, w), n_slide - x)
                phased = _phase_planes(padded[base:end + w + 6], planes)
            packed = _plane_rows(phased[:, x - base:], want[:, :w // 8], rows)
            st1, st2, length = geometry(n1, n2, n1 - 1 + step * np.arange(x, x + rows))
            cuts = [0, rows]
            if chunked:
                cuts = [min(2 ** j - 1, rows) for j in range(rows.bit_length() + 1)]
                chunked = False
            for lo, hi in zip(cuts, cuts[1:]):
                yield packed[:, lo:hi], st1[lo:hi], st2[lo:hi], length[lo:hi]
            x += rows


def best_in_strips(best: MatchSpan, text: Text, cells, u: int, k: int,
                   floor: int, stats=None) -> MatchSpan:
    """``best``, or the longest window of at least ``floor`` cells in the
    strips of the 0-based seed cells (p1, p2) ``cells`` yields in chunks,
    if it is as long as best.  A strip is the u - 1 cells of its diagonal
    either side of its cell, clipped to the diagonal, so it holds every
    window of at most u cells through the cell; its row runs 2u - 1 cells
    in whole bytes from there, or to the diagonal's end.  Rows are scanned
    ``SCAN_CELLS`` cells a batch; ``stats`` counts seeds and row cells."""
    w = -(-(2 * u - 1) // 8) * 8
    view1, view2 = (sliding_window_view(s, w) for s in padded_pair(text, w))
    step = max(1, SCAN_CELLS // w)
    for p1, p2 in cells:
        if stats is not None:
            stats.seed_pairs += len(p1)
            stats.seed_cells += len(p1) * w
        for lo in range(0, len(p1), step):
            q1, q2 = p1[lo:lo + step], p2[lo:lo + step]
            back = np.minimum(np.minimum(q1, q2), u - 1)
            r1, r2 = q1 - back, q2 - back
            length = np.minimum(w, np.minimum(text.n1 - r1, text.n2 - r2))
            best = best_in_rows(best, _packed_rows(view1[r1], view2[r2]), length,
                                r1 + 1, r2 + 1, k, floor)
    return best


def klcf_diagonal_scan(text: Text, k: int, floor: int = 0,
                       stats: Stats | None = None) -> MatchSpan:
    """Exact optimum and its lexicographically smallest witness, by
    scanning every diagonal of ``packed_batches``: the sliding window on
    the runs the block filter keeps at L = max(best so far, floor).

    ``floor`` is the length of a window known to exist, or 0; windows as
    long as L are kept, so the answer is exact whatever floor at most the
    optimum is given.  At floor 0 the first batch comes in row chunks, so
    the filter has a floor after its first row.  O(n1 n2) time,
    O(SCAN_CELLS + n1 + n2) memory.  ``stats`` counts the n1 n2 cells in
    ``scan_cells``.
    """
    if stats is not None:
        stats.scan_cells += text.n1 * text.n2
    best = MatchSpan(0, 1, 1)
    for packed, st1, st2, length in packed_batches(text, k, floor):
        best = best_in_rows(best, packed, length, st1, st2, k, floor)
    return make_span(text, best.length, best.i1, best.i2)
