"""Tabulation: per-diagonal mismatch bits answered by lookup tables.

The paper's tabulation algorithm has two stages.  The first gets each
diagonal's mismatch bits; the paper packs the symbols into machine words
and xor-compares them a word at a time, and its O(n^2 log min(k+l0,
sigma) / log n) bound counts those word operations.  This reproduction
reads the batches of ``packed_batches`` that the exhaustive scan reads
too, which xor the symbols' bit planes, ceil(log2(sigma + 2)) of them
with the two pad symbols, 8 cells a byte: the paper's word comparison,
sliced by bit instead of by symbol, on bytes rather than log n-bit
words.  It departs from the paper twice: the alphabet is not reduced to
min(k + l0, sigma) symbols, and alphabets of 5 planes or more (sigma >=
15) compare a byte per cell and pack that (``PLANE_LIMIT``).  The
second stage is the paper's with b = 8: each packed byte of the bits is
a block, and two lookup tables, ``Lut``s of window bounds (start, end)
and nothing else, give the longest window with at most k' set bits
inside one block (L1) and straddling two blocks (L2).  Combining
block-local answers with running interior popcounts yields the longest
window with at most k set bits per diagonal, i.e. the optimum match
length.

The tables hold only the budgets a solve reads: L1's layers 0..min(k, b)
and L2's 0..min(k, 2b), each entry a start and an end byte.  ``_tables``
builds them on first use and again only when a larger k needs more
layers, so a process holds those of the largest budget it has solved.
At b = 8 an L2 layer is 128 KiB.  Medians of 30 builds in process on a
shared 2-core Xeon: k = 1 holds 0.25 MiB, built in 0.29 ms with a
0.93 MiB ``tracemalloc`` peak; k = 4 0.63 MiB in 0.61 ms (1.31 MiB peak);
k >= 16 all 17 L2 layers, 2.13 MiB in 2.2 ms (2.81 MiB peak).

``packed_batches`` walks the diagonals for it as for the scan: the same
(bytes, rows) batches, the first one in row chunks of 1, 2, 4, ... rows,
and the same byte runs, which ``_kept_runs`` keeps behind the scan's
block filter at the best length so far and ``_gather`` reads in place.
A window at least that long lies inside one kept run, so only those runs
reach the tables, each as a diagonal of its own, and the LUT stays the
only exact stage.  Kept runs are pooled across batches into one LUT scan
per ``POOL_BLOCKS`` blocks, so its fixed cost is paid a few times a solve,
not once a batch.  The floor is the running best, not ``lcf0``'s lower
bound, so tabulation builds no LCE index.  On random DNA, n = 3072 and
k = 4 (``generate_instance`` seed 1), the LUT stage makes 9,832 of the
7,063,301 queries of the unfiltered scan.

``pack`` and ``unpack`` keep the word-packed symbol layout for the
benchmark's traced runs; the solver does not use them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import MatchSpan, ResourceLimitError, Stats, Text, make_span
from .diagonal import (PACK_CELLS, _gather, _kept_runs, _whole_rows, best_window,
                       packed_batches)

# the solver's block width: one packed byte of mismatch bits
DEFAULT_BLOCK_BITS = 8
WORD_BITS = 64
L2_TABLE_BYTE_LIMIT = 1 << 27
# blocks of kept runs pooled across batches per LUT scan: fewer calls of
# its fixed cost, while the floor the filter reads stays fresh (a pool of
# 4,096 blocks was slower on random DNA, n = 3072)
POOL_BLOCKS = 1 << 9
# byte v bit-reversed, so that a packed byte's first cell is bit 0, as the
# tables read it
REVERSE = np.packbits(np.arange(256)[:, None] >> np.arange(8) & 1, axis=1)[:, 0]


# ---------------------------------------------------------------------------
# packed representation

@dataclass
class PackedText:
    """Both sequences packed into word arrays, plus the field layout."""

    f: int                 # bits per symbol
    w: int                 # word width in bits
    spw: int               # symbols per word
    words1: np.ndarray     # uint64, two zero words appended
    words2: np.ndarray
    n1: int
    n2: int


def _pack_seq(arr: np.ndarray, f: int, spw: int) -> np.ndarray:
    n = len(arr)
    nw = -(-n // spw) if n else 0
    padded = np.zeros(max(nw, 1) * spw, dtype=np.uint64)
    padded[:n] = arr.astype(np.uint64)
    words = np.zeros(nw + 2, dtype=np.uint64)
    cols = padded[:nw * spw].reshape(nw, spw)
    for i in range(spw):
        words[:nw] |= cols[:, i] << np.uint64(i * f)
    return words


def pack(text: Text, w: int = WORD_BITS) -> PackedText:
    """Pack both sequences; f = max(1, ceil(log2 sigma))."""
    if text.sigma < 1:
        raise ValueError("packing needs at least one symbol in the alphabet")
    f = max(1, (text.sigma - 1).bit_length())
    if not 1 <= w <= 64:
        raise ValueError("word width must be in [1, 64]")
    if f > w:
        raise ValueError(f"alphabet needs {f} bits per symbol, word has {w}")
    spw = w // f
    return PackedText(f, w, spw,
                      _pack_seq(text.s1, f, spw), _pack_seq(text.s2, f, spw),
                      text.n1, text.n2)


def unpack(packed: PackedText) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of pack, for round-trip checks."""
    f, spw = packed.f, packed.spw
    mask = np.uint64((1 << f) - 1)

    def one(words, n):
        nw = -(-n // spw) if n else 0
        vals = np.empty(max(nw, 1) * spw, dtype=np.int64)
        for i in range(spw):
            vals[i::spw] = ((words[:max(nw, 1)] >> np.uint64(i * f)) & mask).astype(np.int64)
        return vals[:n]

    return one(packed.words1, packed.n1), one(packed.words2, packed.n2)


# ---------------------------------------------------------------------------
# lookup tables

@dataclass
class Lut:
    """A lookup table's windows (start, end), one array each."""

    start: np.ndarray
    end: np.ndarray


def _check_width(b: int):
    if not 1 <= b <= 16:
        raise ResourceLimitError(f"block width {b} outside the supported [1, 16]")


def _check_top(top: int, most: int) -> int:
    if not 0 <= top <= most:
        raise ValueError(f"top budget {top} outside [0, {most}]")
    return top


def build_l1(b: int, top: int | None = None) -> Lut:
    """L1 table for all 2^b inputs and the budgets k' in [0, top], top = b
    by default.

    Indexed [k', value], it gives the longest window (start, end) of the
    block's bits 1..b with at most k' set bits, ties to the smallest
    start; (1, 0) is the empty window, where not even one bit fits.
    """
    _check_width(b)
    top = _check_top(b if top is None else top, b)
    nv = 1 << b
    vals = np.arange(nv, dtype=np.int64)
    wins = [(i, i + ln - 1) for ln in range(b, 0, -1) for i in range(1, b - ln + 2)]
    wins.append((1, 0))  # empty window, always valid
    pw = np.empty((nv, len(wins)), dtype=np.int16)
    for t, (i, j) in enumerate(wins):
        mask = ((1 << j) - 1) ^ ((1 << (i - 1)) - 1)
        pw[:, t] = np.bitwise_count(vals & mask)
    wi = np.array([w[0] for w in wins], dtype=np.uint8)
    wj = np.array([w[1] for w in wins], dtype=np.uint8)
    # the first window in priority order within each budget
    sel = np.stack([np.argmax(pw <= kp, axis=1) for kp in range(top + 1)])
    return Lut(wi[sel], wj[sel])


def build_l2(b: int, top: int | None = None) -> Lut:
    """L2 table for all block pairs and the budgets k' in [0, top], top =
    2b by default.

    Indexed [k', v1, v2], it gives the longest window (i, j) of the two
    blocks' bits 1..2b, with 1 <= i <= b+1 and b <= j <= 2b, that holds
    at most k' set bits, ties to the smallest i; (b+1, b) is the empty
    window.  That window is the longest suffix s of the first block with
    at most a set bits plus the longest prefix p of the second with at
    most k' - a, for the best split a.  So the key (length, s) in h-bit
    fields is the sum of A[a][v1] = (s, s) and B[c][v2] = (p, 0), and its
    maximum over the splits is the longest window, then the smallest
    start.  A k' layer at a time, the key takes two buffers.
    """
    _check_width(b)
    top = _check_top(2 * b if top is None else top, 2 * b)
    nv = 1 << b
    out_bytes = (top + 1) * nv * nv * 2
    if out_bytes > L2_TABLE_BYTE_LIMIT:
        raise ResourceLimitError(
            f"L2 table for b={b} needs {out_bytes} bytes (limit {L2_TABLE_BYTE_LIMIT})")
    h = (2 * b).bit_length()
    key_type = np.min_scalar_type(2 * b << h | b)  # uint16 at most, to b = 10
    vals = np.arange(nv)
    lens = np.arange(b + 1)[:, None]
    # set bits in v1's suffix and v2's prefix of each length, [length, value]
    suf = np.bitwise_count(vals & (nv - (1 << (b - lens))))
    pre = np.bitwise_count(vals & ((1 << lens) - 1))
    # longest suffix and prefix with at most a set bits, [a, value]
    suf_len = (suf[None, 1:] <= lens[:, :, None]).sum(axis=1)
    pre_len = (pre[None, 1:] <= lens[:, :, None]).sum(axis=1)
    a_key = (suf_len << h | suf_len).astype(key_type)[:, :, None]
    b_key = (pre_len << h).astype(key_type)[:, None, :]
    start, end = np.empty((2, top + 1, nv, nv), np.uint8)
    best, cand = np.empty((2, nv, nv), key_type)
    for kp in range(top + 1):
        best.fill(0)
        for a in range(max(0, kp - b), min(kp, b) + 1):
            np.maximum(best, np.add(a_key[a], b_key[kp - a], out=cand), out=best)
        s = best & ((1 << h) - 1)
        start[kp] = b + 1 - s
        end[kp] = (best >> h) + b - s
    return Lut(start, end)


# the L1 and L2 tables of the largest budget asked for so far
_held: tuple[Lut, Lut] | None = None


def _tables(k: int) -> tuple[Lut, Lut]:
    """The solver's L1 and L2 tables for budgets up to k: L1's layers
    0..min(k, b) and L2's 0..min(k, 2b), or more.  They are built on first
    use and again only when a larger k needs more layers."""
    global _held
    b = DEFAULT_BLOCK_BITS
    top = min(k, 2 * b)
    if _held is None or len(_held[1].start) <= top:
        _held = build_l1(b, min(top, b)), build_l2(b, top)
    return _held


# ---------------------------------------------------------------------------
# window scans

# bench/trace_run.py reads TabulationStats; the alias goes with ROADMAP item 1a
TabulationStats = Stats


def _scan_flat(blocks, m, boff, length, st1, st2, b, k, l1, l2,
               best: MatchSpan, stats: Stats | None) -> MatchSpan:
    """``best``, or the best window over many diagonals' flat blocks if it
    is at least as long (``best_window``); a diagonal may be a kept run of
    one, and one that ends inside its last block has the bits past its end
    set.

    Row 0 of a (k + 2, blocks) stack is each block's L1 window, and row
    p + 1 its L2 window to the block that holds the (p+1)-th set bit after
    it, found by a jump walk.  A diagonal's last block has no L2 window:
    its rows are gathered and dropped, and ``lut_queries`` counts none.
    The rows go in slices of at most ``PACK_CELLS`` / 8 queries, each one
    gather and one ``best_window`` selection.  ``l1`` and ``l2`` hold the
    budgets 0..min(k, b) and 0..min(k, 2b) at least (``_tables``).
    """
    nb = len(blocks)
    dia = np.repeat(np.arange(len(m)), m)
    # the flat blocks' cells are numbered from 1, block t's after cell t*b;
    # block t's diagonal ends at cell cap[t], inside block lim[t]
    tb = np.arange(0, nb * b, b)
    cap = (boff * b + length)[dia]
    last = boff + m - 1
    lim = last[dia]
    popc = np.bitwise_count(blocks)
    # pref[e] counts the set bits before block e, and ends[e] those up to
    # its end; block nb, past the end, holds every bit index from the last
    # one on
    pref = np.zeros(nb + 2, dtype=np.int64)
    np.cumsum(popc, dtype=np.int64, out=pref[1:-1])
    pref[-1] = np.iinfo(np.int64).max
    ends = pref[1:]
    # nxt[e] is the first block from e on with a set bit, or nb
    nxt = np.full(nb + 2, nb)
    nxt[:nb] = np.where(popc > 0, np.arange(nb), nb)
    nxt[:nb] = np.minimum.accumulate(nxt[nb - 1::-1])[::-1]
    # first[t] indexes the first set bit after block t (0-based).  From
    # block t, step p takes at to the block that holds bit first + p, or nb
    # past the last bit: to nxt[at + 1] where at's bits end at or before
    # it, else to nxt[at], which is at, a block with a set bit (or nb).
    first = ends[:nb]
    at = np.arange(nb)
    # a slice of int64 rows holds PACK_CELLS bytes, as the packing's
    # compare does; L1's row alone where no block has an L2 window
    rows, top = max(1, PACK_CELLS // 8 // nb), k + 2 if nb > len(m) else 1
    held = len(l2.start) - 1
    for lo in range(0, top, rows):
        bits = first + np.arange(max(lo, 1) - 1, min(lo + rows, top) - 1)[:, None]
        e = np.empty(bits.shape, np.int64)
        for i, bit in enumerate(bits):
            e[i] = at = nxt[at + (ends[at] <= bit)]
        np.minimum(e, lim, out=e)
        # the L2 key: the budget k less the set bits from block t's end to
        # e's start, block t and block e.  Only a last block's budget, at
        # most k + b and gathered to be dropped, can pass l2's top layer.
        key = (np.minimum(first + k - pref[e], held) << b | blocks) << b | blocks[e]
        st = tb + l2.start.reshape(-1)[key]
        en = (e - 1) * b + l2.end.reshape(-1)[key]
        en[:, last] = -1
        if lo == 0:
            st = np.concatenate([(tb + l1.start[min(k, b)][blocks])[None], st])
            en = np.concatenate([(tb + l1.end[min(k, b)][blocks])[None], en])
        np.minimum(en, cap, out=en)
        en -= st - 1
        mx = int(en.max())
        if mx >= best.length:
            hits = np.flatnonzero(en == mx)
            st, d = st.reshape(-1)[hits], dia[hits % nb]
            st -= boff[d] * b + 1
            best = best_window(best, en.reshape(-1)[hits], st1[d] + st, st2[d] + st)
    if stats is not None:
        stats.lut_queries += nb + (k + 1) * (nb - len(m))
        per_diag = int((m + (m - 1) * (k + 1)).max())
        stats.max_diag_queries = max(stats.max_diag_queries, per_diag)
    return best


def _scan_pool(pool, k, l1, l2, best: MatchSpan, stats: Stats | None) -> MatchSpan:
    """``_scan_flat`` on the pooled runs (blocks, m, cells, i1, i2), laid end
    to end."""
    data, m, cells, i1, i2 = (np.concatenate(part) for part in zip(*pool))
    return _scan_flat(REVERSE[data], m, np.cumsum(m) - m, cells, i1, i2,
                      DEFAULT_BLOCK_BITS, k, l1, l2, best, stats)


def klcf_tabulation(text: Text, k: int,
                    stats: Stats | None = None) -> MatchSpan:
    """Exact optimum over all diagonals: the LUT window scan on the byte
    blocks of the runs of ``packed_batches`` that the scan's block filter
    keeps at the best length so far.

    Kept runs wait in a pool across batches and go to ``_scan_flat`` once
    it holds ``POOL_BLOCKS`` blocks, and at the end; a batch read whole
    goes at once, with the pool, so the first batch's row chunks raise the
    floor before the filter needs it.  Runs kept at an older, lower floor
    are a superset of those the current floor keeps, and ``best_window``'s
    selection does not depend on their order, so the answer is the same."""
    l1, l2 = _tables(k)
    best = MatchSpan(0, 1, 1)
    pool, pooled = [], 0
    for packed, st1, st2, length in packed_batches(text, k):
        if stats is not None:
            stats.word_ops += packed.size
            stats.diagonals += len(length)
        runs = _kept_runs(packed, length, k, max(best.length, 1))
        whole = runs is None
        if whole:
            runs = _whole_rows(length)
        row, first, cells = runs
        if len(row):
            data, m, _ = _gather(packed, runs)
            pool.append((data, m, cells, st1[row] + 8 * first, st2[row] + 8 * first))
            pooled += len(data)
        if whole or pooled >= POOL_BLOCKS:
            best = _scan_pool(pool, k, l1, l2, best, stats)
            pool, pooled = [], 0
    if pool:
        best = _scan_pool(pool, k, l1, l2, best, stats)
    return make_span(text, best.length, best.i1, best.i2)

