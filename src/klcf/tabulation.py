"""Tabulation: per-diagonal mismatch bits answered by lookup tables.

The paper's tabulation algorithm has two stages.  The first gets each
diagonal's mismatch bits; the paper packs the symbols into machine words
and xor-compares them a word at a time, and its O(n^2 log min(k+l0,
sigma) / log n) bound counts those word operations.  This reproduction
takes the bits instead from numpy's packed comparison, the batches of
``packed_batches`` that the exhaustive scan reads too.  The second stage
is the paper's: the bits are cut into b-bit blocks, and two lookup tables
answer "largest area with at most k' set bits" inside one block (L1) and
straddling two blocks (L2).  Combining block-local answers with running
interior popcounts yields the longest window with at most k set bits per
diagonal, i.e. the optimum match length.

``pack`` and ``unpack`` keep the word-packed symbol layout for the
benchmark's traced runs; the solver does not use them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import (MatchSpan, ResourceLimitError, Text, better_span,
                   make_span)
from .diagonal import SCAN_CELLS, argmin_pair, diagonals, packed_batches

DEFAULT_BLOCK_BITS = 8
WORD_BITS = 64
L2_TABLE_BYTE_LIMIT = 1 << 27


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
class LutL1:
    """Largest area with <= k' set bits inside one b-bit block.

    Indexed [k', value] -> (start, end, ones); (1, 0, 0) encodes "no
    non-empty window fits".  Ties prefer the smallest start.
    """

    b: int
    start: np.ndarray
    end: np.ndarray
    ones: np.ndarray

    def query(self, value: int, kp: int) -> tuple[int, int, int]:
        return (int(self.start[kp, value]), int(self.end[kp, value]),
                int(self.ones[kp, value]))


@dataclass
class LutL2:
    """Largest suffix-of-first + prefix-of-second area with <= k' set bits.

    Windows (i, j) satisfy 1 <= i <= b+1 and b <= j <= 2b; (b+1, b) is the
    empty window.  Ties prefer the smallest i.
    """

    b: int
    start: np.ndarray
    end: np.ndarray
    ones: np.ndarray

    def query(self, v1: int, v2: int, kp: int) -> tuple[int, int, int]:
        return (int(self.start[kp, v1, v2]), int(self.end[kp, v1, v2]),
                int(self.ones[kp, v1, v2]))


@lru_cache(maxsize=None)
def _popcount_table(b: int) -> np.ndarray:
    v = np.arange(1 << b, dtype=np.int64)
    pc = np.zeros(1 << b, dtype=np.int64)
    for i in range(b):
        pc += (v >> i) & 1
    return pc


def _check_block_bits(b: int):
    if not 1 <= b <= 16:
        raise ResourceLimitError(f"block width {b} outside the supported [1, 16]")


def build_l1(b: int) -> LutL1:
    """Complete L1 table for all 2^b inputs and all budgets k' in [0, b]."""
    _check_block_bits(b)
    nv = 1 << b
    pc = _popcount_table(b)
    vals = np.arange(nv, dtype=np.int64)
    wins = [(i, i + ln - 1) for ln in range(b, 0, -1) for i in range(1, b - ln + 2)]
    wins.append((1, 0))  # empty window, always valid
    pw = np.empty((nv, len(wins)), dtype=np.int16)
    for t, (i, j) in enumerate(wins):
        mask = ((1 << j) - 1) ^ ((1 << (i - 1)) - 1)
        pw[:, t] = pc[vals & mask]
    wi = np.array([w[0] for w in wins], dtype=np.uint8)
    wj = np.array([w[1] for w in wins], dtype=np.uint8)
    start = np.empty((b + 1, nv), dtype=np.uint8)
    end = np.empty((b + 1, nv), dtype=np.uint8)
    ones = np.empty((b + 1, nv), dtype=np.uint8)
    rows = np.arange(nv)
    for kp in range(b + 1):
        sel = np.argmax(pw <= kp, axis=1)  # first window in priority order
        start[kp] = wi[sel]
        end[kp] = wj[sel]
        ones[kp] = pw[rows, sel].astype(np.uint8)
    return LutL1(b, start, end, ones)


def build_l2(b: int, max_table_bytes: int = L2_TABLE_BYTE_LIMIT) -> LutL2:
    """Complete L2 table for all block pairs and budgets k' in [0, 2b]."""
    _check_block_bits(b)
    nv = 1 << b
    out_bytes = (2 * b + 1) * nv * nv * 3
    if out_bytes > max_table_bytes:
        raise ResourceLimitError(
            f"L2 table for b={b} needs {out_bytes} bytes (limit {max_table_bytes})")
    pc = _popcount_table(b)
    v1 = np.repeat(np.arange(nv, dtype=np.int64), nv)
    v2 = np.tile(np.arange(nv, dtype=np.int64), nv)
    wins = []
    for ln in range(2 * b, 0, -1):
        for i in range(max(1, b - ln + 1), min(b + 1, 2 * b - ln + 1) + 1):
            wins.append((i, i + ln - 1))
    wins.append((b + 1, b))  # empty window
    full = (1 << b) - 1
    pw = np.empty((nv * nv, len(wins)), dtype=np.int16)
    for t, (i, j) in enumerate(wins):
        m1 = (full ^ ((1 << (i - 1)) - 1)) if i <= b else 0
        m2 = (1 << (j - b)) - 1
        pw[:, t] = pc[v1 & m1] + pc[v2 & m2]
    wi = np.array([w[0] for w in wins], dtype=np.uint8)
    wj = np.array([w[1] for w in wins], dtype=np.uint8)
    start = np.empty((2 * b + 1, nv, nv), dtype=np.uint8)
    end = np.empty((2 * b + 1, nv, nv), dtype=np.uint8)
    ones = np.empty((2 * b + 1, nv, nv), dtype=np.uint8)
    rows = np.arange(nv * nv)
    for kp in range(2 * b + 1):
        sel = np.argmax(pw <= kp, axis=1)
        start[kp] = wi[sel].reshape(nv, nv)
        end[kp] = wj[sel].reshape(nv, nv)
        ones[kp] = pw[rows, sel].astype(np.uint8).reshape(nv, nv)
    return LutL2(b, start, end, ones)


@lru_cache(maxsize=4)
def _cached_l1(b: int) -> LutL1:
    return build_l1(b)


@lru_cache(maxsize=4)
def _cached_l2(b: int) -> LutL2:
    return build_l2(b)


# ---------------------------------------------------------------------------
# mismatch blocks

@dataclass
class MismatchBlocks:
    """Difference bits of one diagonal, gathered into b-bit blocks.

    Bit t (1-based; block (t-1)//b, value bit (t-1)%b) is 1 iff the aligned
    symbols at diagonal offset t differ; bits past total_bits are zero.
    """

    b: int
    blocks: np.ndarray  # int64 block values
    total_bits: int


def _row_blocks(packed: np.ndarray, length: np.ndarray, b: int):
    """(blocks, m, boff): the b-bit mismatch blocks of a packed batch.

    Row r of ``packed`` holds a diagonal's mismatch bits 8 to a byte, with
    every bit past its end set.  Its first m[r] = ceil(length[r] / b)
    blocks are kept, laid end to end from offset boff[r]; the last one's
    bits past the end stay set, as the window scan needs.
    """
    rows, nbytes = packed.shape
    mw = -(-nbytes * 8 // b)
    bits = np.ones((rows, mw * b), np.uint8)
    bits[:, :nbytes * 8] = np.unpackbits(packed, axis=1)
    blocks = bits.reshape(rows, mw, b) @ (1 << np.arange(b))
    m = -(-length // b)
    return blocks[np.arange(mw) < m[:, None]], m, np.cumsum(m) - m


# ---------------------------------------------------------------------------
# window scans

@dataclass
class TabulationStats:
    """Work counters of one ``klcf_tabulation`` call.

    ``word_ops`` counts the packed mismatch bytes read, one per 8 cells of
    each batch's row width.
    """

    lut_queries: int = 0
    max_diag_queries: int = 0
    word_ops: int = 0
    diagonals: int = 0


def _scan_flat(blocks, m, boff, length, st1, st2, b, k, l1, l2,
               stats: TabulationStats | None):
    """Best window over many diagonals' flat blocks; (len, i1, i2) or None.

    Each diagonal's last block has its bits past the diagonal's end set.
    """
    dcount = len(m)
    nb = len(blocks)
    dia = np.repeat(np.arange(dcount), m)
    c_in = np.arange(nb, dtype=np.int64) - boff[dia]
    last = boff + m - 1
    popc = _popcount_table(b)[blocks]
    pref = np.zeros(nb + 1, dtype=np.int64)
    np.cumsum(popc, out=pref[1:])
    ldia = length[dia]
    best = None

    def consider(clen, cst, dsel):
        nonlocal best
        mx = int(clen.max()) if len(clen) else 0
        if mx <= 0 or (best is not None and mx < best[0]):
            return
        hits = np.flatnonzero(clen == mx)  # tie-break only among the maxima
        i1 = st1[dsel[hits]] + cst[hits] - 1
        i2 = st2[dsel[hits]] + cst[hits] - 1
        g = argmin_pair(i1, i2)
        cand = (mx, int(i1[g]), int(i2[g]))
        if best is None or (cand[0], -cand[1], -cand[2]) > (best[0], -best[1], -best[2]):
            best = cand

    k1 = min(k, b)
    st = c_in * b + l1.start[k1, blocks].astype(np.int64)
    en = np.minimum(c_in * b + l1.end[k1, blocks].astype(np.int64), ldia)
    consider(en - st + 1, st, dia)
    queries = nb

    left = np.flatnonzero(c_in < (m[dia] - 1))
    if len(left):
        t1 = left
        dsel = dia[t1]
        base = pref[t1 + 1]
        lv = blocks[t1]
        lim = last[dsel]
        ldr = ldia[t1]
        c_l = c_in[t1]
        for p in range(k + 1):
            e = np.searchsorted(pref, base + p, side="right") - 1
            e = np.minimum(e, lim)
            q = pref[e] - base
            kp = np.minimum(k - q, 2 * b)
            st = c_l * b + l2.start[kp, lv, blocks[e]].astype(np.int64)
            en = np.minimum((e - boff[dsel]) * b + l2.end[kp, lv, blocks[e]].astype(np.int64) - b,
                            ldr)
            consider(en - st + 1, st, dsel)
        queries += (k + 1) * len(t1)
    if stats is not None:
        stats.lut_queries += queries
        stats.diagonals += dcount
        per_diag = int((m + (m - 1) * (k + 1)).max())
        stats.max_diag_queries = max(stats.max_diag_queries, per_diag)
    return best


def longest_window_lut(mb: MismatchBlocks, k: int, l1: LutL1, l2: LutL2
                       ) -> tuple[int, int]:
    """Maximum-length window with <= k set bits; (start, end) bit positions.

    A size-1 call into the batched scan: L1 per block and L2 for each left
    block paired with the largest reachable right block per interior budget
    0..k.  Ties prefer the smallest start.  Returns (1, 0) when not even a
    single position fits (all-ones, k = 0).
    """
    if mb.total_bits == 0:
        return (1, 0)
    # the final partial block padded by set bits
    pad = len(mb.blocks) * mb.b - mb.total_bits
    blocks = mb.blocks.copy()
    blocks[-1] |= ((1 << pad) - 1) << (mb.b - pad)
    # one diagonal starting at (1, 1), so a window's i1 is its start bit
    st = np.ones(1, dtype=np.int64)
    boff = np.zeros(1, dtype=np.int64)
    best = _scan_flat(blocks, np.array([len(blocks)]), boff,
                      np.array([mb.total_bits]), st, st, mb.b, k, l1, l2, None)
    if best is None:
        return (1, 0)
    return best[1], best[1] + best[0] - 1


def klcf_tabulation(text: Text, k: int, b: int = DEFAULT_BLOCK_BITS,
                    stats: TabulationStats | None = None,
                    budget: int = SCAN_CELLS) -> MatchSpan:
    """Exact optimum over all diagonals: the LUT window scan on the b-bit
    blocks of the mismatch rows ``packed_batches`` yields, at most
    ``budget`` cells a batch."""
    l1 = _cached_l1(b)
    l2 = _cached_l2(b)
    st1, st2, length = diagonals(text.n1, text.n2)
    best = MatchSpan(0, 1, 1)
    for batch, packed in packed_batches(text, k, budget):
        blocks, m, boff = _row_blocks(packed, length[batch], b)
        if stats is not None:
            stats.word_ops += packed.size
        res = _scan_flat(blocks, m, boff, length[batch], st1[batch], st2[batch],
                         b, k, l1, l2, stats)
        if res is not None:
            best = better_span(best, MatchSpan(*res))
    return make_span(text, best.length, best.i1, best.i2)
