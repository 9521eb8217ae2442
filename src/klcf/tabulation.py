"""Bit-parallel scan: packed symbols, per-diagonal mismatch bits, LUT windows.

Sequences are packed so a 64-bit word holds floor(w/f) symbols of f bits
each.  For every diagonal the two windows are xor-compared a word at a
time, the per-field difference bits are gathered into b-bit blocks, and two
lookup tables answer "largest area with at most k' set bits" inside one
block (L1) and straddling two blocks (L2).  Combining block-local answers
with running interior popcounts yields the longest window with at most k
set bits per diagonal, i.e. the optimum match length.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import MatchSpan, ResourceLimitError, Text, make_span
from .diagonal import argmin_pair, batches, diagonals

DEFAULT_BLOCK_BITS = 8
WORD_BITS = 64
L2_TABLE_BYTE_LIMIT = 1 << 27
_BATCH_BITS = 1 << 23
_U1 = np.uint64(1)


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
# word-level mismatch detection

@lru_cache(maxsize=None)
def _field_masks(f: int, w: int = WORD_BITS) -> tuple[int, int, int]:
    """(high-bit mask, low-bits mask, used-bits mask) for f-bit fields."""
    spw = w // f
    high = 0
    low = 0
    for i in range(spw):
        high |= 1 << (i * f + f - 1)
        low |= ((1 << (f - 1)) - 1) << (i * f)
    used = (1 << (spw * f)) - 1
    return high, low, used


def mismatch_word(x: int, y: int, f: int, w: int = WORD_BITS) -> int:
    """Word whose field i has its high bit set iff x and y differ in field i.

    Classic zero-field detector: xor, then let the low f-1 bits of each
    field carry into the high bit, OR the original high bits back in.
    """
    return int(_mismatch_words_vec(np.uint64(x), np.uint64(y), f, w))


def _mismatch_words_vec(x: np.ndarray, y: np.ndarray, f: int, w: int) -> np.ndarray:
    high, low, used = _field_masks(f, w)
    high = np.uint64(high)
    low = np.uint64(low)
    z = (x ^ y) & np.uint64(used)
    return (((z & low) + low) | z) & high


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


def _blocks_flat(packed: PackedText, st1, st2, length, b: int):
    """Mismatch blocks of many diagonals, concatenated.

    Per diagonal the unaligned packed words of both sides are extracted by a
    two-word shift-combine, xor-compared with the field trick, and the field
    high bits are gathered into b-bit blocks.  Everything is vectorised over
    the concatenation of all requested diagonals.

    Returns (blocks, m, boff): the flat int64 block array, the per-diagonal
    block counts, and the per-diagonal offsets into the flat array.
    """
    f, spw, w = packed.f, packed.spw, packed.w
    fw = spw * f
    used = np.uint64((1 << fw) - 1) if fw < 64 else np.uint64(0xFFFFFFFFFFFFFFFF)
    dcount = len(length)
    nw = -(-length // spw)
    woff = np.zeros(dcount, dtype=np.int64)
    np.cumsum(nw[:-1], out=woff[1:])
    total_w = int(nw.sum())
    dia = np.repeat(np.arange(dcount), nw)
    t = np.arange(total_w, dtype=np.int64) - woff[dia]

    def extract(words, g0):
        g = g0[dia]
        q = g // spw + t
        r = (g % spw).astype(np.uint64)
        sh = r * np.uint64(f)
        hi_sh = np.uint64(fw) - sh - _U1
        lo = words[q] >> sh
        hi = (words[q + 1] << _U1) << hi_sh
        return (lo | hi) & used

    x1 = extract(packed.words1, st1 - 1)
    x2 = extract(packed.words2, st2 - 1)
    mm = _mismatch_words_vec(x1, x2, f, w)
    bits = np.empty((spw, total_w), dtype=np.uint8)
    for i in range(spw):
        bits[i] = (mm >> np.uint64(i * f + f - 1)) & _U1
    stream = bits.T.ravel()  # per-diagonal bit streams, word-padded

    m = -(-length // b)
    boff = np.zeros(dcount, dtype=np.int64)
    np.cumsum(m[:-1], out=boff[1:])
    total_b = int(m.sum())
    out = np.zeros(total_b * b, dtype=np.uint8)
    total_bits = int(length.sum())
    dia_bit = np.repeat(np.arange(dcount), length)
    loff = np.zeros(dcount, dtype=np.int64)
    np.cumsum(length[:-1], out=loff[1:])
    pos = np.arange(total_bits, dtype=np.int64) - loff[dia_bit]
    out[(boff * b)[dia_bit] + pos] = stream[(woff * spw)[dia_bit] + pos]
    blocks = np.zeros(total_b, dtype=np.int64)
    for i in range(b):
        blocks |= out[i::b].astype(np.int64) << i
    return blocks, m, boff


def build_mismatch_blocks(packed: PackedText, alignment: int, b: int) -> MismatchBlocks:
    """Blocks for one diagonal; alignment = i2 - i1 in [-(n1-1), n2-1]."""
    n1, n2 = packed.n1, packed.n2
    if not -(n1 - 1) <= alignment <= n2 - 1:
        raise ValueError(f"alignment {alignment} outside the diagonal range")
    g = alignment + n1 - 1
    st1, st2, length = diagonals(n1, n2, g, g + 1)
    blocks, _, _ = _blocks_flat(packed, st1, st2, length, b)
    return MismatchBlocks(b, blocks, int(length[0]))


# ---------------------------------------------------------------------------
# window scans

@dataclass
class TabulationStats:
    lut_queries: int = 0
    max_diag_queries: int = 0
    word_ops: int = 0
    diagonals: int = 0


def _scan_flat(blocks, m, boff, length, st1, st2, b, k, l1, l2,
               stats: TabulationStats | None):
    """Best window over many diagonals' flat blocks; (len, i1, i2) or None."""
    dcount = len(m)
    nb = len(blocks)
    dia = np.repeat(np.arange(dcount), m)
    c_in = np.arange(nb, dtype=np.int64) - boff[dia]
    last = boff + m - 1
    pc = _popcount_table(b)
    # query-side copy with the final partial block padded by set bits
    pad = m * b - length
    blq = blocks.copy()
    partial = pad > 0
    if partial.any():
        pb = pad[partial]
        blq[last[partial]] |= ((np.int64(1) << pb) - 1) << (b - pb)
    popc = pc[blocks]
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
    st = c_in * b + l1.start[k1, blq].astype(np.int64)
    en = np.minimum(c_in * b + l1.end[k1, blq].astype(np.int64), ldia)
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
            st = c_l * b + l2.start[kp, lv, blq[e]].astype(np.int64)
            en = np.minimum((e - boff[dsel]) * b + l2.end[kp, lv, blq[e]].astype(np.int64) - b,
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
    # one diagonal starting at (1, 1), so a window's i1 is its start bit
    st = np.ones(1, dtype=np.int64)
    boff = np.zeros(1, dtype=np.int64)
    best = _scan_flat(mb.blocks, np.array([len(mb.blocks)]), boff,
                      np.array([mb.total_bits]), st, st, mb.b, k, l1, l2, None)
    if best is None:
        return (1, 0)
    return best[1], best[1] + best[0] - 1


def klcf_tabulation(text: Text, k: int, b: int = DEFAULT_BLOCK_BITS,
                    w: int = WORD_BITS, stats: TabulationStats | None = None,
                    batch_bits: int = _BATCH_BITS) -> MatchSpan:
    """Exact optimum over all diagonals via the packed LUT scan."""
    n1, n2 = text.n1, text.n2
    if n1 == 0 or n2 == 0:
        return MatchSpan(0, 1, 1, ())
    l1 = _cached_l1(b)
    l2 = _cached_l2(b)
    packed = pack(text, w)
    st1, st2, length = diagonals(n1, n2)
    best = (0, 1, 1)
    for lo, hi in batches(length, batch_bits):
        blocks, m, boff = _blocks_flat(packed, st1[lo:hi], st2[lo:hi],
                                       length[lo:hi], b)
        if stats is not None:
            stats.word_ops += int((-(-length[lo:hi] // packed.spw)).sum())
        res = _scan_flat(blocks, m, boff, length[lo:hi], st1[lo:hi], st2[lo:hi],
                         b, k, l1, l2, stats)
        if res is not None and (res[0], -res[1], -res[2]) > (best[0], -best[1], -best[2]):
            best = res
    return make_span(text, *best)
